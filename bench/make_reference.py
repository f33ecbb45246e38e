#!/usr/bin/env python3
"""Write bench/reference/: one repetition's outputs per workload and reference slot.

Run from the repository root, only at a commit whose outputs are the
reference (any later run is checked against them):

    python3 bench/make_reference.py
"""

import sys

import run  # sets the BLAS thread count before numpy loads
import reference
from workloads import SLOTS, WORKLOADS, Runner


def main() -> int:
    run.import_nftrack()
    for workload in WORKLOADS.values():
        stored = {}
        for slot in range(SLOTS):
            runner = Runner(workload, slot, run.ROOT, run.OUT_DIR / "work" / workload.name)
            rep = runner.rep()
            failed = {op: r for op, r in rep.errors.items() if r is not None}
            if failed:
                print(f"{workload.name} slot {slot}: {failed}", file=sys.stderr)
                return 1
            stored[str(runner.scenario_seed)] = rep.outputs
        reference.save(workload.name, stored)
        print(f"{workload.name}: scenario seeds {sorted(stored)} -> "
              f"{reference.reference_path(workload.name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
