#!/usr/bin/env python3
"""nftrack benchmark: filter steps per second on four workloads.

Run from the repository root:

    python3 bench/run.py --workload desk_designed --seed 0 --seconds 25 --trace 0
    python3 bench/run.py            # every workload in turn, then a summary table

With ``--trace 0`` the run reports the end-to-end metrics (setup_s,
steps_per_s, peak_rss_mb); with ``--trace 1`` it runs the workload untraced,
then traced, and reports the per-layer metrics of bench/spans.py.  Either
way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, and the run's details are written to
bench/out/.  See bench/README.md.
"""

import os

# One BLAS thread, fixed before numpy loads; setup_s children inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import reference  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
MIN_REPS = 3

# A fresh interpreter up to ready-to-run: import nftrack (numpy, scipy), load
# the config, build the scheme list.  Prints its monotonic clock when ready.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import nftrack, nftrack.cli
from nftrack.harness import load_config, parse_scheme
cfg = load_config(sys.argv[2])
schemes = [parse_scheme(t, cfg.combiner.n_rf, cfg.array.n_b) for t in sys.argv[3:]]
print(time.monotonic())
"""


class CheckoutError(Exception):
    """The directory the benchmark runs in does not hold nftrack's sources."""


def import_nftrack():
    """Import nftrack from this checkout's src/, never from elsewhere."""
    if not (SRC / "nftrack" / "__init__.py").is_file():
        raise CheckoutError(f"no nftrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nftrack

    if Path(nftrack.__file__).resolve().parent != SRC / "nftrack":
        raise CheckoutError(f"nftrack imported from {nftrack.__file__}, not from {SRC}")
    return nftrack


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    used = None
    try:  # numpy's bundled OpenBLAS reports the thread count it actually uses
        import ctypes
        import glob

        libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
        if libs:
            used = int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
    except (OSError, AttributeError):
        pass
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_requested": BLAS_THREADS, "threads_reported": used}


def run_info(nftrack, workload, seed: int, scenario_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "scenario_seed": scenario_seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "nftrack_version": nftrack.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def measure_setup(workload) -> list:
    """Seconds from spawning a fresh interpreter until it is ready to run."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(ROOT / workload.config),
            *workload.tokens]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


class Tally:
    """Operations attempted and failed, with the first reason per operation."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.diverged = 0
        self.pairs = 0
        self.first_outputs = None

    def record(self, rep, must_equal=None) -> None:
        """Check one repetition: it ran, matches the reference, and is byte-identical
        to the first repetition (or to ``must_equal``, the untraced outputs)."""
        wl = self.runner.workload
        checked = reference.check(wl, self.runner.scenario_seed, rep.outputs)
        if self.first_outputs is None:
            self.first_outputs = rep.outputs
        expected = self.first_outputs if must_equal is None else must_equal
        for op in wl.operations:
            reason = rep.errors.get(op) or checked.get(op)
            if reason is None and rep.outputs != expected:
                reason = "output differs from the first repetition" if must_equal is None \
                    else "traced output differs from the untraced output"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(op, reason)
        self.diverged += rep.diverged
        self.pairs += rep.pairs

    @property
    def reference_status(self) -> str:
        if any(r == reference.NO_REFERENCE for r in self.reasons.values()):
            return f"{reference.NO_REFERENCE} for scenario seed {self.runner.scenario_seed}"
        if self.failed:
            return "FAILED: " + "; ".join(f"{op}: {r}" for op, r in self.reasons.items())
        wl = self.runner.workload
        return f"match ({wl.compare}, rtol {wl.rtol:g}, every repetition)"


def run_reps(runner: Runner, tally: Tally, seconds: float, must_equal=None, tracer=None) -> list:
    """Repeat the workload for ``seconds`` (at least MIN_REPS times); rep wall times."""
    times = []
    t_end = time.perf_counter() + seconds
    while len(times) < MIN_REPS or time.perf_counter() < t_end:
        if tracer is not None:
            tracer.request = len(times)
        rep = runner.rep()
        tally.record(rep, must_equal)
        times.append(rep.seconds)
    return times


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args, nftrack) -> int:
    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(workload)

    runner = Runner(workload, args.seed, ROOT, OUT_DIR / "work" / workload.name)
    info = run_info(nftrack, workload, args.seed, runner.scenario_seed)
    tally = Tally(runner)
    warm = runner.rep()  # first call pays lazy imports and allocator growth
    tally.record(warm)

    if not args.trace:
        times = run_reps(runner, tally, args.seconds)
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "steps_per_s": _metric(workload.units / statistics.median(times), "1/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "error_frac": _metric(tally.failed / tally.attempted, "ratio"),
            "diverged_frac": _metric(tally.diverged / tally.pairs if tally.pairs else 0.0, "ratio"),
        }
    else:
        from spans import METRICS, Tracer, layer_metrics

        times = run_reps(runner, tally, args.seconds / 2)
        untraced = tally.first_outputs
        tracer = Tracer()
        tracer.install()
        try:
            traced_times = run_reps(runner, tally, args.seconds / 2, untraced, tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer.spans, range(len(traced_times)))
        values["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1
        values["trace.absent_functions"] = len(tracer.absent)
        metrics = {name: _metric(values[name], unit) for name, unit in METRICS}
        extra = {}
        tracer.write(OUT_DIR / f"{workload.name}.spans.csv")
        if tracer.absent:
            print("absent (layer not measured): " + ", ".join(tracer.absent))

    _report(workload, info, setup, times, tally, metrics, extra, args)
    return 0


def _report(workload, info, setup, times, tally, metrics, extra, args) -> None:
    print(f"workload {workload.name}: seed {args.seed} -> scenario seed {info['scenario_seed']}, "
          f"{workload.units} work units per repetition, {len(times)} untraced repetitions")
    print("run_info " + json.dumps(info, sort_keys=True))
    print(f"reference: {tally.reference_status}")
    if setup:
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    if not args.trace:
        # The highest percentile with at least ten repetitions beyond it.
        tail = int(100 * (1 - 10 / len(times))) if len(times) >= 20 else None
        tail_text = f", p{tail} {statistics.quantiles(times, n=100)[tail - 1]:.4f}" if tail else ""
        print(f"  repetition wall time (s): median {statistics.median(times):.4f}{tail_text}, "
              f"n {len(times)}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    if extra:
        print(f"  ({tally.failed} of {tally.attempted} operations failed; "
              f"{tally.diverged} of {tally.pairs} (scheme, trial) pairs diverged)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT_DIR / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "extra": extra, "run_info": info, "setup_samples_s": setup,
         "rep_seconds": times, "reference": tally.reference_status}, indent=2) + "\n")
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own interpreter, then one summary line per workload."""
    rows, ok = [], True
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, timeout=600)
        ok = ok and done.returncode == 0
        path = OUT_DIR / f"{name}-trace{args.trace}.json"
        if done.returncode == 0 and path.exists():
            rows.append((name, json.loads(path.read_text())))
    print("\nsummary")
    for name, res in rows:
        cells = {**res["metrics"], **res["extra"]} if not args.trace else {
            k: res["metrics"][k] for k in ("trace.overhead_frac", "trace.absent_functions")}
        print(f"  {name:<14} correct {str(res['correct']):<5} " + "  ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in cells.items()))
    print(json.dumps({
        "correct": ok and all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{n}.{k}": v for n, r in rows for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        nftrack = import_nftrack()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, nftrack)


if __name__ == "__main__":
    sys.exit(main())
