"""Golden outputs on the desk and full-scale scenarios.

The fixtures in tests/golden/ hold:

- the desk campaign CSV for fd, rand, svd_pe and qom under each pilot
  policy, with the scenario cut to 2 trials x 10 steps;
- the `fisher` CSV of two desk array-size sweeps, and of a 3-pose grid
  (`desk_fisher_pose_grid.json`, one pose inside the Fresnel distance, so
  its bounds are nan);
- the desk `crb --steps 20` CSV of each CRB policy;
- the full-scale (`configs/paper_full.json`) campaign CSV for the same four
  schemes, cut to 1 trial x 10 steps, and its `crb --steps 10` CSV of each
  CRB policy.

Every cell must match: the key columns (scheme and step, sweep axis and
value, CRB step) exactly, the other columns at rtol 1e-9.  Regenerate
fixtures only for a deliberate change of the numerics, with

    PYTHONPATH=src python tests/test_golden.py [fixture.csv ...]

which rewrites the fixtures named on the command line, or every fixture
when none is named.  With --compare first,

    PYTHONPATH=src python tests/test_golden.py --compare [fixture.csv ...]

writes nothing: it prints each fixture's largest relative difference, new
output against the committed file, and its first differing cell, old
against new, and exits 1 unless every fixture reads identical.  Quote it
whenever fixtures are regenerated.

The fixtures pin the rounding of the BLAS kernel and of numpy's SIMD loops,
not only the program.  They were generated with the OpenBLAS 0.3.31 that
numpy and scipy bundle, on an AVX-512 Xeon where it picks its SkylakeX
kernel, and with numpy 2.4.6's AVX512_SKX loops.  With
OPENBLAS_CORETYPE=Haswell every fixture moves (tracking by up to 1.84e-10,
CRB 5.2e-12, fisher 1.6e-15), so --compare exits 1, but the golden tests
pass at rtol 1e-9.  With =Sandybridge (AVX only) desk_per_step.csv fails at
svd_pe step 2 by 1.29e-9 relative: the filter amplifies a different rounding
of the BLAS products.  The compressed CRB fixtures (desk_crb_* and
full_crb_* of rand, svd_pe and qom) also pin numpy's float64 tan, whose loop
numpy picks by CPU feature.  The test of --compare below checks its logic on
a fixture that it regenerates, so it does not depend on this machine's
rounding.
"""

import csv
import json
import math
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from nftrack.cli import main
from nftrack.harness import load_config, parse_scheme, run_campaign

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "configs" / "desk.json"
FULL = ROOT / "configs" / "paper_full.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TOKENS = ("fd", "rand", "svd_pe", "qom")
POLICIES = ("per_trial", "per_step")
FISHER_SWEEPS = ("nb:16:101:6", "nm:5:25:5")
POSE_GRID = GOLDEN_DIR / "desk_fisher_pose_grid.json"


def _campaign_csv(config: Path, n_trials: int, out: Path, **changes) -> None:
    """TOKENS' campaign CSV over n_trials x 10 steps of config."""
    cfg = replace(load_config(config), n_trials=n_trials, k_steps=10, **changes)
    specs = [parse_scheme(tok, cfg.combiner.n_rf, cfg.array.n_b) for tok in TOKENS]
    run_campaign(cfg, specs).to_csv(out)


def _fisher_csv(sweep: str, out: Path) -> None:
    """sweep is an nb:/nm: token, or pose-grid for the committed grid file."""
    tokens = [sweep, str(POSE_GRID)] if sweep == "pose-grid" else [sweep]
    assert main(["fisher", "--config", str(DESK), "--out", str(out), "--sweep", *tokens]) == 0


def _crb_csv(config: Path, steps: int, policy: str, out: Path) -> None:
    argv = ["crb", "--config", str(config), "--out", str(out), "--steps", str(steps),
            "--policy", policy]
    assert main(argv) == 0


def _fisher_name(sweep: str) -> str:
    return f"desk_fisher_{sweep.replace(':', '_').replace('-', '_')}.csv"


# Fixture name -> writer(out).
FIXTURES = {
    **{f"desk_{p}.csv": partial(_campaign_csv, DESK, 2, pilot_policy=p) for p in POLICIES},
    **{_fisher_name(s): partial(_fisher_csv, s) for s in (*FISHER_SWEEPS, "pose-grid")},
    **{f"desk_crb_{p}.csv": partial(_crb_csv, DESK, 20, p) for p in TOKENS},
    "full_track.csv": partial(_campaign_csv, FULL, 1),
    **{f"full_crb_{p}.csv": partial(_crb_csv, FULL, 10, p) for p in TOKENS},
}


def _rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _assert_matches_golden(tmp_path: Path, name: str, n_keys: int):
    """Fixture name's writer output against the fixture: the first n_keys
    columns exactly, the rest at rtol 1e-9.  Returns the fixture's row count."""
    out = tmp_path / name
    FIXTURES[name](out)
    got, want = _rows(out), _rows(GOLDEN_DIR / name)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert g[:n_keys] == w[:n_keys]
        np.testing.assert_allclose(
            np.array(g[n_keys:], dtype=float), np.array(w[n_keys:], dtype=float),
            rtol=1e-9, atol=0.0, err_msg=f"{name}: row {w[:n_keys]}",
        )
    return len(want)


@pytest.mark.parametrize("policy", POLICIES)
def test_desk_campaign_matches_golden(policy, tmp_path):
    assert _assert_matches_golden(tmp_path, f"desk_{policy}.csv", 2) == 1 + len(TOKENS) * 10


@pytest.mark.parametrize("sweep", FISHER_SWEEPS)
def test_desk_fisher_matches_golden(sweep, tmp_path):
    n_rows = _assert_matches_golden(tmp_path, _fisher_name(sweep), 2)
    assert n_rows == 1 + int(sweep.split(":")[-1])


def test_desk_fisher_pose_grid_matches_golden(tmp_path):
    n_poses = len(json.loads(POSE_GRID.read_text()))
    assert _assert_matches_golden(tmp_path, _fisher_name("pose-grid"), 2) == 1 + n_poses


@pytest.mark.parametrize("policy", TOKENS)
def test_desk_crb_matches_golden(policy, tmp_path):
    assert _assert_matches_golden(tmp_path, f"desk_crb_{policy}.csv", 1) == 1 + 20


def test_full_campaign_matches_golden(tmp_path):
    assert _assert_matches_golden(tmp_path, "full_track.csv", 2) == 1 + len(TOKENS) * 10


@pytest.mark.parametrize("policy", TOKENS)
def test_full_crb_matches_golden(policy, tmp_path):
    assert _assert_matches_golden(tmp_path, f"full_crb_{policy}.csv", 1) == 1 + 10


def _relative_difference(old: str, new: str) -> float:
    """|new - old| / |old| of two cells; inf for differing text or a change from 0."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def _compare(name: str, out: Path) -> str:
    """One line: the largest relative difference of the fixture's fresh output
    at out against the committed fixture, and the first differing cell."""
    FIXTURES[name](out)
    old, new = _rows(GOLDEN_DIR / name), _rows(out)
    if old[0] != new[0] or len(old) != len(new):
        return f"{name}: header or row count differs ({len(old)} rows against {len(new)})"
    worst, first = 0.0, None
    for i, (old_row, new_row) in enumerate(zip(old[1:], new[1:]), start=1):
        for column, a, b in zip(old[0], old_row, new_row):
            if a != b:
                worst = max(worst, _relative_difference(a, b))
                first = first or f"row {i} {column}: {a} -> {b}"
    if first is None:
        return f"{name}: identical"
    return f"{name}: largest relative difference {worst:.3g}, first at {first}"


def _main(args) -> int:
    """The command line above; the exit status."""
    compare = args[:1] == ["--compare"]
    names = args[compare:] or list(FIXTURES)
    unknown = [name for name in names if name not in FIXTURES]
    if unknown:
        sys.exit(f"unknown fixtures: {', '.join(unknown)}; known: {', '.join(FIXTURES)}")
    if compare:
        lines = []
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                lines.append(_compare(name, Path(tmp) / name))
                print(lines[-1], flush=True)
        return int(any(not line.endswith(": identical") for line in lines))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        path = GOLDEN_DIR / name
        FIXTURES[name](path)
        path.with_suffix(".csv.manifest.json").unlink()
    return 0


CHEAPEST = _fisher_name("pose-grid")


def test_compare_exits_1_unless_every_fixture_is_identical(tmp_path, monkeypatch, capsys):
    # The fixture is first written by the tool's own write mode, so that the
    # exit 0 tests --compare, not this machine's rounding.
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    assert _main([CHEAPEST]) == 0
    assert _main(["--compare", CHEAPEST]) == 0
    rows = _rows(tmp_path / CHEAPEST)
    fresh = rows[1][5]
    rows[1][5] = repr(float(fresh) * (1 + 1e-15))  # one cell off by rounding
    with open(tmp_path / CHEAPEST, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert _main(["--compare", CHEAPEST]) == 1
    same, differs = capsys.readouterr().out.splitlines()
    assert same == f"{CHEAPEST}: identical"
    assert differs.startswith(f"{CHEAPEST}: largest relative difference ")
    assert differs.endswith(f", first at row 1 fbar_x: {rows[1][5]} -> {fresh}")


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
