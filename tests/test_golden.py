"""Golden campaign output: the desk scenario cut to 2 trials x 10 steps.

The fixtures in tests/golden/ hold the campaign CSV for fd, rand, svd_pe and
qom under each pilot policy.  Every cell must match: the scheme and step
columns exactly, the metric columns at rtol 1e-9.  Regenerate the fixtures
only for a deliberate change of the numerics, with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nftrack.harness import load_config, parse_scheme, run_campaign

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TOKENS = ("fd", "rand", "svd_pe", "qom")
POLICIES = ("per_trial", "per_step")


def _campaign_csv(policy: str, out: Path) -> None:
    desk = load_config(ROOT / "configs" / "desk.json")
    cfg = replace(desk, n_trials=2, k_steps=10, pilot_policy=policy)
    specs = [parse_scheme(tok, cfg.combiner.n_rf, cfg.array.n_b) for tok in TOKENS]
    run_campaign(cfg, specs).to_csv(out)


def _rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("policy", POLICIES)
def test_desk_campaign_matches_golden(policy, tmp_path):
    out = tmp_path / "campaign.csv"
    _campaign_csv(policy, out)
    got, want = _rows(out), _rows(GOLDEN_DIR / f"desk_{policy}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want) == 1 + len(TOKENS) * 10
    for g, w in zip(got[1:], want[1:]):
        assert g[:2] == w[:2]
        np.testing.assert_allclose(
            np.array(g[2:], dtype=float), np.array(w[2:], dtype=float), rtol=1e-9, atol=0.0,
            err_msg=f"scheme {w[0]} step {w[1]}",
        )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for policy in POLICIES:
        path = GOLDEN_DIR / f"desk_{policy}.csv"
        _campaign_csv(policy, path)
        path.with_suffix(".csv.manifest.json").unlink()
