"""Campaign harness: trials, metrics, persistence, CLI."""

import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import nftrack
from nftrack.cli import main as cli_main
from nftrack.combiners import SCHEMES, CombinerSpec, combiner_svd_pe
from nftrack.dynamics import MsState, ProcessNoiseSpec
from nftrack.errors import ConfigError
from nftrack.geometry import ArrayConfig, Pose, channel_matrix
from nftrack.harness import (
    ScenarioConfig,
    SchemeMetrics,
    TrialRecord,
    load_config,
    metrics_nmse,
    metrics_rmse,
    parse_scheme,
    run_campaign,
    run_trial,
    scheme_label,
    simulate_truth,
)
from nftrack.observation import generate_pilot, observation_jacobian
from nftrack.rng import stream

F28 = 28e9


def tiny_config(**overrides):
    base = dict(
        array=ArrayConfig(n_b=33, n_m=9, carrier_freq=F28),
        initial_state=MsState(15, -15, 3 * np.pi / 8, 10, 0.1),
        initial_cov=np.diag([0.05**2, 0.05**2, 0.001**2, 1.0, 1e-4]),
        noise=ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02),
        p_m_dbm=10.0,
        noise_power_dbm=-70.0,
        k_steps=10,
        n_trials=3,
        combiner=CombinerSpec(kind="svd_pe", n_rf=3),
        seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_noiseless_fd_trial_locks_exactly():
    cfg = tiny_config(
        noise=ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.02),
        noise_power_dbm=-400.0,
        combiner=CombinerSpec(kind="fd", n_rf=33),
        n_trials=1,
    )
    rec = run_trial(cfg, 0, [cfg.combiner])[0]
    err = np.abs(rec.post_means[:, :3] - rec.true_states[1:, :3])
    assert err.max() < 1e-6
    assert rec.diverged_at is None


def test_trial_determinism():
    cfg = tiny_config()
    a = run_trial(cfg, 1, [cfg.combiner])[0]
    b = run_trial(cfg, 1, [cfg.combiner])[0]
    np.testing.assert_array_equal(a.true_states, b.true_states)
    np.testing.assert_array_equal(a.post_means, b.post_means)
    np.testing.assert_array_equal(a.post_covs, b.post_covs)
    assert _record_bytes(a) == _record_bytes(b)


def test_truth_shared_across_schemes():
    cfg = tiny_config()
    t_a = simulate_truth(replace(cfg, combiner=CombinerSpec(kind="fd", n_rf=33)), 2)
    t_b = simulate_truth(replace(cfg, combiner=CombinerSpec(kind="qom", n_rf=3)), 2)
    np.testing.assert_array_equal(t_a, t_b)


def test_pilot_identical_across_schemes(monkeypatch):
    # Each scheme, run alone, linearizes every step at the same pilot.
    cfg = tiny_config()
    pilots = {}
    real = nftrack.harness.pilot_response

    def recording(pose, array, symbols):
        pilots.setdefault(tok, set()).add(symbols.tobytes())
        return real(pose, array, symbols)

    monkeypatch.setattr(nftrack.harness, "pilot_response", recording)
    for tok in ("fd", "rand", "svd_pe", "qom"):
        run_trial(cfg, 0, [parse_scheme(tok, 3, cfg.array.n_b)])
    assert len(pilots) == 4
    assert len(set().union(*pilots.values())) == 1


def test_monotone_information_per_step():
    cfg = tiny_config(k_steps=20, n_trials=1)
    rec = run_trial(cfg, 0, [cfg.combiner])[0]
    for i in range(cfg.k_steps):
        assert np.trace(rec.post_covs[i]) <= np.trace(rec.prior_covs[i]) + 1e-12


def test_metrics_rmse_trivial_cases():
    cfg = tiny_config(k_steps=4, n_trials=1)
    truth = np.zeros((5, 5))
    truth[:, 0] = 1.0
    rec = TrialRecord(
        trial_index=0,
        true_states=truth,
        prior_covs=np.zeros((4, 5, 5)),
        post_means=truth[1:].copy(),
        post_covs=np.zeros((4, 5, 5)),
    )
    np.testing.assert_array_equal(metrics_rmse([rec], "x"), np.zeros(4))

    off = rec.post_means.copy()
    off[:, 0] += 3.0
    rec_off = replace_record(rec, post_means=off)
    np.testing.assert_allclose(metrics_rmse([rec_off], "x"), 3.0)

    one = replace_record(rec, post_means=rec.post_means + np.array([1, 0, 0, 0, 0.0]))
    seven = replace_record(rec, post_means=rec.post_means + np.array([7, 0, 0, 0, 0.0]))
    np.testing.assert_allclose(metrics_rmse([one, seven], "x"), 5.0)


def replace_record(rec, **kw):
    fields = dict(
        trial_index=rec.trial_index,
        true_states=rec.true_states,
        prior_covs=rec.prior_covs,
        post_means=rec.post_means,
        post_covs=rec.post_covs,
    )
    fields.update(kw)
    return TrialRecord(**fields)


def test_metrics_rmse_psi_wrapping():
    truth = np.zeros((3, 5))
    rec = TrialRecord(
        trial_index=0,
        true_states=truth,
        prior_covs=np.zeros((2, 5, 5)),
        post_means=np.array([[0, 0, 2 * np.pi - 0.1, 0, 0], [0, 0, 2 * np.pi + 0.2, 0, 0]]),
        post_covs=np.zeros((2, 5, 5)),
    )
    np.testing.assert_allclose(metrics_rmse([rec], "psi"), [0.1, 0.2], atol=1e-12)


def test_metrics_nmse():
    cfg = tiny_config(k_steps=2, n_trials=1)
    truth = np.zeros((3, 5))
    truth[:, 0] = 15.0
    truth[:, 1] = -15.0
    est = truth[1:, :].copy()
    est[:, 0] += 0.004  # small pose offset
    rec = TrialRecord(
        trial_index=0,
        true_states=truth,
        prior_covs=np.zeros((2, 5, 5)),
        post_means=est,
        post_covs=np.zeros((2, 5, 5)),
    )
    nmse = metrics_nmse([rec], cfg)
    # scalar-loop channel oracle for the same poses
    h_true = channel_matrix(Pose(15, -15, 0), cfg.array)
    h_est = channel_matrix(Pose(15.004, -15, 0), cfg.array)
    expected = np.linalg.norm(h_est - h_true) ** 2 / np.linalg.norm(h_true) ** 2
    np.testing.assert_allclose(nmse, expected, rtol=1e-10)
    assert np.all(nmse <= 4.0)
    exact = replace_record(rec, post_means=truth[1:].copy())
    np.testing.assert_allclose(metrics_nmse([exact], cfg), 0.0, atol=1e-25)


def test_campaign_single_trial_reduction():
    cfg = tiny_config(n_trials=1, k_steps=5)
    spec = parse_scheme("svd_pe", 3, cfg.array.n_b)
    result = run_campaign(cfg, [spec])
    rec = run_trial(cfg, 0, [spec])[0]
    label = scheme_label(spec)
    np.testing.assert_allclose(
        result.schemes[label].rmse_x,
        np.abs(rec.post_means[:, 0] - rec.true_states[1:, 0]),
        rtol=1e-12,
    )


def test_campaign_trial_permutation_invariance():
    cfg = tiny_config(n_trials=3, k_steps=5)
    spec = parse_scheme("qom", 3, cfg.array.n_b)
    recs = [run_trial(cfg, t, [spec])[0] for t in range(3)]
    fwd = metrics_rmse(recs, "x")
    rev = metrics_rmse(recs[::-1], "x")
    np.testing.assert_array_equal(fwd, rev)


def test_campaign_threads_equivalence():
    cfg = tiny_config(n_trials=2, k_steps=4)
    specs = [parse_scheme(tok, 3, cfg.array.n_b) for tok in ("svd_pe", "qom")]
    seq = run_campaign(cfg, specs, threads=1)
    par = run_campaign(cfg, specs, threads=2)
    for label in seq.schemes:
        np.testing.assert_array_equal(seq.schemes[label].rmse_x, par.schemes[label].rmse_x)
        np.testing.assert_array_equal(seq.schemes[label].nmse_h, par.schemes[label].nmse_h)


def _record_bytes(rec):
    out = {}
    for f in fields(rec):
        value = getattr(rec, f.name)
        out[f.name] = value.tobytes() if isinstance(value, np.ndarray) else value
    return out


@pytest.mark.parametrize(
    "case,tokens",
    [
        # psi == theta with no motion: the mode geometry is degenerate at
        # k=1, so qom and mo:qom log fallback steps
        ("degenerate", ("fd", "rand", "svd_pe", "qom", "mo:rand", "mo:qom")),
        # a pilot power of 3100 dBm (1e307 W) overflows the data information
        # at k=1, so every update fails and each trial diverges
        ("diverged", ("fd", "rand", "svd_pe", "qom", "mo:rand", "mo:svd_pe", "mo:qom")),
    ],
)
def test_multi_scheme_trial_matches_single_scheme(case, tokens):
    if case == "degenerate":
        cfg = tiny_config(initial_state=MsState(10, 10, np.pi / 4, 0.0, 0.0), k_steps=5)
    else:
        cfg = tiny_config(p_m_dbm=3100.0, k_steps=4)
    specs = [parse_scheme(tok, 3, cfg.array.n_b) for tok in tokens]
    together = run_trial(cfg, 1, specs)
    assert len(together) == len(specs)
    for spec, rec in zip(specs, together):
        alone = run_trial(cfg, 1, [spec])[0]
        assert _record_bytes(rec) == _record_bytes(alone), scheme_label(spec)
    if case == "degenerate":
        assert together[tokens.index("qom")].fallback_steps
        assert together[tokens.index("mo:qom")].fallback_steps
    else:
        assert all(rec.diverged_at == 1 for rec in together)


def test_in_trial_nmse_matches_metrics_nmse():
    cfg = tiny_config(n_trials=3, k_steps=6)
    specs = [parse_scheme(tok, 3, cfg.array.n_b) for tok in ("fd", "rand", "svd_pe", "qom")]
    per_trial = [run_trial(cfg, t, specs) for t in range(cfg.n_trials)]
    result = run_campaign(cfg, specs)
    for j, spec in enumerate(specs):
        reference = metrics_nmse([trial[j] for trial in per_trial], cfg)
        assert result.schemes[scheme_label(spec)].nmse_h.tobytes() == reference.tobytes()


def test_readme_library_imports():
    # Runs the README library snippet's imports and its Fisher example (the
    # campaign lines in between are left out for time), and checks that every
    # m.<name> it reads is a SchemeMetrics field.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.S | re.M)
    assert snippet is not None, "README has no library snippet"
    read = set(re.findall(r"\bm\.(\w+)", snippet.group(1)))
    assert read and read <= {f.name for f in fields(SchemeMetrics)}
    line = re.search(r"^from nftrack import \(.*?\)$", readme, re.S | re.M)
    assert line is not None, "README library snippet has no nftrack import"
    fisher = re.search(r"^arr = .*?^info = avg_fisher\(.*?\)$", readme, re.S | re.M)
    assert fisher is not None, "README library snippet has no avg_fisher example"
    namespace = {"np": np}
    exec(line.group(0), namespace)
    exec(fisher.group(0), namespace)
    info = namespace["info"]
    assert min(info.f_x, info.f_y, info.f_psi) > 0


def test_parse_scheme_tokens():
    assert parse_scheme("fd", 3, 33).kind == "fd"
    assert parse_scheme("fd", 3, 33).n_rf == 33
    assert parse_scheme("rand", 3, 33).kind == "random"
    mo = parse_scheme("mo:qom", 3, 33)
    assert mo.kind == "mo" and mo.mo_init == "qom"
    assert scheme_label(mo) == "mo:qom"
    for tok in ("fd", "rand", "svd_pe", "qom", "mo:rand", "mo:svd_pe", "mo:qom"):
        assert scheme_label(parse_scheme(tok, 3, 33)) == tok
    assert scheme_label(parse_scheme("mo:random", 3, 33)) == "mo:rand"
    for bad in ("bogus", "mo:fd", "mo:bogus", "mo:"):
        with pytest.raises(ConfigError):
            parse_scheme(bad, 3, 33)


def test_config_roundtrip(tmp_path):
    cfg = tiny_config()
    p = tmp_path / "cfg.json"
    with open(p, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    loaded = load_config(p)
    assert loaded.config_hash() == cfg.config_hash()
    assert loaded.array.n_b == cfg.array.n_b
    assert loaded.combiner == cfg.combiner


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        tiny_config(k_steps=0)
    for power in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError):
            tiny_config(p_m_dbm=power)
        with pytest.raises(ConfigError):
            tiny_config(noise_power_dbm=power)
    with pytest.raises(ConfigError):
        tiny_config(pilot_policy="sometimes")
    with pytest.raises(ConfigError):
        tiny_config(combiner=CombinerSpec(kind="fd", n_rf=7))
    # initial_cov_diag is read only in place of initial_cov, never beside it.
    both = {**tiny_config().to_dict(), "initial_cov_diag": [1.0] * 5}
    with pytest.raises(ConfigError, match="initial_cov_diag"):
        ScenarioConfig.from_dict(both)
    bad = tmp_path / "bad.json"
    bad.write_text("{notjson")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_csv_output_determinism(tmp_path):
    cfg = tiny_config(n_trials=2, k_steps=4)
    specs = [parse_scheme(tok, 3, cfg.array.n_b) for tok in ("fd", "qom")]
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run_campaign(cfg, specs).to_csv(out)
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["seed"] == cfg.seed


DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


def _desk_with(path, **changes):
    """Write configs/desk.json with top-level entries replaced (dicts merged)."""
    d = json.loads(DESK.read_text())
    for key, value in changes.items():
        d[key] = {**d[key], **value} if isinstance(value, dict) else value
    path.write_text(json.dumps(d))
    return path


# Malformed configs: configs/desk.json with one field changed.
BAD_DESK = {
    "cov_neg": {"initial_cov_diag": [0.0025, 0.0025, -1e-6, 1.0, 1e-4]},
    "cov_nan": {"initial_cov": np.diag([np.nan, 0.0025, 1e-6, 1.0, 1e-4]).tolist()},
    "x_nan": {"initial_state": {"x_m": np.nan}},
    "tau_nan": {"process_noise": {"tau_s": np.nan}},
    "sigma_v_inf": {"process_noise": {"sigma_v_mps2": np.inf}},
    "at_bs_center": {"initial_state": {"x_m": 0.0, "y_m": 0.0}},
    # Finite but extreme: 10^327 W overflows, 10^-333 W is 0, 10^-320 W has no
    # finite inverse, and (tau sigma_v)^2 overflows.
    "pm_3300": {"p_m_dbm": 3300.0},
    "noise_m3300": {"noise_power_dbm": -3300.0},
    "noise_m3170": {"noise_power_dbm": -3170.0},
    "sigma_v_1e200": {"process_noise": {"sigma_v_mps2": 1e200}},
    # Retired knobs are unknown keys, not silently ignored ones.
    "burn_in": {"burn_in": 3},
    "mo_iters": {"combiner": {"mo_iters": 10}},
}


def _write_cli_config(tmp_path):
    cfg = tiny_config(k_steps=4, n_trials=2)
    p = tmp_path / "scenario.json"
    with open(p, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    return p


def test_cli_track(tmp_path):
    p = _write_cli_config(tmp_path)
    out = tmp_path / "out.csv"
    rc = cli_main(["track", "--config", str(p), "--out", str(out), "--schemes", "fd,qom"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scheme,k,rmse_x_m,rmse_y_m,rmse_psi_rad,nmse_h"
    assert len(lines) == 1 + 2 * 4
    assert (tmp_path / "out.csv.manifest.json").exists()


def test_cli_fisher_sweep(tmp_path):
    p = _write_cli_config(tmp_path)
    out = tmp_path / "fisher.csv"
    rc = cli_main(["fisher", "--config", str(p), "--out", str(out), "--sweep", "nb:33:66:2"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_crb(tmp_path):
    p = _write_cli_config(tmp_path)
    out = tmp_path / "crb.csv"
    rc = cli_main(
        ["crb", "--config", str(p), "--out", str(out), "--policy", "fd", "--steps", "3"]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["track", "--config", "{missing}"],
        ["track", "--config", "{config}", "--nrf", "0"],
        ["fisher", "--config", "{config}", "--sweep", "nb:bad"],
        ["fisher", "--config", "{config}", "--sweep", "nb:10:20"],
        ["fisher", "--config", "{config}", "--sweep", "nm:0:5:2"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{missing}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{no_y}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{at_origin}"],
        ["fisher", "--config", "{config}", "--sweep", "nb:68:275:0"],
        ["crb", "--config", "{config}", "--steps", "2", "--pm-dbm", "nan"],
        ["crb", "--config", "{config}", "--steps", "2", "--pm-dbm", "inf"],
        ["track", "--config", "{cov_neg}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{cov_neg}", "--steps", "1"],
        ["track", "--config", "{cov_nan}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{cov_nan}", "--steps", "1"],
        ["track", "--config", "{x_nan}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{x_nan}", "--steps", "1"],
        ["track", "--config", "{tau_nan}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{tau_nan}", "--steps", "1"],
        ["track", "--config", "{sigma_v_inf}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{sigma_v_inf}", "--steps", "1"],
        ["fisher", "--config", "{sigma_v_inf}", "--sweep", "nb:33:66:2"],
        ["fisher", "--config", "{at_bs_center}", "--sweep", "nb:33:66:2"],
        ["track", "--config", "{pm_3300}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{pm_3300}", "--steps", "1"],
        ["fisher", "--config", "{pm_3300}", "--sweep", "nb:33:66:2"],
        ["track", "--config", "{noise_m3300}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{noise_m3300}", "--steps", "1"],
        ["fisher", "--config", "{noise_m3300}", "--sweep", "nb:33:66:2"],
        ["track", "--config", "{noise_m3170}", "--steps", "1", "--trials", "1"],
        ["track", "--config", "{sigma_v_1e200}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{sigma_v_1e200}", "--steps", "1"],
        ["crb", "--config", "{config}", "--steps", "2", "--pm-dbm", "3300"],
        # More steps than burn_in, so only the unknown key can fail.
        ["track", "--config", "{burn_in}", "--steps", "4", "--trials", "1"],
        ["crb", "--config", "{burn_in}", "--steps", "4"],
        ["track", "--config", "{mo_iters}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{mo_iters}", "--steps", "1"],
    ],
    ids=["missing-config", "nrf-0", "nb-bad", "nb-3-fields", "nm-0", "grid-missing",
         "grid-no-y", "grid-origin", "sweep-0-points", "pm-dbm-nan", "pm-dbm-inf",
         "track-cov-not-pd", "crb-cov-not-pd", "track-cov-nan", "crb-cov-nan",
         "track-x-nan", "crb-x-nan", "track-tau-nan", "crb-tau-nan", "track-sigma-v-inf",
         "crb-sigma-v-inf", "fisher-sigma-v-inf", "fisher-at-bs-center",
         "track-pm-3300", "crb-pm-3300", "fisher-pm-3300", "track-noise-m3300",
         "crb-noise-m3300", "fisher-noise-m3300", "track-noise-m3170",
         "track-sigma-v-1e200", "crb-sigma-v-1e200", "crb-pm-dbm-flag-3300",
         "track-burn-in", "crb-burn-in", "track-mo-iters", "crb-mo-iters"],
)
def test_cli_config_error_exit_code(tmp_path, capsys, argv):
    paths = {
        "missing": tmp_path / "missing.json",
        "config": _write_cli_config(tmp_path),
        "no_y": tmp_path / "no_y.json",
        "at_origin": tmp_path / "at_origin.json",
        **{name: _desk_with(tmp_path / f"{name}.json", **changes)
           for name, changes in BAD_DESK.items()},
    }
    paths["no_y"].write_text(json.dumps([{"x_m": 15.0, "psi_rad": 0.0}]))
    paths["at_origin"].write_text(json.dumps([{"x_m": 0.0, "y_m": 0.0, "psi_rad": 0.0}]))
    argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "x.csv")]
    rc = cli_main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["crb", "--trials", "7"],
        ["crb", "--threads", "2"],
        ["fisher", "--sweep", "nb:33:66:2", "--trials", "7"],
        ["fisher", "--sweep", "nb:33:66:2", "--threads", "2"],
        ["fisher", "--sweep", "nb:33:66:2", "--nrf", "2"],
        ["fisher", "--sweep", "nb:33:66:2", "--steps", "2"],
    ],
    ids=["crb-trials", "crb-threads", "fisher-trials", "fisher-threads", "fisher-nrf",
         "fisher-steps"],
)
def test_cli_rejects_flags_a_subcommand_ignores(tmp_path, argv):
    p = _write_cli_config(tmp_path)
    out = tmp_path / "x.csv"
    assert cli_main([*argv, "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_entry_point_runs(tmp_path):
    p = _write_cli_config(tmp_path)
    out = tmp_path / "sub.csv"
    # The child imports the same nftrack as this process, installed or not.
    src = str(Path(nftrack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nftrack.cli", "track", "--config", str(p), "--out", str(out),
         "--schemes", "fd"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert out.exists()


def test_per_step_pilot_policy():
    cfg = tiny_config(pilot_policy="per_step", k_steps=6, n_trials=1)
    rec = run_trial(cfg, 0, [cfg.combiner])[0]
    assert rec.diverged_at is None
    # per-trial policy uses one pilot; per-step redraws each step, so the two
    # runs part ways while staying deterministic
    again = run_trial(cfg, 0, [cfg.combiner])[0]
    np.testing.assert_array_equal(rec.post_means, again.post_means)
    fixed = run_trial(replace(cfg, pilot_policy="per_trial"), 0, [cfg.combiner])[0]
    assert not np.array_equal(rec.post_means, fixed.post_means)


def test_cli_fisher_pose_grid(tmp_path):
    p = _write_cli_config(tmp_path)
    grid = tmp_path / "poses.json"
    grid.write_text(json.dumps([
        {"x_m": 15.0, "y_m": -15.0, "psi_rad": 1.2},
        {"x_m": 20.0, "y_m": 5.0, "psi_rad": 0.0},
    ]))
    out = tmp_path / "fisher_poses.csv"
    rc = cli_main(["fisher", "--config", str(p), "--out", str(out),
                   "--sweep", "pose-grid", str(grid)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_crb_svd_policy(tmp_path):
    p = _write_cli_config(tmp_path)
    out = tmp_path / "crb_svd.csv"
    rc = cli_main(["crb", "--config", str(p), "--out", str(out), "--policy", "svd_pe",
                   "--steps", "2"])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 3


@pytest.mark.parametrize("config", ["tiny", "configs/desk.json"])
def test_cli_crb_svd_pe_matches_observation_jacobian_policy(tmp_path, monkeypatch, config):
    # The svd_pe CRB policy builds its Jacobian from the step's channel
    # derivatives; the CSV must equal that of a policy that rebuilds it with
    # observation_jacobian at the same pose.
    p = _write_cli_config(tmp_path) if config == "tiny" else Path(__file__).parent.parent / config
    argv = ["crb", "--config", str(p), "--policy", "svd_pe", "--steps", "8"]
    assert cli_main([*argv, "--out", str(tmp_path / "derivs.csv")]) == 0

    def reference_policy(cfg, token):
        pilot = generate_pilot(stream(cfg.seed, 0, 0, "pilot"), cfg.p_m_watts, cfg.array.n_m)
        return lambda pose, derivs: combiner_svd_pe(
            observation_jacobian(pose, cfg.array, pilot), cfg.combiner.n_rf
        )

    monkeypatch.setattr(nftrack.cli, "crb_policy", reference_policy)
    assert cli_main([*argv, "--out", str(tmp_path / "reference.csv")]) == 0
    assert (tmp_path / "derivs.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_cli_crb_qom_falls_back_as_track_does(tmp_path):
    # Static degenerate trajectory (psi == theta, no motion, no process
    # noise): qom falls back to svd_pe at step 1 and then reuses that
    # combiner at the same pose, so its bound equals svd_pe's byte for byte.
    p = _desk_with(
        tmp_path / "static.json",
        initial_state={"x_m": 10.0, "y_m": 10.0, "psi_rad": np.pi / 4, "v_mps": 0.0,
                       "omega_radps": 0.0},
        process_noise={"sigma_v_mps2": 0.0, "sigma_omega_radps2": 0.0},
    )
    for policy in ("qom", "svd_pe"):
        argv = ["crb", "--config", str(p), "--policy", policy, "--steps", "4"]
        assert cli_main([*argv, "--out", str(tmp_path / f"{policy}.csv")]) == 0
    assert (tmp_path / "qom.csv").read_bytes() == (tmp_path / "svd_pe.csv").read_bytes()


@pytest.mark.parametrize("token", list(SCHEMES))
def test_every_registry_scheme_tracks_and_bounds(tmp_path, token):
    spec = parse_scheme(token, 3, 33)
    assert scheme_label(spec) == token
    cfg = tiny_config(k_steps=2, n_trials=1)
    rec = run_trial(cfg, 0, [spec])[0]
    assert rec.diverged_at is None
    assert np.trace(rec.post_covs[-1, :3, :3]) < np.trace(rec.prior_covs[-1, :3, :3])
    argv = ["crb", "--config", str(_write_cli_config(tmp_path)), "--out",
            str(tmp_path / "crb.csv"), "--policy", token, "--steps", "2"]
    assert cli_main(argv) == (0 if SCHEMES[token].crb else 2)


@pytest.mark.parametrize("argv,builds", [
    (["crb", "--policy", "fd", "--steps", "5"], 0),
    (["crb", "--policy", "rand", "--steps", "5"], 5),
    (["crb", "--policy", "svd_pe", "--steps", "5"], 5),
    (["crb", "--policy", "qom", "--steps", "5"], 5),
    (["fisher", "--sweep", "nb:33:66:3"], 0),
    (["fisher", "--sweep", "nm:1:9:3"], 0),
])
def test_cli_channel_kernel_builds(tmp_path, monkeypatch, argv, builds):
    # The fully digital CRB and the Fisher sweeps use the phase-free pose
    # Gram and build no complex channel kernel; a compressed CRB step builds
    # exactly one.
    p = _write_cli_config(tmp_path)
    calls = []
    real = nftrack.geometry._chain_terms
    monkeypatch.setattr(
        nftrack.geometry, "_chain_terms", lambda pose, cfg: calls.append(1) or real(pose, cfg)
    )
    assert cli_main([*argv, "--config", str(p), "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == builds


def test_mo_step_inverts_the_prior_once(monkeypatch):
    # One inverse for the prior information (shared by combiner_mo and the
    # update) and one for the posterior, per step.
    cfg = tiny_config(combiner=CombinerSpec(kind="mo", n_rf=3, mo_init="qom"), k_steps=4)
    calls = []
    real = nftrack.estimation.psd_inverse
    monkeypatch.setattr(nftrack.estimation, "psd_inverse", lambda m: calls.append(1) or real(m))
    rec = run_trial(cfg, 0, [cfg.combiner])[0]
    assert rec.diverged_at is None
    assert len(calls) == 2 * cfg.k_steps


def test_qom_degenerate_geometry_fallback():
    # start exactly on the zero-effective-aperture manifold (psi == theta,
    # no turning): the mode resolution is undefined at k=1, so the builder
    # falls back and flags the step, and tracking still proceeds
    cfg = tiny_config(
        initial_state=MsState(10, 10, np.pi / 4, 0.0, 0.0),
        noise=ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.02),
        combiner=CombinerSpec(kind="qom", n_rf=3),
        k_steps=3,
        n_trials=1,
    )
    rec = run_trial(cfg, 0, [cfg.combiner])[0]
    assert rec.fallback_steps, "expected the degenerate pose to be flagged"
    assert rec.diverged_at is None


def test_run_trial_builds_one_true_channel_per_step(monkeypatch):
    # Per step: one true channel with its distance grid, and per scheme one
    # _chain_terms at the prior and one distance grid at the posterior for
    # the NMSE term; no scheme builds a complex channel of its own.
    counts = dict.fromkeys(("_chain_terms", "_pair_offsets", "channel_matrix", "channel_grid"), 0)

    def count(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_chain_terms", "_pair_offsets", "channel_matrix"):
        count(nftrack.geometry, name)
    count(nftrack.harness, "channel_grid")
    cfg = tiny_config(k_steps=4)
    tokens = ("fd", "rand", "svd_pe", "qom", "mo:rand")
    records = run_trial(cfg, 0, [parse_scheme(tok, 3, cfg.array.n_b) for tok in tokens])
    assert all(rec.diverged_at is None for rec in records)
    s, k = len(tokens), cfg.k_steps
    assert counts == {
        "_chain_terms": s * k,
        "_pair_offsets": k + 2 * s * k,
        "channel_matrix": 0,
        "channel_grid": k,
    }


@pytest.mark.parametrize("p_m_dbm,expected", [(3100.0, 2), (10.0, 0)])
def test_track_manifest_counts_diverged_trials(tmp_path, capsys, p_m_dbm, expected):
    # 3100 dBm (1e307 W) overflows the data information at the first update,
    # so every trial of every scheme diverges; the CSV cannot show it.  The
    # overflow is reported as divergence, not as numpy RuntimeWarnings from
    # inside the filter and the MO objective.
    config = _desk_with(tmp_path / "desk.json", p_m_dbm=p_m_dbm)
    out = tmp_path / "out.csv"
    tokens = ("fd", "rand", "svd_pe", "qom", "mo:rand")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main(["track", "--config", str(config), "--out", str(out), "--trials", "2",
                       "--steps", "3", "--schemes", ",".join(tokens)])
    assert rc == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["n_diverged"] == dict.fromkeys(tokens, expected)
    assert out.read_text().splitlines()[0] == "scheme,k,rmse_x_m,rmse_y_m,rmse_psi_rad,nmse_h"
    report = "".join(f"{label}: 2 of 2 trials diverged\n" for label in tokens)
    assert capsys.readouterr().err == (report if expected else "")
