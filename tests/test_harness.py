"""Campaign harness: trials, metrics, persistence, CLI."""

import json
import os
import re
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import nftrack
from nftrack.cli import main as cli_main
from nftrack.combiners import (CRB_POLICIES, SCHEMES, CombinerSpec, PredictionBuilder,
                               combiner_svd_pe)
from nftrack.dynamics import MsState, ProcessNoiseSpec
from nftrack.errors import ConfigError
from nftrack.estimation import Belief, ekf_predict
from nftrack.geometry import (ArrayConfig, Pose, channel_error_sq, channel_grid, channel_matrix,
                              pilot_response)
from nftrack.harness import (
    CONFIG_FORMAT,
    RfChains,
    ScenarioConfig,
    SchemeMetrics,
    TrialRecord,
    load_config,
    manifest_path,
    metrics_rmse,
    parse_scheme,
    run_campaign,
    run_trial,
    simulate_truth,
)
from nftrack.observation import generate_pilot
from nftrack.rng import stream

F28 = 28e9
SVD_PE = CombinerSpec("svd_pe", 3)


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
        combiner=RfChains(3),
        seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def prior_covs(cfg, rec):
    """(k_steps, 5, 5) prior covariances of a record's steps: ekf_predict of
    the previous step's stored posterior, of the initial belief at step 1."""
    beliefs = [Belief(cfg.initial_state, cfg.initial_cov)] + [
        Belief(MsState.from_vector(m), c) for m, c in zip(rec.post_means[:-1], rec.post_covs[:-1])
    ]
    return np.stack([ekf_predict(b, cfg.noise).cov for b in beliefs])


def metrics_nmse(records, cfg):
    """Per-step channel-reconstruction NMSE, rebuilt from the poses: the
    post-hoc reference for the terms run_trial accumulates.  It uses the same
    true grid and ``channel_error_sq`` kernel and sums in record order, so it
    agrees with harness._nmse_from_terms byte for byte."""
    k_steps = records[0].post_means.shape[0]
    num = np.zeros(k_steps)
    den = np.zeros(k_steps)
    for rec in records:
        for i in range(k_steps):
            r_true, a_true, h_true = channel_grid(Pose(*rec.true_states[i + 1, :3]), cfg.array)
            num[i] += channel_error_sq(Pose(*rec.post_means[i, :3]), cfg.array, r_true, a_true)
            den[i] += np.linalg.norm(h_true) ** 2
    return num / den


def test_noiseless_fd_trial_locks_exactly(monkeypatch):
    cfg = tiny_config(
        noise=ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.02),
        noise_power_dbm=-400.0,
        n_trials=1,
    )
    # The collapsing prior fails potrf three times; psd_inverse's jitter
    # retry recovers each time (see ROADMAP, Tried and dropped).
    failures = []
    real = nftrack.estimation._cho_factor

    def counting(a):
        try:
            return real(a)
        except np.linalg.LinAlgError:
            failures.append(1)
            raise

    monkeypatch.setattr(nftrack.estimation, "_cho_factor", counting)
    rec = run_trial(cfg, 0, [CombinerSpec("fd", 33)])[0]
    err = np.abs(rec.post_means[:, :3] - rec.true_states[1:, :3])
    assert err.max() < 1e-6
    assert rec.diverged_at is None
    assert len(failures) == 3


def test_trial_determinism():
    cfg = tiny_config()
    a = run_trial(cfg, 1, [SVD_PE])[0]
    b = run_trial(cfg, 1, [SVD_PE])[0]
    np.testing.assert_array_equal(a.true_states, b.true_states)
    np.testing.assert_array_equal(a.post_means, b.post_means)
    np.testing.assert_array_equal(a.post_covs, b.post_covs)
    assert _record_bytes(a) == _record_bytes(b)


def test_truth_shared_across_schemes():
    cfg = tiny_config()
    t_a = simulate_truth(replace(cfg, combiner=RfChains(1)), 2)
    t_b = simulate_truth(replace(cfg, combiner=RfChains(32)), 2)
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
    rec = run_trial(cfg, 0, [SVD_PE])[0]
    priors = prior_covs(cfg, rec)
    for i in range(cfg.k_steps):
        assert np.trace(rec.post_covs[i]) <= np.trace(priors[i]) + 1e-12


def test_metrics_rmse_trivial_cases():
    cfg = tiny_config(k_steps=4, n_trials=1)
    truth = np.zeros((5, 5))
    truth[:, 0] = 1.0
    rec = TrialRecord(
        trial_index=0,
        true_states=truth,
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
    np.testing.assert_allclose(
        result.schemes[spec.kind].rmse_x,
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


FULL = Path(__file__).resolve().parent.parent / "configs" / "paper_full.json"
HELPER_PREFIX = "nftrack-schemes"  # the name of run_campaign's scheme helper thread


def full_scale(k_steps, n_trials=1):
    return replace(load_config(FULL), k_steps=k_steps, n_trials=n_trials)


def specs_of(cfg, *tokens):
    return [parse_scheme(tok, cfg.combiner.n_rf, cfg.array.n_b) for tok in tokens]


def two_cpus(monkeypatch):
    """Let run_campaign see two usable CPUs, on whatever machine runs the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def thread_starts(monkeypatch):
    """The names of the threads started from now on, in order."""
    names = []
    real = threading.Thread.start

    def start(self):
        names.append(self.name)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


def test_campaign_rejects_threads_below_one(monkeypatch):
    cfg = tiny_config(n_trials=1, k_steps=2)
    ran = []
    monkeypatch.setattr("nftrack.harness.run_trial", lambda *a: ran.append(a))
    for threads in (0, -3):
        with pytest.raises(ConfigError, match="threads"):
            run_campaign(cfg, [SVD_PE], threads=threads)
    assert not ran


def test_scheme_split_trial_matches_one_thread_bytes():
    # Two split trials at once, four threads on at most two cores, under a
    # short switch interval: each must match the one-thread trial's bytes.
    cfg = full_scale(k_steps=3)
    specs = specs_of(cfg, "fd", "rand", "svd_pe", "qom", "mo:svd_pe")
    serial = run_trial(cfg, 1, specs)
    split = []

    def run():
        with ThreadPoolExecutor(max_workers=1) as helper:
            split.append(run_trial(cfg, 1, specs, helper))

    callers = [threading.Thread(target=run) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers) and len(split) == 2
    for records in split:
        for spec, one, two in zip(specs, serial, records):
            assert _record_bytes(one) == _record_bytes(two), spec.kind


def test_helper_side_scheme_runs_in_the_callers_error_state_and_raises_to_it(monkeypatch):
    two_cpus(monkeypatch)
    cfg = full_scale(k_steps=2)
    seen = []
    real = PredictionBuilder.build

    def build(self, *args):
        if self.spec.kind == "fd":  # the first scheme: the helper's
            seen.append((threading.current_thread().name, np.geterr()["under"]))
            raise RuntimeError("helper-side failure")
        return real(self, *args)

    monkeypatch.setattr(PredictionBuilder, "build", build)
    with np.errstate(under="warn"), pytest.raises(RuntimeError, match="helper-side failure"):
        run_campaign(cfg, specs_of(cfg, "fd", "rand"))
    assert len(seen) == 1
    assert seen[0][0].startswith(HELPER_PREFIX) and seen[0][1] == "warn"


def test_scheme_split_campaign_leaves_no_thread_behind(monkeypatch):
    two_cpus(monkeypatch)
    names = thread_starts(monkeypatch)
    cfg = full_scale(k_steps=2, n_trials=2)
    before = threading.active_count()
    run_campaign(cfg, specs_of(cfg, "fd", "svd_pe", "qom"))
    assert threading.active_count() == before
    assert [n for n in names if n.startswith(HELPER_PREFIX)] == [f"{HELPER_PREFIX}_0"]


def test_desk_and_process_pool_campaigns_start_no_helper_thread(monkeypatch):
    two_cpus(monkeypatch)
    names = thread_starts(monkeypatch)
    desk = replace(load_config(DESK), k_steps=2, n_trials=1)
    run_campaign(desk, specs_of(desk, "fd", "rand", "svd_pe", "qom"))
    cfg = full_scale(k_steps=2, n_trials=2)
    run_campaign(cfg, specs_of(cfg, "fd", "svd_pe"), threads=2)
    assert names and not [n for n in names if n.startswith(HELPER_PREFIX)]


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
        assert _record_bytes(rec) == _record_bytes(alone), spec.kind
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
        assert result.schemes[spec.kind].nmse_h.tobytes() == reference.tobytes()


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


def test_readme_scheme_table_matches_registry():
    # The README's scheme table lists exactly the SCHEMES tokens, in order,
    # and its `crb --policy` column marks exactly the CRB policies.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| (\S+) +\| +(yes|no) +\|", readme, re.M)
    assert [token for token, _ in rows] == list(SCHEMES)
    assert tuple(token for token, crb in rows if crb == "yes") == CRB_POLICIES


def test_readme_config_table_matches_format():
    # The README's config table names exactly the keys of CONFIG_FORMAT: a
    # block row's value column lists its keys, any other row's key column
    # names the key itself (initial_cov_diag stands in for initial_cov).
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.search(r"^\| key \| value \|\n(?:\|.*\n)+", readme, re.M)
    assert table is not None, "README has no config table"
    rows = re.findall(r"^\| (`.+?) \| (.+?) \|$", table.group(0), re.M)
    blocks = {path.split(".")[0] for path in CONFIG_FORMAT if "." in path}
    keys = set()
    for key_cell, value_cell in rows:
        names = re.findall(r"`(\w+)`", key_cell)
        if names[0] in blocks:
            keys.update(f"{names[0]}.{key}" for key in re.findall(r"`(\w+)`", value_cell))
        else:
            keys.update(names)
    assert keys == set(CONFIG_FORMAT) | {"initial_cov_diag"}


def test_parse_scheme_tokens():
    assert parse_scheme("fd", 3, 33).kind == "fd"
    assert parse_scheme("fd", 3, 33).n_rf == 33
    assert parse_scheme("rand", 3, 33).kind == "rand"
    assert parse_scheme("mo:qom", 3, 33).kind == "mo:qom"
    for tok in ("fd", "rand", "svd_pe", "qom", "mo:rand", "mo:svd_pe", "mo:qom"):
        assert parse_scheme(tok, 3, 33).kind == tok
    assert parse_scheme("random", 3, 33).kind == "rand"
    assert parse_scheme("mo:random", 3, 33).kind == "mo:rand"
    for bad in ("bogus", "mo", "mo:fd", "mo:bogus", "mo:"):
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


@pytest.mark.parametrize("combiner,kind", [({"kind": "mo:qom", "n_rf": 3}, "mo:qom"),
                                           ({"kind": "random", "n_rf": 3}, "rand")])
def test_config_combiner_token_roundtrip(combiner, kind):
    # The combiner block is the RF chain count alone: the scheme is the
    # subcommand's choice, where an alias loads as its token, so a scheme
    # named in the config is an unknown key.
    with pytest.raises(ConfigError, match="unknown configuration keys: combiner.kind"):
        ScenarioConfig.from_dict({**tiny_config().to_dict(), "combiner": combiner})
    n_rf = {"n_rf": combiner["n_rf"]}
    cfg = ScenarioConfig.from_dict({**tiny_config().to_dict(), "combiner": n_rf})
    assert cfg.combiner == RfChains(3)
    assert cfg.to_dict()["combiner"] == n_rf
    assert parse_scheme(combiner["kind"], cfg.combiner.n_rf, cfg.array.n_b) == CombinerSpec(kind, 3)
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again.combiner == cfg.combiner
    assert again.config_hash() == cfg.config_hash()


def test_track_scheme_aliases_write_the_same_csv(tmp_path):
    p = _write_cli_config(tmp_path)
    outs = []
    for schemes in ("rand,mo:rand", "random,mo:random"):
        outs.append(tmp_path / f"{schemes.replace(':', '_')}.csv")
        argv = ["track", "--config", str(p), "--out", str(outs[-1]), "--schemes", schemes]
        assert cli_main(argv) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    manifests = [Path(f"{out}.manifest.json").read_bytes() for out in outs]
    assert manifests[0] == manifests[1]


def test_campaign_rejects_a_scheme_given_twice(monkeypatch):
    cfg = tiny_config(n_trials=1, k_steps=2)
    ran = []
    monkeypatch.setattr("nftrack.harness.run_trial", lambda *a: ran.append(a))
    for tokens in (("rand", "random"), ("fd", "svd_pe", "fd")):
        specs = [parse_scheme(t, 3, cfg.array.n_b) for t in tokens]
        with pytest.raises(ConfigError, match="more than once"):
            run_campaign(cfg, specs)
    assert not ran


def test_cli_track_rejects_a_scheme_given_twice(tmp_path, capsys):
    out = tmp_path / "dup.csv"
    argv = ["track", "--config", str(_write_cli_config(tmp_path)), "--out", str(out),
            "--schemes", "rand,random"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


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
    for n_rf in (0, 33):  # every scheme's n_rf is in [1, n_b)
        with pytest.raises(ConfigError, match="n_rf"):
            tiny_config(combiner=RfChains(n_rf))
    for n_rf in (True, "3", 3.0):  # a chain count is an integer, and a bool is none
        with pytest.raises(TypeError, match="n_rf must be an integer"):
            RfChains(n_rf)
    assert type(RfChains(np.int64(3)).n_rf) is int
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


# Malformed pose-grid entries: a missing key, a pose at the BS center,
# values that are not JSON numbers, and a key the grid does not know.
BAD_GRIDS = {
    "no_y": {"x_m": 15.0, "psi_rad": 0.0},
    "at_origin": {"x_m": 0.0, "y_m": 0.0, "psi_rad": 0.0},
    "x_str": {"x_m": "15", "y_m": -15.0, "psi_rad": 0.5},
    "y_bool": {"x_m": 15.0, "y_m": True, "psi_rad": 0.5},
    "psi_null": {"x_m": 15.0, "y_m": -15.0, "psi_rad": None},
    "psi_deg": {"x_m": 15.0, "y_m": -15.0, "psi_rad": 0.3, "psi_deg": 90.0},
}
GOOD_GRID = {"x_m": 15.0, "y_m": -15.0, "psi_rad": 0.3}

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
    "mo_init": {"combiner": {"mo_init": "qom"}},
    # The config names no scheme: a combiner kind is an unknown key, whether
    # or not it is a scheme token.
    "kind_mo": {"combiner": {"kind": "mo"}},
    "kind": {"combiner": {"kind": "svd_pe"}},
    # An integer key takes a JSON integer, a number key an integer or a
    # float; neither takes a bool or a string.
    "trials_2_5": {"n_trials": 2.5},
    "seed_11_9": {"seed": 11.9},
    "steps_str": {"k_steps": "50"},
    "n_m_str": {"array": {"n_m": "25"}},
    "n_rf_true": {"combiner": {"n_rf": True}},
    "n_b_101_9": {"array": {"n_b": 101.9}},
    "n_m_true": {"array": {"n_m": True}},
    "pm_str": {"p_m_dbm": "10"},
    "cov_diag_bool": {"initial_cov_diag": [True, 0.0025, 1e-6, 1.0, 1e-4]},
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
    "argv,extra",
    [
        (["track", "--schemes", "fd,qom"], {"schemes", "n_diverged"}),
        (["crb"], set()),
        (["fisher", "--sweep", "nb:33:66:2"], set()),
    ],
    ids=["track", "crb", "fisher"],
)
def test_cli_manifest_keys(tmp_path, argv, extra):
    p = _write_cli_config(tmp_path)
    out = tmp_path / "out.csv"
    assert cli_main([*argv, "--config", str(p), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert set(manifest) == {"config_hash", "seed", "code_version"} | extra
    cfg = load_config(p)
    assert (manifest["config_hash"], manifest["seed"]) == (cfg.config_hash(), cfg.seed)
    assert manifest["code_version"] == nftrack.__version__


@pytest.mark.parametrize(
    "argv",
    [
        ["track", "--config", "{missing}"],
        ["track", "--config", "{config}", "--nrf", "0"],
        ["fisher", "--config", "{config}", "--sweep", "nb:bad"],
        ["fisher", "--config", "{config}", "--sweep", "nb:10:20"],
        ["fisher", "--config", "{config}", "--sweep", "nm:0:5:2"],
        # Counts past int64, and past any addressable grid: neither is ever allocated.
        ["fisher", "--config", "{config}", "--sweep", "nb:1e300:1e300:1"],
        ["fisher", "--config", "{config}", "--sweep", "nb:1e18:1e18:1"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{missing}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{no_y}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{at_origin}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{x_str}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{y_bool}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{psi_null}"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{psi_deg}"],
        ["fisher", "--config", "{config}", "--sweep", "nb:68:275:0"],
        ["fisher", "--config", "{config}", "--sweep", "nb:68:101:2", "nm:19:25:2"],
        ["fisher", "--config", "{config}", "--sweep", "pose-grid", "{grid}", "nb:3:5:2"],
        ["fisher", "--config", "{config}", "--sweep", "nb:inf:5:3"],
        ["fisher", "--config", "{config}", "--sweep", "nb:nan:5:3"],
        ["fisher", "--config", "{config}", "--sweep", "nm:3:-inf:3"],
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
        ["track", "--config", "{mo_init}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{mo_init}", "--steps", "1"],
        ["fisher", "--config", "{mo_init}", "--sweep", "nb:33:66:2"],
        ["track", "--config", "{kind_mo}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{kind_mo}", "--steps", "1"],
        ["track", "--config", "{kind}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{kind}", "--steps", "1"],
        ["fisher", "--config", "{kind}", "--sweep", "nb:33:66:2"],
        ["track", "--config", "{trials_2_5}", "--steps", "1"],
        ["track", "--config", "{seed_11_9}", "--steps", "1", "--trials", "1"],
        ["crb", "--config", "{steps_str}"],
        ["fisher", "--config", "{n_m_str}", "--sweep", "nb:33:66:2"],
        ["crb", "--config", "{n_rf_true}", "--steps", "1"],
        ["fisher", "--config", "{pm_str}", "--sweep", "nb:33:66:2"],
        ["crb", "--config", "{cov_diag_bool}", "--steps", "1"],
        ["fisher", "--config", "{n_b_101_9}", "--sweep", "nm:1:25:2"],
        ["track", "--config", "{n_m_true}", "--steps", "1", "--trials", "1"],
        ["track", "--config", "{config}", "--threads", "0"],
        ["track", "--config", "{config}", "--threads", "-3"],
        ["fisher", "--config", "{config}", "--sweep", "nb:16:20:2", "--out", "{manifest_is_dir}"],
    ],
    ids=["missing-config", "nrf-0", "nb-bad", "nb-3-fields", "nm-0", "nb-1e300", "nb-1e18",
         "grid-missing",
         "grid-no-y", "grid-origin", "grid-x-str", "grid-y-bool", "grid-psi-null",
         "grid-unknown-key", "sweep-0-points", "sweep-two-tokens", "grid-trailing-token",
         "sweep-start-inf", "sweep-start-nan", "sweep-stop-inf", "pm-dbm-nan", "pm-dbm-inf",
         "track-cov-not-pd", "crb-cov-not-pd", "track-cov-nan", "crb-cov-nan",
         "track-x-nan", "crb-x-nan", "track-tau-nan", "crb-tau-nan", "track-sigma-v-inf",
         "crb-sigma-v-inf", "fisher-sigma-v-inf", "fisher-at-bs-center",
         "track-pm-3300", "crb-pm-3300", "fisher-pm-3300", "track-noise-m3300",
         "crb-noise-m3300", "fisher-noise-m3300", "track-noise-m3170",
         "track-sigma-v-1e200", "crb-sigma-v-1e200", "crb-pm-dbm-flag-3300",
         "track-burn-in", "crb-burn-in", "track-mo-iters", "crb-mo-iters",
         "track-mo-init", "crb-mo-init", "fisher-mo-init", "track-kind-mo", "crb-kind-mo",
         "track-kind", "crb-kind", "fisher-kind", "track-trials-2.5", "track-seed-11.9",
         "crb-steps-str", "fisher-n-m-str", "crb-n-rf-true", "fisher-pm-str",
         "crb-cov-diag-bool", "fisher-n-b-101.9", "track-n-m-true", "threads-0",
         "threads-minus-3", "out-manifest-is-dir"],
)
def test_cli_config_error_exit_code(tmp_path, capsys, argv):
    paths = {
        "missing": tmp_path / "missing.json",
        "config": _write_cli_config(tmp_path),
        **{name: tmp_path / f"{name}.json" for name in [*BAD_GRIDS, "grid"]},
        **{name: _desk_with(tmp_path / f"{name}.json", **changes)
           for name, changes in BAD_DESK.items()},
    }
    for name, entry in {**BAD_GRIDS, "grid": GOOD_GRID}.items():
        paths[name].write_text(json.dumps([entry]))
    # An --out whose manifest sidecar is a directory, in a directory of its own.
    paths["manifest_is_dir"] = tmp_path / "mf" / "out.csv"
    (tmp_path / "mf" / "out.csv.manifest.json").mkdir(parents=True)
    argv = [a.format(**paths) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "x.csv")]
    rc = cli_main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "mf" / "out.csv").exists()  # nothing written before the check


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


def test_successive_main_calls_parse_independently(tmp_path):
    # main reuses one parser: a flag of one call must not carry into the next.
    p = _write_cli_config(tmp_path)
    out = tmp_path / "f.csv"

    def config_hash(*flags):
        argv = ["fisher", "--config", str(p), "--out", str(out), "--sweep", "nb:16:16:1"]
        assert cli_main([*argv, *flags]) == 0
        return json.loads(manifest_path(out).read_text())["config_hash"]

    cfg = load_config(p)
    loud = replace(cfg, p_m_dbm=40.0).config_hash()
    assert [config_hash("--pm-dbm", "40"), config_hash(), config_hash("--pm-dbm", "40")] == [
        loud, cfg.config_hash(), loud]


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
    rec = run_trial(cfg, 0, [SVD_PE])[0]
    assert rec.diverged_at is None
    # per-trial policy uses one pilot; per-step redraws each step, so the two
    # runs part ways while staying deterministic
    again = run_trial(cfg, 0, [SVD_PE])[0]
    np.testing.assert_array_equal(rec.post_means, again.post_means)
    fixed = run_trial(replace(cfg, pilot_policy="per_trial"), 0, [SVD_PE])[0]
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
    # The svd_pe CRB policy takes the tracking filter's observation Jacobian:
    # the CSV must equal that of a policy that builds svd_pe directly from
    # pilot_response at the same pose.
    p = _write_cli_config(tmp_path) if config == "tiny" else Path(__file__).parent.parent / config
    argv = ["crb", "--config", str(p), "--policy", "svd_pe", "--steps", "8"]
    assert cli_main([*argv, "--out", str(tmp_path / "crb.csv")]) == 0

    def reference_policy(cfg, token):
        pilot = generate_pilot(stream(cfg.seed, 0, 0, "pilot"), cfg.p_m_watts, cfg.array.n_m)
        return lambda pose: combiner_svd_pe(
            pilot_response(pose, cfg.array, pilot)[1], cfg.combiner.n_rf
        )

    monkeypatch.setattr(nftrack.cli, "crb_policy", reference_policy)
    assert cli_main([*argv, "--out", str(tmp_path / "reference.csv")]) == 0
    assert (tmp_path / "crb.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_cli_crb_per_step_uses_step_k_pilots(tmp_path, monkeypatch):
    # Under pilot_policy per_step the svd_pe bound at step k is oriented by
    # step k's pilot, as a per-step tracking filter is.
    p = _desk_with(tmp_path / "per_step.json", pilot_policy="per_step")
    argv = ["crb", "--config", str(p), "--policy", "svd_pe", "--steps", "5"]
    assert cli_main([*argv, "--out", str(tmp_path / "crb.csv")]) == 0

    def reference_policy(cfg, token):
        steps = iter(range(1, cfg.k_steps + 1))

        def policy(pose):
            rng = stream(cfg.seed, 0, next(steps), "pilot")
            pilot = generate_pilot(rng, cfg.p_m_watts, cfg.array.n_m)
            b_jac = pilot_response(pose, cfg.array, pilot)[1]
            return combiner_svd_pe(b_jac, cfg.combiner.n_rf)

        return policy

    monkeypatch.setattr(nftrack.cli, "crb_policy", reference_policy)
    assert cli_main([*argv, "--out", str(tmp_path / "reference.csv")]) == 0
    assert (tmp_path / "crb.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("policy", CRB_POLICIES)
def test_cli_crb_overflowing_information_exits_3(tmp_path, capsys, policy):
    # A pilot power of 3100 dBm (1e307 W) overflows the data information to
    # inf at step 1: a numerical failure, reached without a RuntimeWarning.
    argv = ["crb", "--config", str(_write_cli_config(tmp_path)), "--out",
            str(tmp_path / "crb.csv"), "--policy", policy, "--steps", "2", "--pm-dbm", "3100"]
    assert cli_main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_cli_crb_many_rf_chains_raises_no_overflow(tmp_path):
    # 100 random rows of 101: (tr G)^n_rf overflows a float, which the rank
    # gate's factor screen must not compute (RuntimeWarnings are errors here).
    argv = ["crb", "--config", str(DESK), "--policy", "rand", "--nrf", "100", "--steps", "2"]
    assert cli_main([*argv, "--out", str(tmp_path / "crb.csv")]) == 0


def test_cli_fisher_array_sweep_keeps_configured_spacings(tmp_path):
    # An nb:/nm: sweep point at the configured array size is the configured
    # array: its row equals a pose grid's at the initial pose.
    p = _desk_with(tmp_path / "spaced.json", array={"d_b_m": 0.02, "d_m_m": 0.02})
    grid = tmp_path / "pose.json"
    grid.write_text(json.dumps([{"x_m": 15.0, "y_m": -15.0, "psi_rad": 1.1780972450961724}]))
    rows = {}
    for sweep in (["nb:101:101:1"], ["nm:25:25:1"], ["pose-grid", str(grid)]):
        out = tmp_path / f"{sweep[0][:2]}.csv"
        assert cli_main(["fisher", "--config", str(p), "--out", str(out), "--sweep", *sweep]) == 0
        rows[sweep[0][:2]] = out.read_text().splitlines()[1].split(",")[2:]
    assert rows["nb"] == rows["po"]
    assert rows["nm"] == rows["po"]


def test_cli_fisher_sweep_floors_fractional_bounds_to_integer_counts(tmp_path):
    # The sweep floors its points, so integer-only antenna counts accept them.
    out = tmp_path / "nb.csv"
    argv = ["fisher", "--config", str(DESK), "--out", str(out), "--sweep", "nb:16.5:33.9:2"]
    assert cli_main(argv) == 0
    assert [row.split(",")[:2] for row in out.read_text().splitlines()[1:]] == [
        ["nb", "16"], ["nb", "33"]]


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
    assert spec.kind == token
    cfg = tiny_config(k_steps=2, n_trials=1)
    rec = run_trial(cfg, 0, [spec])[0]
    assert rec.diverged_at is None
    assert np.trace(rec.post_covs[-1, :3, :3]) < np.trace(prior_covs(cfg, rec)[-1, :3, :3])
    argv = ["crb", "--config", str(_write_cli_config(tmp_path)), "--out",
            str(tmp_path / "crb.csv"), "--policy", token, "--steps", "2"]
    assert cli_main(argv) == (0 if token in CRB_POLICIES else 2)


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
    # Gram and build no channel kernel.  A compressed CRB step builds its
    # compressed derivatives once, for the data information; only the svd_pe
    # policy also builds the complex chain terms, for its observation Jacobian.
    p = _write_cli_config(tmp_path)
    chain, compressed = [], []
    real_chain = nftrack.geometry._chain_terms
    real_compressed = nftrack.geometry.ChannelDerivatives.compressed
    monkeypatch.setattr(nftrack.geometry, "_chain_terms",
                        lambda pose, cfg: chain.append(1) or real_chain(pose, cfg))
    monkeypatch.setattr(nftrack.geometry.ChannelDerivatives, "compressed",
                        lambda derivs, q: compressed.append(1) or real_compressed(derivs, q))
    assert cli_main([*argv, "--config", str(p), "--out", str(tmp_path / "out.csv")]) == 0
    assert len(compressed) == builds
    assert len(chain) == (builds if "svd_pe" in argv else 0)


def test_mo_step_inverts_the_prior_once(monkeypatch):
    # One inverse for the prior information (shared by combiner_mo and the
    # update) and one for the posterior, per step.
    cfg = tiny_config(k_steps=4)
    calls = []
    real = nftrack.estimation.psd_inverse
    monkeypatch.setattr(nftrack.estimation, "psd_inverse", lambda m: calls.append(1) or real(m))
    rec = run_trial(cfg, 0, [CombinerSpec("mo:qom", 3)])[0]
    assert rec.diverged_at is None
    assert len(calls) == 2 * cfg.k_steps


def test_qom_degenerate_geometry_fallback():
    # start exactly on the zero-effective-aperture manifold (psi == theta,
    # no turning): the mode resolution is undefined at k=1, so the builder
    # falls back and flags the step, and tracking still proceeds
    cfg = tiny_config(
        initial_state=MsState(10, 10, np.pi / 4, 0.0, 0.0),
        noise=ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.02),
        k_steps=3,
        n_trials=1,
    )
    rec = run_trial(cfg, 0, [CombinerSpec("qom", 3)])[0]
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
