"""The channel kernels' scratch grids: bit-identical results, fresh public
arrays, streamed derivatives, thread safety, and the memory the kernels, the
CRB steps, the tracking trials and fd no longer take."""

import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nftrack import geometry
from nftrack.cli import main as cli_main
from nftrack.combiners import CRB_POLICIES, combiner_fd, parse_scheme
from nftrack.estimation import Belief
from nftrack.geometry import (ArrayConfig, Pose, _distance_terms,
                              channel_derivatives, channel_error_sq, channel_grid, pilot_response)
from nftrack.harness import crb_policy, load_config, run_campaign, run_trial
from nftrack.information import bayesian_fim_step

from reference import derivative_matrices

F28 = 28e9
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESK = CONFIGS / "desk.json"
FULL = CONFIGS / "paper_full.json"
COMPLEX_GRID_275X75 = 275 * 75 * 16  # bytes


# The kernels' expressions as they read with an array allocated per operation:
# the reference the scratch-grid kernels must match bit for bit.
def _ref_pair_offsets(pose, cfg):
    lever = cfg.ms_lever
    dx = pose.x + lever * np.cos(pose.psi)
    dy = pose.y + lever * np.sin(pose.psi) - cfg.bs_offsets
    return dx, dy, np.sqrt(dx**2 + dy**2)


def _ref_distance_terms(pose, cfg):
    nm = cfg.ms_index_row
    dx, dy, r = _ref_pair_offsets(pose, cfg)
    dr_dx = dx / r
    dr_dy = dy / r
    dr_dpsi = -dr_dx * nm * cfg.d_m * np.sin(pose.psi) + dr_dy * nm * cfg.d_m * np.cos(pose.psi)
    return r, (dr_dx, dr_dy, dr_dpsi)


def _ref_kernels(pose, cfg, x, r_ref, a_ref):
    lam = cfg.wavelength
    r, dr = _ref_distance_terms(pose, cfg)
    phase = np.exp(-2j * np.pi / lam * r)
    dh_dr = -lam / (4 * np.pi * r**2) * (1 + 2j * np.pi / lam * r) * phase
    derivs = [dh_dr * d for d in dr]
    b = np.zeros((cfg.n_b, 5), dtype=complex)
    for col, j in enumerate(derivs):
        b[:, col] = j @ x
    hx = (lam / (4 * np.pi * r) * phase) @ x
    a = lam / (4 * np.pi * r)
    h = a * np.exp(-2j * np.pi / lam * r)
    s = np.sin(np.pi / lam * (r - r_ref))
    da = a - a_ref
    err = float(np.vdot(da, da) + 4.0 * np.vdot(a * a_ref, s * s))
    # The Gram's column sums: r dr/dmu = p_mu + q_mu t in MS column m.
    lever, t = cfg.ms_lever[0], cfg.bs_offsets[:, 0] - pose.y
    dx, rise = pose.x + lever * np.cos(pose.psi), lever * np.sin(pose.psi)
    pq = np.array([[dx, rise, rise * -pose.x],
                   [np.zeros_like(lever), np.full_like(lever, -1.0), -np.cos(pose.psi) * lever]])
    inv_r2 = 1.0 / ((rise[:, None] - t) ** 2 + (dx * dx)[:, None])
    w = (inv_r2 + (2 * np.pi / lam) ** 2) * inv_r2 * inv_r2
    sums = np.array([np.ones_like(t), t, t**2]) @ w.T
    gram = np.einsum("kim,klm,ljm->ij", pq, sums[[[0, 1], [1, 2]]], pq)
    gram[[1, 2, 2], [0, 0, 1]] = gram[[0, 0, 1], [1, 2, 2]]
    gram *= (lam / (4 * np.pi)) ** 2
    return [hx, b, r, a, h, *dr, *derivs, np.array(err), gram]


def _kernels(pose, cfg, x, r_ref, a_ref):
    hx, b = pilot_response(pose, cfg, x)
    dr = [d.copy() for d in _distance_terms(pose, cfg)[1]]
    r, a, h = channel_grid(pose, cfg)
    derivs = derivative_matrices(channel_derivatives(pose, cfg))
    err = channel_error_sq(pose, cfg, r_ref, a_ref)
    gram = channel_derivatives(pose, cfg).gram
    return [hx, b, r, a, h, *dr, *derivs, np.array(err), gram]


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


def _case(n_b, n_m, seed):
    """A pose, an array, a pilot and a reference grid near the pose: the
    arguments of _kernels."""
    cfg = ArrayConfig(n_b=n_b, n_m=n_m, carrier_freq=F28)
    rng = np.random.default_rng(seed)
    dist, theta = rng.uniform(1.0, 60.0), rng.uniform(-np.pi, np.pi)
    pose = Pose(dist * np.cos(theta), dist * np.sin(theta), rng.uniform(-7.0, 7.0))
    x = rng.standard_normal(n_m) + 1j * rng.standard_normal(n_m)
    ref = Pose(pose.x + 1e-3 * rng.standard_normal(), pose.y, pose.psi + 1e-2)
    r_ref, a_ref, _ = channel_grid(ref, cfg)
    return pose, cfg, x, r_ref, a_ref


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_kernels_match_allocating_expressions_bit_for_bit(n_b, n_m, seed):
    case = _case(n_b, n_m, seed)
    assert _bytes(_kernels(*case)) == _bytes(_ref_kernels(*case))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 40), st.sampled_from([1, 2, 5, 8, 25]), st.integers(0, 2**32 - 1))
def test_streamed_derivatives_match_matrices_bit_for_bit(n_b, n_m, seed):
    pose, cfg, x, r_ref, a_ref = _case(n_b, n_m, seed)
    want = _bytes(derivative_matrices(channel_derivatives(pose, cfg)))
    assert want == _bytes(_ref_kernels(pose, cfg, x, r_ref, a_ref)[8:11])
    other = Pose(pose.x + 0.5, pose.y - 0.25, pose.psi + 0.3)
    derivs = channel_derivatives(pose, cfg)
    first = _bytes(derivs.stream())
    second = _bytes(derivs.stream())  # reuses the chain terms in scratch
    pilot_response(other, cfg, x)  # a kernel at another pose overwrites them
    interrupted = []
    for j in derivs.stream():
        interrupted.append(j.tobytes())
        pilot_response(other, cfg, x)  # and again between two yields
    assert first == second == interrupted == want


def test_svd_pe_crb_step_builds_its_chain_terms_once(monkeypatch):
    # The policy's Jacobian and the data information both walk the streamed
    # derivatives; the second walk reuses the first one's chain terms.
    calls = []
    chain_terms = geometry._chain_terms
    monkeypatch.setattr(geometry, "_chain_terms", lambda *a: calls.append(1) or chain_terms(*a))
    cfg = load_config(DESK)
    assert len(_crb(cfg, "svd_pe", 5)) == len(calls) == 5


def test_derivative_matrices_are_distinct_and_survive_crb_steps():
    cfg = load_config(FULL)
    pose = cfg.initial_state.pose
    derivs = channel_derivatives(pose, cfg.array)
    arrays = derivative_matrices(derivs)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    kept = _bytes(arrays)
    for token in ("svd_pe", "qom"):
        _crb(cfg, token, 3)
    assert _bytes(arrays) == kept
    assert _bytes(derivative_matrices(channel_derivatives(pose, cfg.array))) == kept


def _crb(cfg, token, steps, wait=lambda: None):
    """The covariances of steps CRB steps under policy token; wait() runs
    between each step's policy and its data information."""
    policy = crb_policy(cfg, token)

    def paused(pose, derivs):
        combiner = policy(pose, derivs)
        wait()
        return combiner

    bound, covs = Belief(cfg.initial_state, cfg.initial_cov), []
    for _ in range(steps):
        bound = bayesian_fim_step(bound, cfg.array, cfg.noise, cfg.p_m_watts,
                                  cfg.noise_power_watts, paused)
        covs.append(bound.cov.tobytes())
    return covs


def test_two_threads_running_crb_steps_on_one_shape_match_serial_results():
    # svd_pe walks the streamed derivatives twice per step, qom once.  Each
    # thread stops between its policy and its data information until the
    # other has run its own kernels on the same shape.
    cfg = replace(load_config(DESK), k_steps=8)
    serial = {token: _crb(cfg, token, cfg.k_steps) for token in ("svd_pe", "qom")}
    barrier = threading.Barrier(2, timeout=60)
    got, workers = {}, []
    for token in serial:
        def run(token=token):
            got[token] = _crb(cfg, token, cfg.k_steps, barrier.wait)
        workers.append(threading.Thread(target=run))
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert not any(w.is_alive() for w in workers)
    assert got == serial


def test_no_library_path_materialises_derivative_matrices(monkeypatch, tmp_path):
    # Every derivative matrix a command builds is written into its thread's
    # scratch grids, never into an array of its own.
    built = []
    derivative = geometry._derivative

    def in_scratch(out, *args):
        built.append(any(np.shares_memory(out, g) for g in geometry._local.grids))
        return derivative(out, *args)

    monkeypatch.setattr(geometry, "_derivative", in_scratch)
    common = ["--config", str(DESK), "--out", str(tmp_path / "o.csv")]
    runs = [["crb", *common, "--steps", "3", "--policy", p] for p in CRB_POLICIES]
    runs += [["fisher", *common, "--sweep", s] for s in ("nb:16:101:3", "nm:1:25:3")]
    runs.append(["track", *common, "--trials", "1", "--steps", "3"])
    assert [cli_main(argv) for argv in runs] == [0] * len(runs)
    assert built and all(built)


def _in_fresh_thread(fn):
    """fn() in a new thread, whose scratch grids start empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def test_interleaved_shapes_match_fresh_calls():
    a, b = _case(101, 25, 1), _case(16, 1, 2)
    fresh = {id(c): _in_fresh_thread(lambda c=c: _bytes(_kernels(*c))) for c in (a, b)}
    for case in (a, b, a, a, b):
        assert _bytes(_kernels(*case)) == fresh[id(case)]


def test_public_results_survive_later_kernel_calls():
    pose, cfg, x, r_ref, a_ref = _case(33, 9, 3)
    other = Pose(pose.x + 0.5, pose.y - 0.25, pose.psi + 0.3)
    grid = channel_grid(pose, cfg)
    matrices = derivative_matrices(channel_derivatives(pose, cfg))
    response = pilot_response(pose, cfg, x)
    kept = _bytes([*grid, *matrices, *response])
    _kernels(other, cfg, x, r_ref, a_ref)
    derivative_matrices(channel_derivatives(other, cfg))
    assert _bytes([*grid, *matrices, *response]) == kept


def test_two_threads_on_one_shape_match_serial_results():
    cases = [_case(64, 16, seed) for seed in range(4)]
    serial = [_bytes(_kernels(*c)) for c in cases]
    mismatches, done = [], []

    def run(order):
        for _ in range(25):
            for i in order:
                if _bytes(_kernels(*cases[i])) != serial[i]:
                    mismatches.append(i)
        done.append(order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(order,)) for order in ([0, 1], [2, 3])]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(done) == 2 and mismatches == []


def _traced_peak(fn) -> int:
    """Peak traced bytes above the start while fn() runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_warm_tracking_kernels_allocate_less_than_one_grid():
    # A tracking step's pilot response and NMSE term at full scale, once
    # their scratch grids exist, allocate less than one complex grid.
    pose, cfg, x, r_ref, a_ref = _case(275, 75, 4)

    def step():
        pilot_response(pose, cfg, x)
        channel_error_sq(pose, cfg, r_ref, a_ref)

    step()
    assert _traced_peak(step) < COMPLEX_GRID_275X75


def test_warm_fd_gram_allocates_less_than_one_real_grid():
    # The Gram writes two scratch grids and allocates only rows of n_b or n_m.
    pose, cfg, *_ = _case(275, 75, 5)
    channel_derivatives(pose, cfg).gram
    assert _traced_peak(lambda: channel_derivatives(pose, cfg).gram) < 275 * 75 * 8


def test_fd_combiner_holds_no_dense_identity():
    # A dense complex identity at 2048 antennas is 67 MB.
    assert _traced_peak(lambda: combiner_fd(ArrayConfig(2048, 25, F28))) < 5e6


def test_fd_fisher_point_at_2048_antennas_stays_small(tmp_path):
    argv = ["fisher", "--config", str(DESK), "--out", str(tmp_path / "f.csv"),
            "--sweep", "nb:2048:2048:1"]
    codes = []
    assert _traced_peak(lambda: codes.append(cli_main(argv))) < 5e6
    assert codes == [0]


@pytest.mark.parametrize("token", ["svd_pe", "qom"])
def test_warm_compressed_crb_step_allocates_less_than_one_grid(token):
    # The step streams J_x, J_y and J_psi through one scratch grid instead of
    # materialising three.
    cfg = load_config(FULL)
    policy = crb_policy(cfg, token)
    bound = Belief(cfg.initial_state, cfg.initial_cov)

    def step():
        nonlocal bound
        bound = bayesian_fim_step(bound, cfg.array, cfg.noise, cfg.p_m_watts,
                                  cfg.noise_power_watts, policy)

    step()
    assert _traced_peak(step) < COMPLEX_GRID_275X75


def test_full_scale_trial_holds_one_truth_set():
    # A truth set is the true distance grid, its amplitudes and the true
    # channel: 660 KB at 275 x 75.  A trial keeps one for all its steps.
    cfg = replace(load_config(FULL), k_steps=4)
    truth_set = 275 * 75 * (8 + 8 + 16)
    specs = [parse_scheme("fd", cfg.combiner.n_rf, cfg.array.n_b)]
    run_trial(cfg, 0, specs)
    assert _traced_peak(lambda: run_trial(cfg, 0, specs)) < 2 * truth_set


def test_warm_scheme_split_campaign_holds_one_truth_set_and_one_scratch_set(monkeypatch):
    # Split over two threads, a campaign adds one scratch set, the helper
    # thread's: 1.5 MB of grids at 275 x 75, freed when the helper ends.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = replace(load_config(FULL), k_steps=4, n_trials=1)
    truth_set = 275 * 75 * (8 + 8 + 16)
    scratch_set = 275 * 75 * (5 * 8 + 2 * 16)
    specs = [parse_scheme(tok, cfg.combiner.n_rf, cfg.array.n_b) for tok in ("fd", "svd_pe")]
    run_campaign(cfg, specs)
    assert _traced_peak(lambda: run_campaign(cfg, specs)) < 2 * truth_set + scratch_set
