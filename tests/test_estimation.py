"""Information-form EKF: Gram solves, score, FIM, predict and update."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

import nftrack.estimation as estimation
from nftrack.combiners import combiner_fd, combiner_qom, combiner_random, combiner_svd_pe
from nftrack.dynamics import MsState, ProcessNoiseSpec, ctrv_jacobian, ctrv_transition
from nftrack.errors import RankDeficientCombiner, SingularPriorCovariance
from nftrack.estimation import (
    Belief,
    Combiner,
    _cho_factor,
    _factor_screen,
    _potrs,
    ekf_predict,
    ekf_update,
    fim,
    psd_inverse,
    score,
)
from nftrack.geometry import ArrayConfig, Pose, channel_matrix, pilot_response
from nftrack.observation import full_snapshot, generate_pilot

from reference import dft_matrix, random_phases

F28 = 28e9


def cfg_small():
    return ArrayConfig(n_b=17, n_m=5, carrier_freq=F28)


def make_b_and_pred(cfg, pose, pilot):
    b = pilot_response(pose, cfg, pilot)[1]
    pred = channel_matrix(pose, cfg) @ pilot
    return b, pred


def gram_projection(q: Combiner) -> np.ndarray:
    """The row-space projection Q^H (Q Q^H)^-1 Q through the Gram solve."""
    return q.q.conj().T @ q.solve_gram(q.q)


# ---------------------------------------------------------------- Gram solve


def test_projection_identity():
    # fd's Q = I holds no matrix, so the projection is taken of the DFT
    # matrix F, whose F F^H = 17 I makes P_Q = I too.
    assert combiner_fd(cfg_small()).q is None
    q = Combiner(dft_matrix(17))
    np.testing.assert_allclose(gram_projection(q), np.eye(17), atol=1e-12)


def test_projection_single_ones_row():
    n = 12
    q = Combiner(np.ones((1, n), dtype=complex))
    np.testing.assert_allclose(gram_projection(q), np.full((n, n), 1 / n), atol=1e-12)
    cfg = ArrayConfig(n_b=n, n_m=5, carrier_freq=F28)
    pilot = generate_pilot(np.random.default_rng(26), 0.01, cfg.n_m)
    b, _ = make_b_and_pred(cfg, Pose(9, 2, 0.1), pilot)
    s = b.sum(axis=0)  # n_rf = 1: F = (2/sigma^2) Re(s^H s) / n for s = 1^T B
    f_ref = (2 / 1e-10) * np.real(np.outer(s.conj(), s)) / n
    np.testing.assert_allclose(
        fim(b, q, 1e-10), f_ref, rtol=1e-10, atol=1e-12 * np.abs(f_ref).max()
    )


def test_projection_laws_random_sign_combiner():
    rng = np.random.default_rng(0)
    q = combiner_random(rng, 3, 32)
    p = gram_projection(q)
    np.testing.assert_allclose(p @ p, p, atol=1e-9)
    np.testing.assert_allclose(p.conj().T, p, atol=1e-9)
    assert np.real(np.trace(p)) == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(p, np.linalg.pinv(q.q) @ q.q, atol=1e-12)


def test_rank_gate():
    q = np.ones((2, 8), dtype=complex)  # duplicated rows
    comb = Combiner(q)
    with pytest.raises(RankDeficientCombiner):
        comb.solve_gram(np.ones(2))


def _sign_rows(n_rf):
    """+-1 rows of 101 columns: G is near 101 I."""
    return np.random.default_rng(n_rf).choice([-1.0, 1.0], size=(n_rf, 101)).astype(complex)


def _dft_rows(n_rf):
    """Orthogonal DFT rows of 275 columns: G = 275 I, where a
    det G / (tr G)^n form would underflow to 0."""
    return np.exp(-2j * np.pi * np.outer(np.arange(n_rf), np.arange(275)) / 275)


@pytest.mark.parametrize(
    "rows, n_rf",
    [(_sign_rows, n) for n in (1, 3, 11, 12, 20)] + [(_dft_rows, n) for n in (100, 274)],
)
def test_factor_screen_vouches_for_well_conditioned_combiners(rows, n_rf):
    # Far above the rank gate at every size, so the screen spares the
    # eigenvalue gate.
    q = rows(n_rf)
    gram = q @ q.conj().T
    assert _factor_screen(_cho_factor(gram), gram)


@pytest.mark.parametrize(
    "modulus, accepted", [(1 + 1e-10, True), (1 - 1e-10, True), (1 + 0.9e-9, True),
                          (1 - 0.9e-9, True), (1 + 1.5e-9, False), (1 - 1.5e-9, False),
                          (1 + 1e-6, False), (1 - 1e-6, False), (np.nan, False)],
)
def test_unit_modulus_check_tolerance(modulus, accepted):
    q = np.exp(2j * np.pi * np.random.default_rng(3).random((2, 8)))
    q[1, 3] *= modulus
    if accepted:
        Combiner(q)
    else:
        with pytest.raises(ValueError):
            Combiner(q)


@pytest.mark.parametrize("others_on_circle", [False, True])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_combiner_rejects_non_finite_entries(bad, others_on_circle):
    # The constructor reports it as non-finite, whether or not the other
    # entries pass the unit-modulus check, before a Gram product can warn
    # (inf) or the rank gate's SVD fail to converge (NaN).
    with pytest.raises(ValueError, match="infs or NaNs"):
        Combiner(np.array([[bad, 1], [1j if others_on_circle else 0, 1]]))


# ---------------------------------------------------------------------- score


def test_score_zero_residual():
    cfg = cfg_small()
    pilot = generate_pilot(np.random.default_rng(1), 0.01, cfg.n_m)
    pose = Pose(10, -4, 0.2)
    b, pred = make_b_and_pred(cfg, pose, pilot)
    q = combiner_fd(cfg)
    z = q.apply(pred)
    g = score(z, q, b, pred, 1e-10)
    np.testing.assert_allclose(g, 0.0, atol=1e-6)
    assert g[3] == 0.0 and g[4] == 0.0


def test_score_velocity_components_always_zero():
    cfg = cfg_small()
    pilot = generate_pilot(np.random.default_rng(2), 0.01, cfg.n_m)
    pose = Pose(8, 6, -0.5)
    b, pred = make_b_and_pred(cfg, pose, pilot)
    q = combiner_random(np.random.default_rng(3), 3, cfg.n_b)
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = q.apply(full_snapshot(channel_matrix(pose, cfg), pilot, 1e-10, rng))
        g = score(z, q, b, pred, 1e-10)
        assert g[3] == 0.0 and g[4] == 0.0


def test_score_zero_mean_at_truth():
    cfg = cfg_small()
    sigma2 = 1e-10
    pilot = generate_pilot(np.random.default_rng(5), 0.01, cfg.n_m)
    pose = Pose(12, -7, 0.9)
    b, pred = make_b_and_pred(cfg, pose, pilot)
    h = channel_matrix(pose, cfg)
    q = combiner_random(np.random.default_rng(6), 3, cfg.n_b)
    rng = np.random.default_rng(7)
    n_draws = 10_000
    samples = np.zeros((n_draws, 5))
    for i in range(n_draws):
        z = q.apply(full_snapshot(h, pilot, sigma2, rng))
        samples[i] = score(z, q, b, pred, sigma2)
    f = fim(b, q, sigma2)
    std_err = np.sqrt(np.diag(f) / n_draws)
    for j in range(3):
        assert abs(samples[:, j].mean()) < 4 * std_err[j]


# ----------------------------------------------------------------------- FIM


def test_fim_identity_combiner_form():
    cfg = cfg_small()
    pilot = generate_pilot(np.random.default_rng(8), 0.01, cfg.n_m)
    b, _ = make_b_and_pred(cfg, Pose(9, 2, 0.1), pilot)
    sigma2 = 2e-10
    f = fim(b, combiner_fd(cfg), sigma2)
    np.testing.assert_allclose(f, 2 / sigma2 * np.real(b.conj().T @ b), rtol=1e-10)
    np.testing.assert_array_equal(f[3:, :], 0.0)
    assert np.all(np.linalg.eigvalsh(f) > -1e-6 * np.trace(f))


def test_fim_matches_score_covariance():
    cfg = cfg_small()
    sigma2 = 1e-10
    pilot = generate_pilot(np.random.default_rng(9), 0.01, cfg.n_m)
    pose = Pose(11, -11, 1.1)
    b, pred = make_b_and_pred(cfg, pose, pilot)
    h = channel_matrix(pose, cfg)
    q = combiner_random(np.random.default_rng(10), 3, cfg.n_b)
    f = fim(b, q, sigma2)

    # vectorized score sampling: g = Re{ U n } for the noise-only residual
    u = (2 / sigma2) * (q.solve_gram(q.q @ b)).conj().T @ q.q  # 5 x n_b
    rng = np.random.default_rng(11)
    n_draws = 100_000
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((n_draws, cfg.n_b)) + 1j * rng.standard_normal((n_draws, cfg.n_b))
    )
    g = np.real(noise @ u.T)
    emp = g.T @ g / n_draws
    sig = np.abs(f) > 1e-6 * np.trace(f)
    np.testing.assert_allclose(emp[sig], f[sig], rtol=0.05)


def test_fim_monotone_under_row_extension():
    cfg = cfg_small()
    pilot = generate_pilot(np.random.default_rng(12), 0.01, cfg.n_m)
    b, _ = make_b_and_pred(cfg, Pose(14, 3, -0.3), pilot)
    rng = np.random.default_rng(13)
    for _ in range(50):
        q1_rows = random_phases(rng, (2, cfg.n_b))
        extra = random_phases(rng, (1, cfg.n_b))
        q1 = Combiner(q1_rows)
        q2 = Combiner(np.vstack([q1_rows, extra]))
        assert np.trace(fim(b, q2, 1e-10)) >= np.trace(fim(b, q1, 1e-10)) - 1e-8


def test_fd_fim_dominates_any_combiner():
    cfg = cfg_small()
    pilot = generate_pilot(np.random.default_rng(14), 0.01, cfg.n_m)
    b, _ = make_b_and_pred(cfg, Pose(13, -2, 0.7), pilot)
    sigma2 = 1e-10
    t_fd = np.trace(fim(b, combiner_fd(cfg), sigma2))
    rng = np.random.default_rng(15)
    for _ in range(20):
        q = Combiner(random_phases(rng, (3, cfg.n_b)))
        assert np.trace(fim(b, q, sigma2)) <= t_fd * (1 + 1e-12)


# ----------------------------------------------------------------- EKF steps


def test_psd_inverse_roundtrip():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((5, 5))
    m = a @ a.T + np.eye(5)
    inv = psd_inverse(m)
    np.testing.assert_allclose(inv @ m, np.eye(5), atol=1e-10)


# ------------------------------------------------- direct LAPACK Cholesky


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _spd(rng, n, dtype):
    a = rng.standard_normal((n, n))
    if dtype == complex:
        a = a + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + 0.1 * np.eye(n)


@pytest.mark.parametrize(
    "n, dtype", [(5, float)] + [(n, complex) for n in range(1, 9)],
)
def test_cholesky_helpers_match_scipy_bytes(n, dtype):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = _spd(rng, n, dtype)
        c_ref, lower = cho_factor(a, lower=True)
        c = _cho_factor(a)
        _assert_same_bytes(c, c_ref)
        for rhs_shape in ((n,), (n, 1), (n, 6)):
            rhs = rng.standard_normal(rhs_shape) + (1j * rng.standard_normal(rhs_shape)
                                                    if dtype == complex else 0.0)
            _assert_same_bytes(_potrs(c, rhs), cho_solve((c_ref, lower), rhs))
        eye = np.eye(n)
        _assert_same_bytes(_potrs(c, eye), cho_solve((c_ref, lower), eye))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cholesky_helpers_reject_non_finite(bad):
    a_bad, rhs_bad = _spd(np.random.default_rng(4), 5, float), np.ones(5)
    a_bad[2, 1] = bad
    rhs_bad[3] = bad
    with pytest.raises(ValueError):
        _cho_factor(a_bad)
    # The Gram solve trusts its own factor, never a right-hand side.
    q = np.exp(2j * np.pi * np.random.default_rng(5).random((5, 16)))
    with pytest.raises(ValueError):
        Combiner(q).solve_gram(rhs_bad)


@pytest.mark.parametrize("dtype", [float, complex])
def test_cholesky_factor_rejects_non_positive_definite(dtype):
    a = _spd(np.random.default_rng(5), 4, dtype)
    a[2, 2] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        _cho_factor(a)
    with pytest.raises(np.linalg.LinAlgError):
        _cho_factor(-np.eye(3, dtype=dtype))


# Runs in a fresh interpreter, with scipy.linalg imported before nftrack.
_SCIPY_FIRST = """
import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs
from nftrack.estimation import _POTRF, _POTRS, _cho_factor, _potrs

for t in (float, complex):
    assert _POTRF[np.dtype(t)] is get_lapack_funcs(("potrf",), dtype=t)[0]
    assert _POTRS[np.dtype(t)] is get_lapack_funcs(("potrs",), dtype=t)[0]
rng = np.random.default_rng(7)
for t in (float, complex):
    a = rng.standard_normal((5, 5)) + (1j * rng.standard_normal((5, 5)) if t is complex else 0)
    a = a @ a.conj().T + 0.1 * np.eye(5)
    rhs = rng.standard_normal((5, 3))
    c, c_ref = _cho_factor(a), cho_factor(a, lower=True)[0]
    assert c.tobytes() == c_ref.tobytes()
    assert _potrs(c, rhs).tobytes() == cho_solve((c_ref, True), rhs).tobytes()
"""


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this process's nftrack."""
    src = str(Path(estimation.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_cholesky_helpers_match_scipy_bytes_when_scipy_linalg_comes_first():
    proc = _fresh_python(_SCIPY_FIRST)
    assert proc.returncode == 0, proc.stderr


def test_cold_start_imports_no_scipy_linalg_or_process_tools():
    heavy = ("scipy.linalg", "multiprocessing", "concurrent.futures", "numpy.f2py")
    proc = _fresh_python(
        f"import sys, nftrack, nftrack.cli; print([m for m in {heavy!r} if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "m", [np.full((5, 5), np.nan), -np.eye(5), np.zeros((5, 5))], ids=["nan", "minus-eye", "zero"]
)
def test_psd_inverse_singular_raises(m):
    with pytest.raises(SingularPriorCovariance):
        psd_inverse(m)


def test_psd_inverse_jitter_retry_matches_scipy_path():
    # Singular but PSD: the first factorization fails and the jittered one
    # succeeds, as it did through scipy's wrappers.
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 3))
    m = a @ a.T
    ms = 0.5 * (m + m.T)
    ms = ms + (1e-12 * np.trace(ms) / 5) * np.eye(5)
    ref = cho_solve(cho_factor(ms, lower=True), np.eye(5))
    _assert_same_bytes(psd_inverse(m), 0.5 * (ref + ref.T))


def test_belief_info_is_one_shared_inverse(monkeypatch):
    cov = np.diag([0.01, 0.01, 1e-4, 1.0, 1e-4])
    belief = Belief(MsState(10, -5, 0.4, 8, 0.05), cov)
    calls = []
    real = estimation.psd_inverse
    monkeypatch.setattr(estimation, "psd_inverse", lambda m: calls.append(1) or real(m))
    info = belief.info
    assert belief.info is info and len(calls) == 1
    _assert_same_bytes(info, real(cov))
    with pytest.raises(SingularPriorCovariance):
        _ = Belief(belief.mean, -np.eye(5)).info


def test_predict_stationary_state():
    spec = ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.5)
    cov0 = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    post = Belief(MsState(1, 2, 0.3, 0, 0), cov0)
    prior = ekf_predict(post, spec)
    a = ctrv_jacobian(post.mean, spec.tau)
    np.testing.assert_allclose(prior.cov, a @ cov0 @ a.T, atol=1e-12)
    np.testing.assert_allclose(prior.mean.as_vector(), post.mean.as_vector(), atol=1e-12)
    assert np.all(np.linalg.eigvalsh(prior.cov) >= -1e-12)


def test_predict_matches_hand_composition():
    # one step from the published initial condition
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    mean0 = MsState(15, -15, 3 * np.pi / 8, 10, 0.1)
    cov0 = np.diag([0.05**2, 0.05**2, 0.001**2, 10**2 / 100, 0.1**2 / 100])
    prior = ekf_predict(Belief(mean0, cov0), spec)
    a = ctrv_jacobian(mean0, spec.tau)
    np.testing.assert_allclose(prior.cov, a @ cov0 @ a.T + spec.covariance(), rtol=1e-12)
    np.testing.assert_allclose(
        prior.mean.as_vector(), ctrv_transition(mean0, spec.tau).as_vector(), rtol=1e-14
    )


def test_update_with_zero_pilot_keeps_prior():
    cfg = cfg_small()
    pilot = np.zeros(cfg.n_m, dtype=complex)
    prior = Belief(MsState(10, -5, 0.4, 8, 0.05), np.diag([0.01, 0.01, 1e-4, 1.0, 1e-4]))
    q = combiner_fd(cfg)
    h = channel_matrix(prior.mean.pose, cfg)
    z = q.apply(full_snapshot(h, pilot, 1e-10, np.random.default_rng(17)))
    b, pred = make_b_and_pred(cfg, prior.mean.pose, pilot)
    post = ekf_update(prior, z, q, b, pred, 1e-10)
    np.testing.assert_allclose(post.mean.as_vector(), prior.mean.as_vector(), atol=1e-12)
    np.testing.assert_allclose(post.cov, prior.cov, rtol=1e-9)


def test_update_information_dominance_small_noise():
    cfg = cfg_small()
    sigma2 = 1e-16
    pilot = generate_pilot(np.random.default_rng(18), 0.01, cfg.n_m)
    true_pose = Pose(10, -5, 0.4)
    prior = Belief(MsState(10, -5, 0.4, 8, 0.05), np.diag([0.01, 0.01, 1e-4, 1.0, 1e-4]))
    q = combiner_fd(cfg)
    h = channel_matrix(true_pose, cfg)
    z = q.apply(full_snapshot(h, pilot, sigma2, np.random.default_rng(19)))
    b, pred = make_b_and_pred(cfg, prior.mean.pose, pilot)
    post = ekf_update(prior, z, q, b, pred, sigma2)
    assert np.trace(post.cov[:3, :3]) < np.trace(prior.cov[:3, :3]) / 10


def test_update_loewner_order():
    cfg = cfg_small()
    sigma2 = 1e-10
    pilot = generate_pilot(np.random.default_rng(20), 0.01, cfg.n_m)
    prior = Belief(MsState(12, -9, 1.0, 9, 0.1), np.diag([0.01, 0.01, 1e-4, 1.0, 1e-4]))
    q = combiner_random(np.random.default_rng(21), 3, cfg.n_b)
    h = channel_matrix(prior.mean.pose, cfg)
    z = q.apply(full_snapshot(h, pilot, sigma2, np.random.default_rng(22)))
    b, pred = make_b_and_pred(cfg, prior.mean.pose, pilot)
    post = ekf_update(prior, z, q, b, pred, sigma2)
    assert np.all(np.linalg.eigvalsh(prior.cov - post.cov) >= -1e-10)


def test_update_against_scalar_reimplementation():
    # independent step-by-step evaluation with explicit pinv-based formulas
    cfg = cfg_small()
    sigma2 = 1e-10
    pilot = generate_pilot(np.random.default_rng(23), 0.01, cfg.n_m)
    true_pose = Pose(10.01, -5.02, 0.41)
    prior = Belief(MsState(10, -5, 0.4, 8, 0.05), np.diag([0.01, 0.01, 1e-4, 1.0, 1e-4]))
    q = combiner_random(np.random.default_rng(24), 3, cfg.n_b)
    h = channel_matrix(true_pose, cfg)
    z = q.apply(full_snapshot(h, pilot, sigma2, np.random.default_rng(25)))
    b, pred = make_b_and_pred(cfg, prior.mean.pose, pilot)
    post = ekf_update(prior, z, q, b, pred, sigma2)

    qm = q.q
    gram_inv = np.linalg.pinv(qm @ qm.conj().T)
    g_ref = (2 / sigma2) * np.real(b.conj().T @ qm.conj().T @ gram_inv @ (z - qm @ pred))
    p_q = qm.conj().T @ gram_inv @ qm
    f_ref = (2 / sigma2) * np.real(b.conj().T @ p_q @ b)
    p_post_ref = np.linalg.inv(np.linalg.inv(prior.cov) + f_ref)
    mean_ref = prior.mean.as_vector() + p_post_ref @ g_ref

    np.testing.assert_allclose(post.mean.as_vector(), mean_ref, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(post.cov, 0.5 * (p_post_ref + p_post_ref.T), rtol=1e-8)


# ------------------------------------------------------- exact symmetry, shared constants


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(["fd", "rand", "svd_pe", "qom"]), st.integers(0, 2**32 - 1))
def test_inverse_and_update_covariances_are_exactly_symmetric(token, seed):
    # ekf_update returns psd_inverse's output as is: re-symmetrizing it would
    # change no bit, because psd_inverse's result is already exactly symmetric.
    rng = np.random.default_rng(seed)
    cfg = cfg_small()
    dist, theta = rng.uniform(4.0, 30.0), rng.uniform(-1.2, 1.2)
    mean = MsState(dist * np.cos(theta), dist * np.sin(theta), rng.uniform(-np.pi, np.pi),
                   rng.uniform(0.0, 20.0), rng.uniform(-0.5, 0.5))
    a = rng.standard_normal((5, 5)) * 10.0 ** rng.uniform(-4.0, 0.0, size=5)[:, None]
    prior = Belief(mean, a @ a.T + 1e-12 * np.eye(5))
    sigma2 = 10.0 ** rng.uniform(-13.0, -8.0)
    pilot = generate_pilot(rng, 0.01, cfg.n_m)
    b, pred = make_b_and_pred(cfg, mean.pose, pilot)
    q = {
        "fd": lambda: combiner_fd(cfg),
        "rand": lambda: combiner_random(rng, 3, cfg.n_b),
        "svd_pe": lambda: combiner_svd_pe(b, 3),
        "qom": lambda: combiner_qom(mean.pose, cfg, 3),
    }[token]()
    true_pose = Pose(mean.x + rng.normal(0.0, 0.01), mean.y + rng.normal(0.0, 0.01), mean.psi)
    z = q.apply(full_snapshot(channel_matrix(true_pose, cfg), pilot, sigma2, rng))
    post = ekf_update(prior, z, q, b, pred, sigma2)
    for c in (psd_inverse(prior.cov), prior.info, post.cov):
        assert np.array_equal(c, c.T)
        assert np.array_equal(0.5 * (c + c.T), c)


def test_noise_covariance_and_identity_are_built_once_and_read_only():
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    assert spec.covariance() is spec.covariance()
    with pytest.raises(ValueError):
        spec.covariance()[3, 3] = 1.0
    eye = estimation._identity(5)
    assert eye is estimation._identity(5)
    np.testing.assert_array_equal(eye, np.eye(5))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
    assert psd_inverse(np.eye(5)).flags.writeable


def test_predicted_covariances_are_distinct_and_writable():
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    post = Belief(MsState(15, -15, 3 * np.pi / 8, 10, 0.1), np.diag([1e-4, 1e-4, 1e-6, 1.0, 1e-4]))
    first, second = ekf_predict(post, spec), ekf_predict(post, spec)
    assert first.cov is not second.cov and not np.shares_memory(first.cov, second.cov)
    assert not np.shares_memory(first.cov, spec.covariance())
    assert first.cov.flags.writeable and second.cov.flags.writeable
    before = second.cov.copy()
    first.cov[3, 3] += 1.0
    np.testing.assert_array_equal(second.cov, before)
    assert spec.covariance()[3, 3] == (0.02 * 2.0) ** 2
