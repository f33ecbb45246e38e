"""Property tests of the combiner rank screen, the pose-subspace MO objective,
the svd_pe tie order and the prediction-stage fallbacks on degenerate input."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor

from nftrack.combiners import (
    CombinerSpec,
    PredictionBuilder,
    _PoseObjective,
    _fix_singular_vector_signs,
    combiner_mo,
    combiner_qom,
    combiner_random,
    combiner_svd_pe,
)
from nftrack.dynamics import MsState, ProcessNoiseSpec
from nftrack.errors import (
    DegenerateGeometry,
    DegenerateJacobian,
    RankDeficientCombiner,
    SingularPriorCovariance,
)
from nftrack.estimation import _RANK_RTOL, Belief, Combiner, _rank_gate, ekf_predict, psd_inverse
from nftrack.geometry import ArrayConfig, Pose
from nftrack.harness import ScenarioConfig
from nftrack.observation import generate_pilot, observation_jacobian
from nftrack.rng import stream

F28 = 28e9
SIGMA2 = 1e-10
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
PRIOR = Belief(MsState(15, -15, 3 * np.pi / 8, 10, 0.1),
               np.diag([0.05**2, 0.05**2, 0.001**2, 1.0, 1e-4]))
PRIOR_INFO = psd_inverse(PRIOR.cov)


@lru_cache(maxsize=None)
def _jacobian(n_b: int, n_m: int = 9, pose: Pose = Pose(15, -15, 3 * np.pi / 8)):
    cfg = ArrayConfig(n_b=n_b, n_m=n_m, carrier_freq=F28)
    pilot = generate_pilot(np.random.default_rng(0), 0.01, cfg.n_m)
    return observation_jacobian(pose, cfg, pilot)


# ----------------------------------------------------------- rank screen


@st.composite
def near_dependent_rows(draw):
    """Unit-modulus n_rf x n_b rows whose last row is an earlier one rotated
    by phases of size gap (n_rf = 1 has no earlier row and keeps full rank).
    Gaps up to 1e-6 sit at or under the gate; 1e-3 and 1 are clear of it."""
    n_b = draw(st.sampled_from([16, 33, 101]))
    n_rf = draw(st.sampled_from(range(1, 7)))
    gap = draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-6, 1e-3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.exp(2j * np.pi * rng.random((n_rf, n_b)))
    if n_rf > 1:
        src = draw(st.integers(0, n_rf - 2))
        q[-1] = q[src] * np.exp(1j * gap * rng.standard_normal(n_b))
    return q


def _gate_fires(q: np.ndarray) -> bool:
    svals = np.linalg.svd(q, compute_uv=False)
    return bool(svals[-1] <= _RANK_RTOL * svals[0])


def _outcome(fn, *args):
    """The exception type fn raises, or the bytes of its first result."""
    try:
        out = fn(*args)
    except (RankDeficientCombiner, np.linalg.LinAlgError, ValueError) as exc:
        return type(exc)
    return (out[0] if isinstance(out, tuple) else out).tobytes()


def _reference_gram(q):
    """Gate first, then scipy's factor: the order before the factor screen."""
    if _gate_fires(q):
        raise RankDeficientCombiner("gate")
    return cho_factor(q @ q.conj().T, lower=True)[0]


def _reference_mo_objective(q, prior_info, b, noise_power):
    """The MO objective in its dense form, (P^-1 + F)^-1, with the
    eigenvalue/SVD gate run before the Cholesky."""
    gram = q @ q.conj().swapaxes(-1, -2)
    _rank_gate(q, gram)
    l_inv = np.linalg.inv(np.linalg.cholesky(gram))
    v = l_inv @ (q @ b)
    info = prior_info + (2.0 / noise_power) * np.real(v.conj().swapaxes(-1, -2) @ v)
    post = np.linalg.inv(0.5 * (info + info.swapaxes(-1, -2)))
    return (np.trace(post, axis1=-2, axis2=-1),)


@PROPERTY
@given(near_dependent_rows())
def test_gram_screen_raises_exactly_when_the_gate_fires(q):
    got = _outcome(lambda: Combiner(q, unit_modulus=True)._gram())
    assert (got is RankDeficientCombiner) == _gate_fires(q)
    assert got == _outcome(_reference_gram, q)


@PROPERTY
@given(near_dependent_rows())
def test_mo_objective_screen_raises_exactly_when_the_gate_fires(q):
    b = _jacobian(q.shape[1])
    objective = _PoseObjective(PRIOR, b, SIGMA2)
    got = _outcome(objective, q)
    assert (got is RankDeficientCombiner) == _gate_fires(q)
    ref = _outcome(_reference_mo_objective, q, PRIOR_INFO, b, SIGMA2)
    if isinstance(got, bytes):
        assert isinstance(ref, bytes)
        assert np.frombuffer(got)[0] == pytest.approx(np.frombuffer(ref)[0], rel=1e-9)
    else:
        assert got is ref
    # In a stack behind a full-rank combiner the same combiner decides.
    good = np.exp(2j * np.pi * np.random.default_rng(1).random(q.shape))
    stacked = _outcome(objective, np.stack([good, q]))
    assert (stacked is RankDeficientCombiner) == _gate_fires(q)


# --------------------------------------------- pose-subspace MO objective


def _predicted_prior(log_sd=(-1.3, -1.3, -3.0, 0.0, -2.0)):
    """A prior from ekf_predict: its pose and velocity blocks are correlated."""
    post = Belief(MsState(15, -15, 3 * np.pi / 8, 10, 0.1), np.diag(10.0 ** (2 * np.array(log_sd))))
    return ekf_predict(post, ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02))


def _dense_posterior(q, prior, b, noise_power):
    """(P^-1 + E F E^T)^-1 by two dense 5 x 5 inverses."""
    w = q @ b[:, :3]
    info = np.linalg.inv(prior.cov)
    info[:3, :3] += (2.0 / noise_power) * np.real(w.conj().T @ np.linalg.solve(q @ q.conj().T, w))
    return np.linalg.inv(info)


@PROPERTY
@given(
    st.sampled_from([16, 17, 32, 33]),
    st.integers(1, 6),
    st.floats(-10.0, -6.0),
    st.lists(st.floats(-3.0, 0.5), min_size=5, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_pose_objective_matches_dense_posterior(n_b, n_rf, log_sigma2, log_sd, seed):
    # The dense reference inverts J = P^-1 + E F E^T, whose condition number
    # stays under about 1e7 here, so it carries up to ~1e-9 relative error.
    prior = _predicted_prior(log_sd)
    b = _jacobian(n_b)
    q = np.exp(2j * np.pi * np.random.default_rng(seed).random((n_rf, n_b)))
    trace, s3, _ = _PoseObjective(prior, b, 10.0**log_sigma2)(q)
    dense = _dense_posterior(q, prior, b, 10.0**log_sigma2)
    assert trace == pytest.approx(np.trace(dense), rel=1e-9)
    np.testing.assert_allclose(s3, dense[:, :3], rtol=0, atol=1e-9 * np.abs(dense).max())


@pytest.mark.parametrize("noise_power", [1e-10, 1e-8])
@pytest.mark.parametrize("n_rf", [1, 3])
def test_pose_objective_gradient_matches_finite_differences(n_rf, noise_power):
    # Central differences along random complex directions; at h = 1e-5 their
    # error is under 1e-6 relative on these inputs.
    objective = _PoseObjective(_predicted_prior(), _jacobian(33), noise_power)
    rng = np.random.default_rng(5)
    q = combiner_random(rng, n_rf, 33).q
    _, s3, y = objective(q)
    grad = objective.grad(q, s3, y)
    h = 1e-5
    for _ in range(5):
        d = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
        fd = (objective(q + h * d)[0] - objective(q - h * d)[0]) / (2 * h)
        assert fd == pytest.approx(np.real(np.vdot(grad, d)), rel=1e-4)


def test_pose_objective_failures():
    prior, b = _predicted_prior(), _jacobian(33)
    init = combiner_random(np.random.default_rng(0), 3, 33)
    # 2 / 1e-320 overflows: the information is not finite.
    with pytest.raises(SingularPriorCovariance):
        combiner_mo(init, prior, b, 1e-320)
    b_nan = b.copy()
    b_nan[4, 0] = np.nan
    with pytest.raises(ValueError):
        _PoseObjective(prior, b_nan, SIGMA2)(init.q)


def test_mo_builds_one_stack_per_iteration_when_every_probe_is_accepted(monkeypatch):
    # The initial combiner, then one stack of the probe and its ten doublings
    # per iteration; a stack of ten halvings would mean a rejected probe.
    sizes = []
    real = _PoseObjective.__call__

    def counting(self, q):
        sizes.append(q.shape[0] if q.ndim == 3 else 1)
        return real(self, q)

    monkeypatch.setattr(_PoseObjective, "__call__", counting)
    prior, b, iters = _predicted_prior(), _jacobian(33), 5
    for seed in range(10):
        sizes.clear()
        init = combiner_random(np.random.default_rng(seed), 3, 33)
        _, info = combiner_mo(init, prior, b, SIGMA2, iters)
        assert info.improved
        assert sizes[0] == 1 and set(sizes[1:]) == {11}
        assert len(sizes) <= iters + 1


# ------------------------------------------------------- svd_pe tie order


def _reference_svd_pe(b_pred, n_rf):
    """combiner_svd_pe with the full lexicographic sort on every call."""
    u, s, _ = np.linalg.svd(np.asarray(b_pred)[:, :3], full_matrices=False)
    u = _fix_singular_vector_signs(u)

    def _lex_key(i):
        col = u[:, i]
        return (-round(float(s[i]), 12), tuple(np.round(col.real, 12)), tuple(np.round(col.imag, 12)))

    u = u[:, sorted(range(len(s)), key=_lex_key)]
    return np.exp(1j * np.angle(u[:, : min(n_rf, 3)].conj().T))


@PROPERTY
@given(
    st.sampled_from([(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (2.0, 2.0, 1.0), (3.0, 2.0, 1.0)]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_svd_pe_tie_order_matches_full_sort(svals, n_rf, seed):
    rng = np.random.default_rng(seed)
    n_b = 33
    u, _ = np.linalg.qr(rng.standard_normal((n_b, 3)) + 1j * rng.standard_normal((n_b, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = np.zeros((n_b, 5), dtype=complex)
    b[:, :3] = (u * np.array(svals)) @ v.conj().T
    rounded = [round(float(x), 12) for x in np.linalg.svd(b[:, :3], compute_uv=False)]
    assert len(set(rounded)) == len(set(svals))  # the ties survive the SVD
    got = combiner_svd_pe(b, n_rf).q
    assert got.tobytes() == _reference_svd_pe(b, n_rf).tobytes()


# ------------------------------------------------------------- fallbacks


def _builder(kind, n_rf, pose=Pose(15, -15, 3 * np.pi / 8), seed=11):
    cfg = ScenarioConfig(
        array=ArrayConfig(n_b=33, n_m=9, carrier_freq=F28),
        initial_state=MsState(pose.x, pose.y, pose.psi, 10, 0.1),
        initial_cov=np.diag([0.05**2, 0.05**2, 0.001**2, 1.0, 1e-4]),
        noise=ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02),
        p_m_dbm=10.0,
        noise_power_dbm=-70.0,
        k_steps=3,
        n_trials=1,
        combiner=CombinerSpec(kind=kind, n_rf=n_rf),
        seed=seed,
    )
    builder = PredictionBuilder(cfg.combiner, cfg.array, cfg.seed, 0, cfg.noise_power_watts)
    return builder, cfg


def _build(builder, k, pose, b):
    return builder.build(k, pose, lambda: b, None)


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 1000))
def test_svd_pe_falls_back_on_zero_jacobian(n_rf, seed):
    builder, cfg = _builder("svd_pe", n_rf, seed=seed)
    pose = cfg.initial_state.pose
    zero = np.zeros((cfg.array.n_b, 5), dtype=complex)
    with pytest.raises(DegenerateJacobian):
        combiner_svd_pe(zero, n_rf)

    # First step: the trial's random combiner, drawn from its "combiner" stream.
    first = _build(builder, 1, pose, zero)
    rand = combiner_random(stream(seed, 0, 0, "combiner"), n_rf, cfg.array.n_b)
    assert first.q.tobytes() == rand.q.tobytes()
    assert builder.fallback_steps == [1]

    b = _jacobian(cfg.array.n_b)
    second = _build(builder, 2, pose, b)
    assert second.q.tobytes() == combiner_svd_pe(b, n_rf).q.tobytes()
    # Later steps: the previous step's combiner.
    assert _build(builder, 3, pose, zero) is second
    assert builder.fallback_steps == [1, 3]


@st.composite
def degenerate_pose(draw):
    """A pose with zero effective aperture: the MS on the BS array axis
    (x = 0, theta = +-pi/2), or the MS array along the line of sight
    (psi = theta or theta + pi)."""
    r = draw(st.floats(2.0, 30.0))
    if draw(st.booleans()):
        y = r if draw(st.booleans()) else -r
        return Pose(0.0, y, draw(st.floats(-np.pi, np.pi)))
    theta = draw(st.floats(-1.3, 1.3))
    pose = Pose(r * np.cos(theta), r * np.sin(theta), 0.0)
    return Pose(pose.x, pose.y, pose.theta + draw(st.sampled_from([0.0, np.pi])))


@PROPERTY
@given(degenerate_pose(), st.integers(1, 3))
def test_qom_falls_back_on_degenerate_pose(pose, n_rf):
    builder, cfg = _builder("qom", n_rf)
    with pytest.raises(DegenerateGeometry):
        combiner_qom(pose, cfg.array, n_rf)
    b = _jacobian(cfg.array.n_b, pose=pose)

    # First step: the phase-extracted SVD combiner of the same Jacobian.
    first = _build(builder, 1, pose, b)
    assert first.q.tobytes() == combiner_svd_pe(b, n_rf).q.tobytes()
    assert builder.fallback_steps == [1]

    good = cfg.initial_state.pose
    second = _build(builder, 2, good, _jacobian(cfg.array.n_b))
    assert second.q.tobytes() == combiner_qom(good, cfg.array, n_rf).q.tobytes()
    # Later steps: the previous step's combiner.
    assert _build(builder, 3, pose, b) is second
    assert builder.fallback_steps == [1, 3]


@PROPERTY
@given(degenerate_pose(), st.integers(1, 3), st.integers(0, 1000))
def test_qom_then_svd_pe_fallback_records_the_step_once(pose, n_rf, seed):
    # Degenerate qom geometry and a zero Jacobian for its svd_pe fallback:
    # both builders fall back at step 1, which is recorded once.
    builder, cfg = _builder("qom", n_rf, seed=seed)
    zero = np.zeros((cfg.array.n_b, 5), dtype=complex)
    first = _build(builder, 1, pose, zero)
    rand = combiner_random(stream(seed, 0, 0, "combiner"), n_rf, cfg.array.n_b)
    assert first.q.tobytes() == rand.q.tobytes()
    assert builder.fallback_steps == [1]
    assert _build(builder, 2, pose, zero) is first
    assert builder.fallback_steps == [1, 2]
