"""CTRV propagation, Jacobian, and process-noise sampling."""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nftrack.dynamics import (
    _U_SERIES,
    MsState,
    ProcessNoiseSpec,
    ctrv_jacobian,
    ctrv_transition,
    sample_process_noise,
)


def test_straight_line_limit():
    out = ctrv_transition(MsState(0, 0, 0, 10, 0), 1.0)
    np.testing.assert_allclose(out.as_vector(), [10, 0, 0, 10, 0], atol=1e-12)


def test_quarter_circle():
    out = ctrv_transition(MsState(0, 0, 0, np.pi / 2, np.pi / 2), 1.0)
    np.testing.assert_allclose(
        out.as_vector(), [1, 1, np.pi / 2, np.pi / 2, np.pi / 2], atol=1e-12
    )


def test_transition_matches_closed_form():
    # independent scalar evaluation of the turning equations
    s = MsState(15, -15, 3 * np.pi / 8, 10, 0.1)
    tau = 0.02
    out = ctrv_transition(s, tau)
    x_exp = s.x + s.v / s.omega * (np.sin(s.psi + s.omega * tau) - np.sin(s.psi))
    y_exp = s.y + s.v / s.omega * (-np.cos(s.psi + s.omega * tau) + np.cos(s.psi))
    np.testing.assert_allclose(
        out.as_vector(),
        [x_exp, y_exp, s.psi + s.omega * tau, s.v, s.omega],
        rtol=1e-14,
    )


def test_small_omega_continuity():
    # tiny-turn-rate transitions approach the constant-velocity limit
    # (the residual is the true curvature term ~ v*tau^2*omega/2)
    tau = 0.02
    for sign in (+1, -1):
        s = MsState(15, -15, 0.9, 10, sign * 1e-7)
        cv = np.array(
            [15 + 10 * tau * np.cos(0.9), -15 + 10 * tau * np.sin(0.9), 0.9, 10, s.omega]
        )
        got = ctrv_transition(s, tau).as_vector()
        got[2] -= s.omega * tau  # CV limit keeps psi; remove the exact turn term
        assert np.linalg.norm(got - cv) < 1e-9


def test_flow_composition():
    # two half-steps equal one full step for constant v, omega
    s = MsState(3, -7, 0.5, 8, 0.4)
    tau = 0.7
    once = ctrv_transition(s, tau).as_vector()
    twice = ctrv_transition(ctrv_transition(s, tau / 2), tau / 2).as_vector()
    np.testing.assert_allclose(once, twice, atol=1e-10)


def test_jacobian_stationary_state():
    # v = omega = 0: identity apart from the heading/turn-rate coupling and
    # the speed column (d pos / d v = tau * heading direction)
    tau, psi = 0.5, 0.3
    jac = ctrv_jacobian(MsState(1, 2, psi, 0, 0), tau)
    expected = np.eye(5)
    expected[2, 4] = tau
    expected[0, 3] = tau * np.cos(psi)
    expected[1, 3] = tau * np.sin(psi)
    np.testing.assert_allclose(jac, expected, atol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    tau = 0.02
    for _ in range(100):
        vec = np.array(
            [
                rng.uniform(-30, 30),
                rng.uniform(-30, 30),
                rng.uniform(-np.pi, np.pi),
                rng.uniform(0.1, 20),
                rng.choice([-1, 1]) * rng.uniform(0.01, 1.0),
            ]
        )
        s = MsState.from_vector(vec)
        jac = ctrv_jacobian(s, tau)
        fd = np.zeros((5, 5))
        for j in range(5):
            dv = np.zeros(5)
            dv[j] = 1e-6
            fp = ctrv_transition(MsState.from_vector(vec + dv), tau).as_vector()
            fm = ctrv_transition(MsState.from_vector(vec - dv), tau).as_vector()
            fd[:, j] = (fp - fm) / 2e-6
        assert np.abs(jac - fd).max() / max(np.abs(jac).max(), 1.0) < 1e-5


def test_jacobian_continuity_at_switch():
    # across the series/direct switch of the u^-2-scaled helpers
    tau = 0.02
    for sign in (+1, -1):
        w_switch = sign * _U_SERIES / tau
        above = ctrv_jacobian(MsState(15, -15, 0.9, 10, w_switch * 1.0000001), tau)
        below = ctrv_jacobian(MsState(15, -15, 0.9, 10, w_switch * 0.9999999), tau)
        assert np.abs(above - below).max() < 1e-8
    # tiny turn rates agree entry-wise with the omega = 0 limit form
    tau = 0.02
    limit = ctrv_jacobian(MsState(15, -15, 0.9, 10, 0.0), tau)
    for sign in (+1, -1):
        near = ctrv_jacobian(MsState(15, -15, 0.9, 10, sign * 1e-6), tau)
        assert np.abs(near - limit).max() < 1e-8


@st.composite
def turn_rate_pair(draw):
    """A state and tau, and two turn rates omega_1, omega_2 whose
    u = omega * tau lie 1e-18 to 1e-7 from 0 or from either side of the
    series switch (so pairs across the switch and across 0 occur)."""
    tau = draw(st.floats(1e-3, 1.0))
    center = draw(st.sampled_from([0.0, _U_SERIES, -_U_SERIES]))
    state = MsState(
        draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)),
        draw(st.floats(-np.pi, np.pi)), draw(st.floats(0.0, 30.0)), 0.0,
    )
    omegas = []
    for _ in range(2):
        offset = draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.integers(-18, -7))
        omegas.append((center + offset) / tau)
    return state, tau, omegas


@settings(derandomize=True, deadline=None, max_examples=300)
@given(turn_rate_pair())
def test_transition_and_jacobian_continuous_through_zero_turn_rate(case):
    # Lipschitz in omega near u = 0 and across the _U_SERIES switch: the
    # helpers' slopes in u are at most 1/2, so the transition moves by at
    # most (tau + v tau^2) |d omega| and the Jacobian by (1 + v) tau^2
    # (1 + tau) |d omega|, plus rounding at the size of the entries.  Just
    # above the switch the direct g2 = (u sin u + cos u - 1)/u^2 cancels in
    # cos u - 1: an absolute error of about eps/u^2 = 2.2e-10 at u = 1e-3 in
    # the v tau^2 terms, allowed here with a margin of 4.
    cancel = 1e-9
    state, tau, (w1, w2) = case
    a, b = (replace(state, omega=w) for w in (w1, w2))
    d_omega = abs(w1 - w2)
    step = np.abs(ctrv_transition(a, tau).as_vector() - ctrv_transition(b, tau).as_vector())
    floor = 1e-12 * (1.0 + abs(state.x) + abs(state.y) + abs(state.psi) + state.v * tau)
    assert step[:3].max() <= (tau + state.v * tau**2) * d_omega + floor
    jump = np.abs(ctrv_jacobian(a, tau) - ctrv_jacobian(b, tau)).max()
    jac_floor = 1e-12 * (1.0 + state.v) + cancel * state.v * tau**2
    assert jump <= (1.0 + state.v) * tau**2 * (1.0 + tau) * d_omega + jac_floor


def test_noise_spec_covariance():
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    n = spec.covariance()
    assert n.shape == (5, 5)
    np.testing.assert_allclose(np.diag(n), [0, 0, 0, 0.0016, 4e-6], rtol=1e-12)
    assert np.count_nonzero(n - np.diag(np.diag(n))) == 0


def test_noise_spec_copies_keep_a_read_only_covariance():
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    for other in [copy.copy(spec), copy.deepcopy(spec)] + [
        pickle.loads(pickle.dumps(spec, protocol=p)) for p in (2, pickle.HIGHEST_PROTOCOL)
    ]:
        assert other == spec
        assert other.covariance().tobytes() == spec.covariance().tobytes()
        assert not other.covariance().flags.writeable


def test_zero_noise_is_exactly_zero():
    spec = ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        np.testing.assert_array_equal(sample_process_noise(spec, rng), np.zeros(5))


def test_noise_statistics():
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    rng = np.random.default_rng(42)
    draws = np.stack([sample_process_noise(spec, rng) for _ in range(100_000)])
    np.testing.assert_array_equal(draws[:, :3], 0.0)
    std_v = spec.tau * spec.sigma_v
    std_w = spec.tau * spec.sigma_omega
    # mean within 4 standard errors of zero
    assert abs(draws[:, 3].mean()) < 4 * std_v / np.sqrt(len(draws))
    assert abs(draws[:, 4].mean()) < 4 * std_w / np.sqrt(len(draws))
    # variance of the linear-velocity component within 5%
    assert draws[:, 3].var() == pytest.approx(std_v**2, rel=0.05)
    assert draws[:, 4].var() == pytest.approx(std_w**2, rel=0.05)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        ProcessNoiseSpec(sigma_v=-1.0, sigma_omega=0.1, tau=0.02)
    with pytest.raises(ValueError):
        ProcessNoiseSpec(sigma_v=1.0, sigma_omega=0.1, tau=0.0)
    # float() would read True as sigma_v = 1 and "0.02" as 20 ms.
    for fields in ((True, 0.1, 0.02), (2.0, np.bool_(False), 0.02), (2.0, 0.1, "0.02")):
        with pytest.raises(TypeError, match="must be a real number"):
            ProcessNoiseSpec(*fields)
    spec = ProcessNoiseSpec(np.int64(2), np.float32(0.5), 1)
    assert (spec.sigma_v, spec.sigma_omega, spec.tau) == (2.0, 0.5, 1.0)
    # The state too: float() would read "15" as x = 15 m and True as y = 1 m.
    for fields in (("15", 2.0, 0, 10, 0.1), (15, True, 0, 10, 0.1), (15, 2, 0, 10, np.bool_(1))):
        with pytest.raises(TypeError, match="must be a real number"):
            MsState(*fields)
    with pytest.raises(ValueError):
        ctrv_transition(MsState(0, 0, 0, 1, 0), -1.0)


# Reference copies of the transition and Jacobian as numpy-scalar expressions
# (np.sin/np.cos on floats, np.eye plus item writes).  dynamics takes its
# scalar sin/cos from math; these pin that the two agree bit for bit.


def _np_s1(u):
    return 1.0 if u == 0.0 else np.sin(u) / u


def _np_s2(u):
    return 0.0 if u == 0.0 else 2.0 * np.sin(0.5 * u) ** 2 / u


def _np_g1(u):
    if abs(u) < _U_SERIES:
        return u * (-1.0 / 3.0 + u * u / 30.0)
    return (u * np.cos(u) - np.sin(u)) / (u * u)


def _np_g2(u):
    if abs(u) < _U_SERIES:
        return 0.5 - u * u / 8.0 + u**4 / 144.0
    return (u * np.sin(u) + np.cos(u) - 1.0) / (u * u)


def _np_transition(state, tau):
    u = state.omega * tau
    s1, s2 = _np_s1(u), _np_s2(u)
    cos_p, sin_p = np.cos(state.psi), np.sin(state.psi)
    x_new = state.x + state.v * tau * (cos_p * s1 - sin_p * s2)
    y_new = state.y + state.v * tau * (sin_p * s1 + cos_p * s2)
    return np.array([x_new, y_new, state.psi + u, state.v, state.omega])


def _np_jacobian(state, tau):
    u = state.omega * tau
    v = state.v
    s1, s2 = _np_s1(u), _np_s2(u)
    g1, g2 = _np_g1(u), _np_g2(u)
    cos_p, sin_p = np.cos(state.psi), np.sin(state.psi)
    jac = np.eye(5)
    jac[2, 4] = tau
    jac[0, 2] = -v * tau * (sin_p * s1 + cos_p * s2)
    jac[0, 3] = tau * (cos_p * s1 - sin_p * s2)
    jac[0, 4] = v * tau * tau * (cos_p * g1 - sin_p * g2)
    jac[1, 2] = v * tau * (cos_p * s1 - sin_p * s2)
    jac[1, 3] = tau * (sin_p * s1 + cos_p * s2)
    jac[1, 4] = v * tau * tau * (sin_p * g1 + cos_p * g2)
    return jac


@st.composite
def ctrv_case(draw):
    """A state and tau whose u = omega * tau is 0, within 1e-12 to 1e-4
    (relative) below or above the series switch on either side, or anywhere
    in [-3, 3]; psi up to 1e4 in magnitude."""
    tau = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    side = draw(st.sampled_from([-1.0, 1.0]))
    near = _U_SERIES * (1.0 + side * 10.0 ** draw(st.integers(-12, -4)))
    u = draw(st.sampled_from([0.0, near, None]))
    if u is None:
        u = draw(st.floats(-3.0, 3.0))
    omega = sign * u / tau
    psi = draw(st.one_of(st.floats(-np.pi, np.pi), st.floats(-1e4, 1e4)))
    state = MsState(
        draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)), psi, draw(st.floats(-50.0, 50.0)),
        omega,
    )
    return state, tau


@settings(derandomize=True, deadline=None, max_examples=400)
@given(ctrv_case())
def test_transition_and_jacobian_match_numpy_scalar_expressions_bit_for_bit(case):
    state, tau = case
    got = ctrv_transition(state, tau)
    assert got.as_vector().tobytes() == _np_transition(state, tau).tobytes()
    jac = ctrv_jacobian(state, tau)
    assert jac.dtype == np.float64 and jac.shape == (5, 5)
    assert jac.tobytes() == _np_jacobian(state, tau).tobytes()


def test_transition_and_jacobian_bits_at_chosen_turns():
    # Both branches of the u^-2-scaled helpers, at tau = 1 so that u = omega,
    # and a u where sin(u/2)**2 and sin(u/2) * sin(u/2) round apart (about
    # one u in 1000 does; random draws seldom find one).
    below = _U_SERIES * (1.0 - 1e-12)
    above = _U_SERIES * (1.0 + 1e-12)
    assert below < _U_SERIES < above
    half = 0.5 * 1.3817681225017022
    assert math.sin(half) ** 2 != math.sin(half) * math.sin(half)
    for u in (0.0, below, above, -below, -above, 1.3817681225017022):
        state = MsState(1.0, 2.0, 9999.5, 7.0, u)
        moved = ctrv_transition(state, 1.0).as_vector()
        assert moved.tobytes() == _np_transition(state, 1.0).tobytes()
        assert ctrv_jacobian(state, 1.0).tobytes() == _np_jacobian(state, 1.0).tobytes()


@pytest.mark.parametrize(
    "value", [np.float64(2.5), 3, np.int64(-4), np.float32(0.1)],
    ids=["float64", "int", "int64", "float32"],
)
def test_ms_state_stores_python_floats(value):
    for state in (MsState(value, value, value, value, value),
                  MsState.from_vector(np.full(5, value)),
                  MsState.from_vector([value] * 5)):
        for name in ("x", "y", "psi", "v", "omega"):
            stored = getattr(state, name)
            assert type(stored) is float
            assert stored == float(np.asarray(value, dtype=float))
