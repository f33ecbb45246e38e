"""Property tests of the information layer over random near-field geometries,
and of the Bayesian CRB recursion against its information form."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nftrack.combiners import combiner_fd, combiner_qom, combiner_random, combiner_svd_pe
from nftrack.dynamics import MsState, ProcessNoiseSpec, ctrv_jacobian, ctrv_transition
from nftrack.errors import DegenerateGeometry
from nftrack.estimation import Belief
from nftrack.geometry import ArrayConfig, Pose, channel_derivatives, pilot_response
from nftrack.information import avg_fisher, bayesian_fim_step, expected_fim
from nftrack.observation import generate_pilot

from reference import derivative_matrices, random_phases

P_M = 0.01  # 10 dBm
SIGMA2 = 1e-10  # -70 dBm
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def near_field(draw):
    """An array with odd or even n_b and n_m >= 1, and an MS pose 2-30 m in
    front of it, well inside the BS Fresnel region of the larger arrays."""
    cfg = ArrayConfig(
        n_b=draw(st.integers(16, 48)), n_m=draw(st.integers(1, 12)), carrier_freq=28e9
    )
    r = draw(st.floats(2.0, 30.0))
    theta = draw(st.floats(-1.3, 1.3))
    pose = Pose(r * np.cos(theta), r * np.sin(theta), draw(st.floats(-np.pi, np.pi)))
    return cfg, pose


def _data_fim(derivs, q, cfg):
    return expected_fim(derivs, q, P_M, SIGMA2, cfg.n_m)


@PROPERTY
@given(near_field(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_expected_fim_symmetric_psd_with_zero_velocity_block(scenario, n_rf, seed):
    cfg, pose = scenario
    derivs = channel_derivatives(pose, cfg)
    rand = combiner_random(np.random.default_rng(seed), n_rf, cfg.n_b)
    for q in (combiner_fd(cfg), rand):
        f = _data_fim(derivs, q, cfg)
        np.testing.assert_array_equal(f, f.T)
        assert not f[3:].any() and not f[:, 3:].any()
        eig = np.linalg.eigvalsh(f)
        assert eig.min() >= -1e-9 * eig.max()


@PROPERTY
@given(near_field(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_fd_information_dominates_every_combiner(scenario, n_rf, seed):
    cfg, pose = scenario
    derivs = channel_derivatives(pose, cfg)
    rng = np.random.default_rng(seed)
    pilot = generate_pilot(rng, P_M, cfg.n_m)
    combiners = {
        "rand": combiner_random(rng, n_rf, cfg.n_b),
        "svd_pe": combiner_svd_pe(pilot_response(pose, cfg, pilot)[1], n_rf),
    }
    try:
        combiners["qom"] = combiner_qom(pose, cfg, n_rf)
    except DegenerateGeometry:
        pass
    f_fd = _data_fim(derivs, combiner_fd(cfg), cfg)
    tol = 1e-9 * np.linalg.eigvalsh(f_fd).max()
    for name, q in combiners.items():
        gap = np.linalg.eigvalsh(f_fd - _data_fim(derivs, q, cfg))
        assert gap.min() >= -tol, name


def _complex_gram(derivs):
    """Re sum conj(J_mu) J_nu, entry by entry from the complex matrices."""
    js = derivative_matrices(derivs)
    return np.array([[np.real(np.sum(np.conj(a) * b)) for b in js] for a in js])


# Odd and even n_b and n_m, n_m = 1, at the 2 m and 30 m ends of the range.
_EDGES = [
    (ArrayConfig(n_b=n_b, n_m=n_m, carrier_freq=28e9), pose)
    for n_b, n_m in ((33, 9), (32, 8), (33, 8), (32, 9), (17, 1), (16, 1))
    for pose in (Pose(2.0, 0.0, 0.3), Pose(-21.0, 21.4, -2.0))
]
# Poses that stress the Gram's expansion in the BS element position, on a
# 2048-element BS (an 11 m aperture): the MS 0.5-2 m in front of the aperture,
# at its center, inside it and past its edge; the MS axis along the line of
# sight; and 200 m away.
_EDGES += [
    (ArrayConfig(n_b=2048, n_m=n_m, carrier_freq=28e9), pose)
    for n_m in (25, 1)
    for pose in (Pose(0.5, 0.0, 0.0), Pose(0.5, 4.9, 1.2), Pose(2.0, -5.5, -0.4),
                 Pose(1.0, 1.0, np.pi / 4), Pose(-3.0, 4.0, np.arctan2(4.0, -3.0)),
                 Pose(160.0, -120.0, 2.5))
]


def _with_edges(test):
    for case in _EDGES:
        test = example(case)(test)
    return test


@PROPERTY
@_with_edges
@given(near_field())
def test_phase_free_gram_matches_complex_matrices(scenario):
    cfg, pose = scenario
    derivs = channel_derivatives(pose, cfg)
    gram = derivs.gram
    ref = _complex_gram(derivs)
    np.testing.assert_array_equal(gram, gram.T)
    assert np.abs(gram - ref).max() <= 1e-12 * np.linalg.norm(gram)


@PROPERTY
@_with_edges
@given(near_field())
def test_fd_information_matches_complex_reference(scenario):
    cfg, pose = scenario
    fd = combiner_fd(cfg)
    ref = 2.0 * P_M / (SIGMA2 * cfg.n_m) * _complex_gram(channel_derivatives(pose, cfg))
    tol = 1e-12 * np.linalg.norm(ref)
    f = _data_fim(channel_derivatives(pose, cfg), fd, cfg)
    assert np.abs(f[:3, :3] - ref).max() <= tol
    assert not f[3:].any() and not f[:, 3:].any()
    af = avg_fisher(channel_derivatives(pose, cfg), fd, P_M, SIGMA2, cfg.n_m)
    assert np.abs([af.f_x, af.f_y, af.f_psi] - np.diagonal(ref)).max() <= tol


@PROPERTY
@_with_edges
@given(near_field())
def test_compressed_derivatives_match_complex_matrices(scenario):
    # Q J_mu from E = (dh/dr)/r, the affine rows and the half-angle phase,
    # against the product of Q with each complex derivative matrix.
    cfg, pose = scenario
    q = random_phases(np.random.default_rng(cfg.n_b), (1 + cfg.n_b % 3, cfg.n_b))
    derivs = channel_derivatives(pose, cfg)
    got = derivs.compressed(q)
    want = [q @ j for j in derivative_matrices(derivs)]
    assert got.shape == (3, len(q), cfg.n_m)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.linalg.norm(w)
    if cfg.n_m == 1:
        assert not got[2].any()
    # After the stream, the kernel reads the stream's distance grid: the same bits.
    assert derivs.compressed(q).tobytes() == got.tobytes()


@st.composite
def crb_run(draw):
    """A Bayesian CRB run: desk or a 33 x 9 array, an fd or rand policy, a
    nominal start 10-30 m in front of the array, process noise with
    sigma_v and sigma_omega down to 0, a positive definite prior with
    random correlations, and 1-30 steps."""
    cfg = draw(st.sampled_from([ArrayConfig(n_b=101, n_m=25, carrier_freq=28e9),
                                ArrayConfig(n_b=33, n_m=9, carrier_freq=28e9)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.sampled_from([combiner_fd(cfg), combiner_random(rng, 3, cfg.n_b)]))
    r, theta = draw(st.floats(10.0, 30.0)), draw(st.floats(-1.2, 1.2))
    start = MsState(r * np.cos(theta), r * np.sin(theta), draw(st.floats(-np.pi, np.pi)),
                    draw(st.floats(0.0, 10.0)), draw(st.floats(-1.0, 1.0)))
    spec = ProcessNoiseSpec(sigma_v=draw(st.floats(0.0, 5.0)),
                            sigma_omega=draw(st.floats(0.0, 0.5)), tau=0.02)
    m = rng.standard_normal((5, 5))
    corr = m @ m.T + 5.0 * np.eye(5)
    sd = np.sqrt(10.0 ** rng.uniform([-4, -4, -7, -2, -5], [-1, -1, -3, 1, -2]))
    prior = corr / np.sqrt(np.outer(np.diag(corr), np.diag(corr))) * np.outer(sd, sd)
    return cfg, q, start, spec, prior, draw(st.integers(1, 30))


@PROPERTY
@given(crb_run())
def test_bayesian_step_matches_information_form(run):
    # Reference: J_k = (A J_{k-1}^-1 A^T + Q)^-1 + F_d(p_k) along the nominal
    # trajectory, by general LU inverses, from J_0 = P_0^-1.
    cfg, q, start, spec, prior, steps = run
    bound = Belief(start, prior)
    info, state = np.linalg.inv(prior), start
    for _ in range(steps):
        bound = bayesian_fim_step(bound, cfg, spec, P_M, SIGMA2, lambda pose, derivs: q)
        a = ctrv_jacobian(state, spec.tau)
        state = ctrv_transition(state, spec.tau)
        f_d = _data_fim(channel_derivatives(state.pose, cfg), q, cfg)
        info = np.linalg.inv(a @ np.linalg.inv(info) @ a.T + spec.covariance()) + f_d
    want = np.linalg.inv(info)
    assert bound.mean == state
    np.testing.assert_allclose(np.diag(bound.cov), np.diag(want), rtol=1e-9, atol=0.0)
    # Every entry, on the scale of its standard deviations.
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    np.testing.assert_allclose(bound.cov / scale, want / scale, rtol=0.0, atol=1e-9)
