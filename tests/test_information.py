"""Average Fisher information, scaling bounds, and the Bayesian CRB recursion."""

import numpy as np
import pytest

from nftrack.combiners import combiner_fd, combiner_qom, combiner_random, combiner_svd_pe
from nftrack.dynamics import (
    MsState,
    ProcessNoiseSpec,
    ctrv_jacobian,
    ctrv_transition,
    sample_process_noise,
)
from nftrack.errors import AssumptionViolated, SingularPriorCovariance
from nftrack.estimation import Belief, Combiner, ekf_predict, psd_inverse
from nftrack.geometry import ArrayConfig, Pose, channel_derivatives, pilot_response
from nftrack.information import avg_fisher, bayesian_fim_step, expected_fim, fisher_scaling_bounds
from nftrack.observation import generate_pilot

from reference import derivative_matrices, random_phases

F28 = 28e9
P_M = 0.01  # 10 dBm
SIGMA2 = 1e-10  # -70 dBm


def desk_array(n_b=101, n_m=25):
    return ArrayConfig(n_b=n_b, n_m=n_m, carrier_freq=F28)


POSE = Pose(15, -15, 3 * np.pi / 8)


def projection_oracle(q: Combiner) -> np.ndarray:
    """P_Q = Q^+ Q, the orthogonal projection onto the row space of Q."""
    return np.linalg.pinv(q.q) @ q.q


def test_avg_fisher_fd_equals_norms():
    cfg = desk_array()
    derivs = channel_derivatives(POSE, cfg)
    af = avg_fisher(derivs, combiner_fd(cfg), P_M, SIGMA2, cfg.n_m)
    scale = 2 * P_M / (SIGMA2 * cfg.n_m)
    j_x, j_y, j_psi = derivative_matrices(derivs)
    assert af.f_x == pytest.approx(scale * np.linalg.norm(j_x) ** 2, rel=1e-10)
    assert af.f_y == pytest.approx(scale * np.linalg.norm(j_y) ** 2, rel=1e-10)
    assert af.f_psi == pytest.approx(scale * np.linalg.norm(j_psi) ** 2, rel=1e-10)


def test_avg_fisher_projection_inequality():
    cfg = desk_array(n_b=33, n_m=9)
    derivs = channel_derivatives(POSE, cfg)
    fd_af = avg_fisher(derivs, combiner_fd(cfg), P_M, SIGMA2, cfg.n_m)
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = Combiner(random_phases(rng, (3, cfg.n_b)))
        af = avg_fisher(derivs, q, P_M, SIGMA2, cfg.n_m)
        assert af.f_x <= fd_af.f_x * (1 + 1e-12)
        assert af.f_y <= fd_af.f_y * (1 + 1e-12)
        assert af.f_psi <= fd_af.f_psi * (1 + 1e-12)


def test_avg_fisher_matches_pilot_monte_carlo():
    cfg = desk_array(n_b=33, n_m=9)
    derivs = channel_derivatives(POSE, cfg)
    q = combiner_random(np.random.default_rng(1), 3, cfg.n_b)
    af = avg_fisher(derivs, q, P_M, SIGMA2, cfg.n_m)
    p_q = projection_oracle(q)
    rng = np.random.default_rng(2)
    n_draws = 10_000
    pilots = np.sqrt(P_M / (2 * cfg.n_m)) * (
        rng.standard_normal((n_draws, cfg.n_m)) + 1j * rng.standard_normal((n_draws, cfg.n_m))
    )
    for j_mu, target in zip(derivative_matrices(derivs), (af.f_x, af.f_y, af.f_psi)):
        m = j_mu.conj().T @ p_q @ j_mu  # J^H P_Q J over MS antennas
        vals = np.real(np.einsum("ij,jk,ik->i", pilots.conj(), m, pilots))
        assert (2 / SIGMA2) * vals.mean() == pytest.approx(target, rel=0.03)


def test_expected_fim_structure():
    cfg = desk_array(n_b=33, n_m=9)
    derivs = channel_derivatives(POSE, cfg)
    q = combiner_random(np.random.default_rng(3), 3, cfg.n_b)
    f = expected_fim(derivs, q, P_M, SIGMA2, cfg.n_m)
    p_q = projection_oracle(q)
    js = derivative_matrices(derivs)
    ref = (2 * P_M / (SIGMA2 * cfg.n_m)) * np.array(
        [[np.real(np.trace(j_mu.conj().T @ p_q @ j_nu)) for j_nu in js] for j_mu in js]
    )
    np.testing.assert_allclose(np.diag(f)[:3], np.diag(ref), rtol=1e-10)
    np.testing.assert_allclose(f[:3, :3], ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
    np.testing.assert_array_equal(f[3:, :], 0.0)
    np.testing.assert_allclose(f, f.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(f) > -1e-6 * np.trace(f))


def test_scaling_bounds_formulas():
    cfg = desk_array(n_b=275, n_m=75)
    pos, orient = fisher_scaling_bounds(POSE, cfg, P_M, SIGMA2)
    r = POSE.r
    assert pos == pytest.approx(P_M * cfg.n_b / (2 * SIGMA2 * r**2), rel=1e-12)
    d_m_eff = cfg.aperture_m * abs(np.sin(POSE.theta - POSE.psi))
    expected_orient = (
        P_M * cfg.n_b * d_m_eff**2 / (24 * SIGMA2 * r**2) * (1 + 2 / (cfg.n_m - 1))
    )
    assert orient == pytest.approx(expected_orient, rel=1e-12)
    # leading terms are linear in the BS antenna count (doubling far enough
    # from the Fresnel distance that both sizes stay in the valid regime)
    pos_a, orient_a = fisher_scaling_bounds(POSE, desk_array(n_b=68, n_m=75), P_M, SIGMA2)
    pos_b, orient_b = fisher_scaling_bounds(POSE, desk_array(n_b=136, n_m=75), P_M, SIGMA2)
    assert pos_b == pytest.approx(2 * pos_a, rel=1e-12)
    assert orient_b == pytest.approx(2 * orient_a, rel=1e-12)


def test_scaling_bounds_read_r_and_theta():
    # At (3, 4) the bounds see r = 5 and the polar angle arctan2(4, 3).
    cfg = desk_array(n_b=33, n_m=9)
    pos, orient = fisher_scaling_bounds(Pose(3, 4, 0.2), cfg, P_M, SIGMA2)
    assert pos == pytest.approx(P_M * cfg.n_b / (2 * SIGMA2 * 25.0), rel=1e-12)
    d_m_eff = cfg.aperture_m * abs(np.sin(np.arctan2(4, 3) - 0.2))
    expected_orient = P_M * cfg.n_b * d_m_eff**2 / (24 * SIGMA2 * 25.0) * (1 + 2 / 8)
    assert orient == pytest.approx(expected_orient, rel=1e-12)


def test_scaling_bounds_zero_effective_aperture():
    cfg = desk_array(n_b=101, n_m=25)
    _, orient = fisher_scaling_bounds(Pose(10, 10, np.pi / 4), cfg, P_M, SIGMA2)
    assert orient == 0.0


def test_scaling_bounds_inside_fresnel_raises():
    cfg = desk_array(n_b=275, n_m=75)
    with pytest.raises(AssumptionViolated):
        fisher_scaling_bounds(Pose(3, -3, 0.5), cfg, P_M, SIGMA2)


def test_fd_position_info_matches_bound():
    cfg = desk_array(n_b=275, n_m=75)
    derivs = channel_derivatives(POSE, cfg)
    af = avg_fisher(derivs, combiner_fd(cfg), P_M, SIGMA2, cfg.n_m)
    pos_bound, _ = fisher_scaling_bounds(POSE, cfg, P_M, SIGMA2)
    assert af.f_x + af.f_y == pytest.approx(pos_bound, rel=0.05)


def test_position_info_linear_in_bs_antennas():
    values = []
    grid = [68, 137, 206, 275]
    for n_b in grid:
        cfg = desk_array(n_b=n_b, n_m=25)
        derivs = channel_derivatives(POSE, cfg)
        af = avg_fisher(derivs, combiner_fd(cfg), P_M, SIGMA2, cfg.n_m)
        values.append(af.f_x + af.f_y)
    slope, intercept = np.polyfit(grid, values, 1)
    fitted = np.polyval([slope, intercept], grid)
    ss_res = np.sum((np.array(values) - fitted) ** 2)
    ss_tot = np.sum((np.array(values) - np.mean(values)) ** 2)
    assert 1 - ss_res / ss_tot > 0.99


def test_orientation_info_quadratic_in_ms_antennas():
    values, sq = [], []
    for n_m in [19, 37, 56, 75]:
        cfg = desk_array(n_b=101, n_m=n_m)
        derivs = channel_derivatives(POSE, cfg)
        af = avg_fisher(derivs, combiner_fd(cfg), P_M, SIGMA2, cfg.n_m)
        values.append(af.f_psi)
        sq.append(n_m**2)
    slope, intercept = np.polyfit(sq, values, 1)
    fitted = np.polyval([slope, intercept], sq)
    ss_res = np.sum((np.array(values) - fitted) ** 2)
    ss_tot = np.sum((np.array(values) - np.mean(values)) ** 2)
    assert 1 - ss_res / ss_tot > 0.99


def test_on_axis_y_information_negligible():
    cfg = desk_array(n_b=275, n_m=75)
    pose = Pose(21.2, 0.0, 0.0)
    derivs = channel_derivatives(pose, cfg)
    af = avg_fisher(derivs, combiner_fd(cfg), P_M, SIGMA2, cfg.n_m)
    assert af.f_y / (af.f_x + af.f_y) < 0.01


def test_orientation_info_vanishes_with_effective_aperture():
    cfg = desk_array(n_b=275, n_m=75)
    r = 15 * np.sqrt(2)
    aligned = Pose(r / np.sqrt(2), r / np.sqrt(2), np.pi / 4)  # sin(theta-psi) = 0
    broadside = Pose(r / np.sqrt(2), r / np.sqrt(2), np.pi / 4 + np.pi / 2)
    af_aligned = avg_fisher(
        channel_derivatives(aligned, cfg), combiner_fd(cfg), P_M, SIGMA2, cfg.n_m
    )
    af_broad = avg_fisher(
        channel_derivatives(broadside, cfg), combiner_fd(cfg), P_M, SIGMA2, cfg.n_m
    )
    assert af_aligned.f_psi < 0.01 * af_broad.f_psi


# ---------------------------------------------------------------------- BCRB


PRIOR_COV = np.diag([0.01, 0.01, 1e-4, 1.0, 1e-4])
PREV = MsState(15, -15, 3 * np.pi / 8, 10, 0.1)


def test_bayesian_step_pure_information_transport():
    # no process noise and no transmit power: J_1 = (A J_0^-1 A^T)^-1 = (A P_0 A^T)^-1
    cfg = desk_array(n_b=17, n_m=5)
    spec = ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.02)
    fd = combiner_fd(cfg)
    bound1 = bayesian_fim_step(
        Belief(PREV, PRIOR_COV), cfg, spec, 0.0, SIGMA2, lambda pose, derivs: fd
    )
    a = ctrv_jacobian(PREV, spec.tau)
    expected = np.linalg.inv(a @ PRIOR_COV @ a.T)
    np.testing.assert_allclose(
        bound1.info, expected, rtol=1e-8, atol=1e-10 * np.abs(expected).max()
    )
    assert bound1.mean == ctrv_transition(PREV, spec.tau)


def test_bayesian_step_rejects_a_bound_that_is_not_pd():
    # The predicted bound is inverted as the filter's prior is: one jitter
    # retry, then SingularPriorCovariance (exit 3 from the CLI).
    cfg = desk_array(n_b=17, n_m=5)
    fd = combiner_fd(cfg)
    still = ProcessNoiseSpec(sigma_v=0.0, sigma_omega=0.0, tau=0.02)
    for cov in (np.zeros((5, 5)), np.diag([1.0, 1.0, -1.0, 1.0, 1.0])):
        with pytest.raises(SingularPriorCovariance):
            bayesian_fim_step(Belief(PREV, cov), cfg, still, P_M, SIGMA2, lambda pose, derivs: fd)


def test_bayesian_step_deterministic_given_seed():
    cfg = desk_array(n_b=17, n_m=5)
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    fd = combiner_fd(cfg)
    runs = []
    for _ in range(2):
        s = bayesian_fim_step(
            Belief(PREV, PRIOR_COV), cfg, spec, P_M, SIGMA2, lambda pose, derivs: fd
        )
        runs.append(s.cov)
    np.testing.assert_array_equal(runs[0], runs[1])


def test_bayesian_step_policies_run():
    cfg = desk_array(n_b=33, n_m=9)
    spec = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    pilot = generate_pilot(np.random.default_rng(0), P_M, cfg.n_m)
    rand = combiner_random(np.random.default_rng(1), 3, cfg.n_b)
    policies = {
        "fd": lambda pose, derivs: combiner_fd(cfg),
        "rand": lambda pose, derivs: rand,
        "svd_pe": lambda pose, derivs: combiner_svd_pe(
            pilot_response(pose, cfg, pilot)[1], 3),
        "qom": lambda pose, derivs: combiner_qom(pose, cfg, 3),
    }
    traces = {}
    for name, pol in policies.items():
        v = bayesian_fim_step(Belief(PREV, PRIOR_COV), cfg, spec, P_M, SIGMA2, pol).cov
        traces[name] = v[0, 0] + v[1, 1]
        assert np.all(np.diag(v) >= 0)
    # the uncompressed receiver is at least as informative as any combiner
    assert traces["fd"] <= min(traces.values()) * (1 + 1e-9)


def _sampled_bayesian_fim_step(bound, cfg, spec, p_m, sigma2, q_policy, n_samples, rng):
    """Reference: the recursion's information with the data FIM averaged over
    antithetic next-state draws, every draw evaluated at its own sampled pose."""
    prior = ekf_predict(bound, spec)
    nominal_vec = prior.mean.as_vector()
    samples = []
    while len(samples) < n_samples:
        noise = sample_process_noise(spec, rng)
        samples.append(nominal_vec + noise)
        if len(samples) < n_samples:
            samples.append(nominal_vec - noise)
    f_d = np.zeros((5, 5))
    for vec in samples:
        pose = Pose(*vec[:3])
        derivs = channel_derivatives(pose, cfg)
        f_d += expected_fim(derivs, q_policy(pose, derivs), p_m, sigma2, cfg.n_m)
    return prior.info + f_d / len(samples)


def test_sampled_next_state_reduces_to_nominal_pose():
    # Process noise perturbs only v and omega, so every sampled next state
    # has the nominal pose and the sampled average equals one evaluation there.
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = ProcessNoiseSpec(
            sigma_v=rng.uniform(0, 10), sigma_omega=rng.uniform(0, 2), tau=rng.uniform(1e-3, 0.5)
        )
        assert np.all(sample_process_noise(spec, rng)[:3] == 0.0)

    cfg = desk_array(n_b=17, n_m=5)
    policies = {
        "fd": lambda pose, derivs: combiner_fd(cfg),
        "qom": lambda pose, derivs: combiner_qom(pose, cfg, 3),
    }
    for n_samples in (1, 4, 7):
        spec = ProcessNoiseSpec(
            sigma_v=rng.uniform(0, 10), sigma_omega=rng.uniform(0, 2), tau=rng.uniform(1e-3, 0.1)
        )
        prev = MsState(15, -15, rng.uniform(-np.pi, np.pi), rng.uniform(0, 20), rng.uniform(-1, 1))
        bound0 = Belief(prev, PRIOR_COV)
        for name, pol in policies.items():
            sampled = _sampled_bayesian_fim_step(
                bound0, cfg, spec, P_M, SIGMA2, pol, n_samples, np.random.default_rng(n_samples)
            )
            nominal = bayesian_fim_step(bound0, cfg, spec, P_M, SIGMA2, pol)
            # The step's bound is the inverse of this information, bit for bit.
            pose = nominal.mean.pose
            derivs = channel_derivatives(pose, cfg)
            info = ekf_predict(bound0, spec).info + expected_fim(
                derivs, pol(pose, derivs), P_M, SIGMA2, cfg.n_m)
            np.testing.assert_array_equal(nominal.cov, psd_inverse(info), err_msg=name)
            np.testing.assert_allclose(info, sampled, rtol=1e-12, err_msg=name)


def test_bcrb_tightens_with_data():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        f_p = a @ a.T + 0.1 * np.eye(5)
        b = rng.standard_normal((5, 3))
        f_d = b @ b.T
        t_prior = np.trace(np.linalg.inv(f_p))
        t_post = np.trace(np.linalg.inv(f_p + f_d))
        assert t_post <= t_prior + 1e-12
