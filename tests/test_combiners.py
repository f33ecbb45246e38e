"""Analog combiner builders: FD, random, SVD phase extraction, mode
selection, and manifold optimization."""

from itertools import islice, product

import numpy as np
import pytest

from nftrack.combiners import (
    CombinerSpec,
    _PoseObjective,
    combiner_fd,
    combiner_from_plan,
    combiner_mo,
    combiner_qom,
    combiner_random,
    combiner_svd_pe,
    qom_plan,
    qom_resolution,
    qom_vector,
)
from nftrack.dynamics import MsState, ProcessNoiseSpec
from nftrack.errors import (
    DegenerateGeometry,
    DegenerateJacobian,
    RankDeficientCombiner,
    SingularPriorCovariance,
)
from nftrack.estimation import Belief, Combiner, ekf_predict, fim, psd_inverse
from nftrack.geometry import ArrayConfig, Pose, channel_derivatives, channel_matrix, pilot_response
from nftrack.information import avg_fisher
from nftrack.observation import generate_pilot

from reference import dft_matrix

F28 = 28e9
PAPER_ARRAY = ArrayConfig(n_b=275, n_m=75, carrier_freq=F28)
PAPER_POSE = Pose(15, -15, 3 * np.pi / 8)


def desk_b_jac(seed=0, n_b=101, n_m=25):
    cfg = ArrayConfig(n_b=n_b, n_m=n_m, carrier_freq=F28)
    pilot = generate_pilot(np.random.default_rng(seed), 0.01, cfg.n_m)
    b = pilot_response(PAPER_POSE, cfg, pilot)[1]
    return cfg, pilot, b


# ------------------------------------------------------------------ fd / rand


def test_fd_projection_and_fim():
    cfg = ArrayConfig(n_b=21, n_m=5, carrier_freq=F28)
    fd = combiner_fd(cfg)
    assert fd.q is None  # no n_b x n_b matrix
    # P_Q = I for fd's Q = I, and for the DFT matrix through the general Gram solve.
    dft = dft_matrix(cfg.n_b)
    dense = Combiner(dft)
    np.testing.assert_allclose(dft.conj().T @ dense.solve_gram(dft), np.eye(cfg.n_b), atol=1e-12)
    pilot = generate_pilot(np.random.default_rng(1), 0.01, cfg.n_m)
    b = pilot_response(Pose(9, -3, 0.2), cfg, pilot)[1]
    f = fim(b, fd, 1e-10)
    np.testing.assert_allclose(f, 2e10 * np.real(b.conj().T @ b), rtol=1e-10)
    np.testing.assert_allclose(f, fim(b, dense, 1e-10), rtol=1e-10)


def test_random_combiner_entries_and_determinism():
    a = combiner_random(np.random.default_rng(42), 3, 64)
    b = combiner_random(np.random.default_rng(42), 3, 64)
    np.testing.assert_array_equal(a.q, b.q)
    assert set(np.unique(a.q.real)) == {-1.0, 1.0}
    np.testing.assert_array_equal(a.q.imag, 0.0)


def test_random_combiner_rank_gate_across_seeds():
    for seed in range(100):
        comb = combiner_random(np.random.default_rng(seed), 3, 64)
        comb.solve_gram(comb.q)  # raises RankDeficientCombiner on failure


# -------------------------------------------------------------------- svd_pe


def test_svd_pe_unit_modulus_and_row_count():
    _, _, b = desk_b_jac()
    for n_rf, rows in [(1, 1), (2, 2), (3, 3), (5, 3), (8, 3)]:
        comb = combiner_svd_pe(b, n_rf)
        assert comb.q.shape == (rows, b.shape[0])
        np.testing.assert_allclose(np.abs(comb.q), 1.0, atol=1e-12)


def test_svd_pe_rejects_zero_jacobian():
    with pytest.raises(DegenerateJacobian):
        combiner_svd_pe(np.zeros((32, 5), dtype=complex), 3)


def test_svd_pe_deterministic():
    _, _, b = desk_b_jac()
    q1 = combiner_svd_pe(b, 3).q
    q2 = combiner_svd_pe(b.copy(), 3).q
    np.testing.assert_array_equal(q1, q2)


def test_svd_pe_information_retention_beats_random():
    # Fisher-information retention relative to the uncompressed receiver
    cfg, pilot, b = desk_b_jac()
    sigma2 = 1e-10
    t_fd = np.trace(fim(b, combiner_fd(cfg), sigma2))
    t_svd = np.trace(fim(b, combiner_svd_pe(b, 3), sigma2))
    wins = 0
    for seed in range(20):
        t_rand = np.trace(fim(b, combiner_random(np.random.default_rng(seed), 3, cfg.n_b), sigma2))
        wins += t_svd >= t_rand
    assert wins == 20
    assert t_svd <= t_fd * (1 + 1e-12)
    assert t_svd >= 0.5 * t_fd  # phase extraction keeps most of the information


# ----------------------------------------------------------------------- qom


def test_qom_resolution_paper_geometry():
    delta = qom_resolution(PAPER_POSE, PAPER_ARRAY)
    theta = PAPER_POSE.theta
    arg = (
        PAPER_ARRAY.wavelength
        * PAPER_POSE.r
        / (
            PAPER_ARRAY.d_b
            * PAPER_ARRAY.d_m
            * abs(np.cos(theta) * np.sin(PAPER_POSE.psi - theta))
            * PAPER_ARRAY.n_b
        )
    )
    assert delta == int(np.ceil(arg))
    # doubling the BS array halves the pre-ceiling argument
    big = ArrayConfig(n_b=2 * PAPER_ARRAY.n_b, n_m=75, carrier_freq=F28)
    assert qom_resolution(PAPER_POSE, big) <= int(np.ceil(arg / 2)) + 1


def test_qom_resolution_degenerate_geometry():
    with pytest.raises(DegenerateGeometry):
        qom_resolution(Pose(10, 10, np.pi / 4), PAPER_ARRAY)  # psi == theta


def test_qom_resolution_brute_force_cross_check():
    # oracle: smallest index spacing whose focusing vectors decorrelate
    pose = Pose(8, -8, 3 * np.pi / 8)
    delta = qom_resolution(pose, PAPER_ARRAY)
    w0 = qom_vector(pose, PAPER_ARRAY, 0)
    overlaps = np.array(
        [abs(np.vdot(w0, qom_vector(pose, PAPER_ARRAY, m))) for m in range(1, 3 * delta)]
    )
    below = np.where(overlaps < 0.3)[0] + 1
    assert len(below) > 0
    brute = below[0]
    assert brute <= delta <= 2 * brute
    assert overlaps[delta - 1] < 0.3


def test_qom_plan_full_resolution_center_first():
    cfg = ArrayConfig(n_b=2001, n_m=5, carrier_freq=F28)  # huge aperture: delta == 1
    pose = Pose(2, -2, 3 * np.pi / 8)
    plan = qom_plan(pose, cfg, 5, "center_first")
    assert plan.delta == 1
    assert plan.indices == (0, -1, 1, -2, 2)


def test_qom_plan_spaced_lattice():
    # delta = 2 over a 7-element array: reference index lands on -3
    cfg = ArrayConfig(n_b=275, n_m=7, carrier_freq=F28)
    pose = None
    for r in np.linspace(0.8, 3.0, 60):
        cand = Pose(r / np.sqrt(2), -r / np.sqrt(2), 3 * np.pi / 8)
        if qom_resolution(cand, cfg) == 2:
            pose = cand
            break
    assert pose is not None
    plan = qom_plan(pose, cfg, 4, "center_first")
    assert plan.ell0 == -3
    assert plan.n_e == 4
    assert sorted(plan.indices) == [-3, -1, 1, 3]
    mixed = qom_plan(pose, cfg, 4, "mixed_edge_center")
    assert mixed.indices == (-3, -1, 3, 1)


def test_qom_plan_mixed_ordering_inequalities():
    cfg = ArrayConfig(n_b=275, n_m=25, carrier_freq=F28)
    pose = Pose(4, -4, 3 * np.pi / 8)
    plan = qom_plan(pose, cfg, 6, "mixed_edge_center")
    dom = [e for e in plan.indices if abs(e) <= 12][: plan.n_e]
    odd = dom[0::2]
    even = dom[1::2]
    assert all(abs(a) >= abs(b) for a, b in zip(odd, odd[1:]))
    assert all(abs(a) <= abs(b) for a, b in zip(even, even[1:]))


def test_qom_plan_virtual_extension():
    plan = qom_plan(PAPER_POSE, PAPER_ARRAY, 6, "mixed_edge_center")
    assert len(plan.indices) == 6
    in_array = [e for e in plan.indices if -37 <= e <= 37]
    virtual = [e for e in plan.indices if not (-37 <= e <= 37)]
    assert len(in_array) == plan.n_e
    assert len(virtual) == 6 - plan.n_e
    diffs = np.diff(sorted(plan.indices))
    assert np.all(diffs % plan.delta == 0)
    # nearest virtual modes first, starting on the negative side
    assert virtual[0] < min(in_array)


def test_qom_vector_norm_and_quasi_orthogonality():
    pose = Pose(8, -8, 3 * np.pi / 8)
    plan = qom_plan(pose, PAPER_ARRAY, 4, "center_first")
    vecs = [qom_vector(pose, PAPER_ARRAY, e) for e in plan.indices]
    for w in vecs:
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(w), 1 / np.sqrt(PAPER_ARRAY.n_b), rtol=1e-12)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert abs(np.vdot(vecs[i], vecs[j])) < 0.3


def test_qom_vector_matches_channel_column_far_out():
    # in the uniform-amplitude regime the focusing vector aligns with the
    # channel column of the same mode index
    cfg = ArrayConfig(n_b=41, n_m=9, carrier_freq=F28)
    r = 10 * cfg.aperture_b
    pose = Pose(r / np.sqrt(2), -r / np.sqrt(2), 0.9)
    h = channel_matrix(pose, cfg)
    ell = 2
    col = h[:, list(cfg.ms_indices).index(ell)]
    w = qom_vector(pose, cfg, ell)
    assert abs(np.vdot(w, col)) == pytest.approx(np.linalg.norm(col), rel=1e-3)


def test_combiner_qom_unit_modulus_and_rows():
    comb = combiner_qom(PAPER_POSE, PAPER_ARRAY, 3)
    np.testing.assert_allclose(np.abs(comb.q), 1.0, atol=1e-12)
    gram = comb.q @ comb.q.conj().T / PAPER_ARRAY.n_b
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 0.3


def test_combiner_qom_information_retention():
    cfg, pilot, b = desk_b_jac()
    sigma2 = 1e-10
    comb = combiner_qom(PAPER_POSE, cfg, 3)
    t_fd = np.trace(fim(b, combiner_fd(cfg), sigma2))
    assert np.trace(fim(b, comb, sigma2)) >= 0.5 * t_fd


def test_qom_ordering_sensitivity():
    # fewer chains than dominant modes: center-first favors position,
    # edge-first favors orientation; with all dominant modes covered the
    # orderings agree
    pose = Pose(8, -8, 3 * np.pi / 8)
    derivs = channel_derivatives(pose, PAPER_ARRAY)
    p_m, sigma2 = 0.01, 1e-10
    n_e = qom_plan(pose, PAPER_ARRAY, 1, "center_first").n_e
    assert n_e >= 4
    for n_rf in (2, 3):
        vals = {}
        for ordering in ("center_first", "edge_first", "mixed_edge_center"):
            plan = qom_plan(pose, PAPER_ARRAY, n_rf, ordering)
            af = avg_fisher(
                derivs, combiner_from_plan(pose, PAPER_ARRAY, plan), p_m, sigma2, PAPER_ARRAY.n_m
            )
            vals[ordering] = af
        assert vals["center_first"].f_x + vals["center_first"].f_y >= (
            vals["edge_first"].f_x + vals["edge_first"].f_y
        )
        assert vals["edge_first"].f_psi >= vals["center_first"].f_psi
    for n_rf in (n_e, n_e + 2):
        ref = None
        for ordering in ("center_first", "edge_first", "mixed_edge_center"):
            plan = qom_plan(pose, PAPER_ARRAY, n_rf, ordering)
            af = avg_fisher(
                derivs, combiner_from_plan(pose, PAPER_ARRAY, plan), p_m, sigma2, PAPER_ARRAY.n_m
            )
            vec = np.array([af.f_x, af.f_y, af.f_psi])
            if ref is None:
                ref = vec
            else:
                np.testing.assert_allclose(vec, ref, rtol=1e-9)


# ------------------------------------------------------------------------ mo


def mo_inputs(seed=0, n_b=101, n_m=25):
    cfg, pilot, b = desk_b_jac(seed, n_b, n_m)
    noise = ProcessNoiseSpec(sigma_v=2.0, sigma_omega=0.1, tau=0.02)
    post = Belief(
        MsState(15, -15, 3 * np.pi / 8, 10, 0.1),
        np.diag([0.05**2, 0.05**2, 0.001**2, 1.0, 1e-4]),
    )
    prior = ekf_predict(post, noise)
    return cfg, b, prior


def test_mo_gradient_matches_finite_differences():
    cfg, b, prior = mo_inputs()
    sigma2 = 1e-10
    objective = _PoseObjective(prior, b, sigma2)
    rng = np.random.default_rng(3)
    q = combiner_random(rng, 3, cfg.n_b).q.copy()
    _, s3, y = objective(q)
    grad = objective.grad(q, s3, y)
    h = 1e-6
    for _ in range(10):
        i, j = rng.integers(0, 3), rng.integers(0, cfg.n_b)
        for direction in (1.0, 1j):
            qp = q.copy()
            qp[i, j] += h * direction
            qm = q.copy()
            qm[i, j] -= h * direction
            fp, _, _ = objective(qp)
            fm, _, _ = objective(qm)
            fd_val = (fp - fm) / (2 * h)
            an_val = np.real(np.conj(grad[i, j]) * direction)
            assert fd_val == pytest.approx(an_val, rel=2e-3, abs=1e-12)


def test_mo_objective_monotone_and_unit_modulus():
    cfg, b, prior = mo_inputs()
    init = combiner_random(np.random.default_rng(5), 3, cfg.n_b)
    comb, info = combiner_mo(init, prior, b, 1e-10, iters=5)
    assert all(b2 <= a2 + 1e-15 for a2, b2 in zip(info.objectives, info.objectives[1:]))
    np.testing.assert_allclose(np.abs(comb.q), 1.0, atol=1e-9)


def test_mo_improves_random_init_on_most_seeds():
    cfg, b, prior = mo_inputs()
    improved = 0
    for seed in range(20):
        init = combiner_random(np.random.default_rng(seed), 3, cfg.n_b)
        _, info = combiner_mo(init, prior, b, 1e-10, iters=5)
        improved += info.objectives[-1] < info.objectives[0]
    assert improved >= 18


def test_mo_near_stationary_at_qom_init():
    cfg, b, prior = mo_inputs()
    init = combiner_qom(prior.mean.pose, cfg, 3)
    _, info = combiner_mo(init, prior, b, 1e-10, iters=5)
    rel = (info.objectives[0] - info.objectives[-1]) / info.objectives[0]
    assert 0 <= rel < 0.01


# Reference for combiner_mo: the sequential line search on the Combiner /
# fim / psd_inverse path, one objective evaluation per step candidate.


def _reference_objective(q, prior_info, b, noise_power):
    post = psd_inverse(prior_info + fim(b, Combiner(q), noise_power))
    return float(np.trace(post)), post


def _reference_grad(q, post, b, noise_power):
    gram = q @ q.conj().T
    y = np.linalg.solve(gram, q @ b)
    z = y @ (post @ post) @ b.conj().T
    z_pq = np.linalg.solve(gram, (z @ q.conj().T).conj().T).conj().T @ q
    return -(4.0 / noise_power) * (z - z_pq)


def _unit(q):
    mags = np.abs(q)
    mags[mags == 0] = 1.0
    return q / mags


def reference_mo(init, prior, b, noise_power, iters=5):
    """(best Q, objectives, accepted steps) of the sequential line search."""
    prior_info = psd_inverse(prior.cov)
    q = _unit(np.asarray(init.q, dtype=complex).copy())
    f_curr, post = _reference_objective(q, prior_info, b, noise_power)
    objectives = [f_curr]
    best_q, best_f = q, f_curr
    for _ in range(iters):
        egrad = _reference_grad(q, post, b, noise_power)
        rgrad = egrad - np.real(egrad * np.conj(q)) * q
        gnorm = np.linalg.norm(rgrad)
        if gnorm < 1e-15:
            break
        step = 1e-2 * np.linalg.norm(q) / gnorm

        def trial(t):
            q_t = _unit(q - t * rgrad)
            return (q_t, *_reference_objective(q_t, prior_info, b, noise_power))

        q_new, f_new, post_new = trial(step)
        accepted = f_new <= f_curr - 1e-4 * step * gnorm**2
        if accepted:
            for _ in range(10):
                q_2, f_2, post_2 = trial(step * 2)
                if f_2 < f_new:
                    step *= 2
                    q_new, f_new, post_new = q_2, f_2, post_2
                else:
                    break
        else:
            for _ in range(10):
                step *= 0.5
                q_new, f_new, post_new = trial(step)
                if f_new <= f_curr - 1e-4 * step * gnorm**2:
                    accepted = True
                    break
        if not accepted:
            break
        q, f_curr, post = q_new, f_new, post_new
        objectives.append(f_curr)
        if f_curr < best_f:
            best_q, best_f = q, f_curr
    return best_q, objectives, len(objectives) - 1


@pytest.mark.parametrize("n_b,n_m", [(101, 25), (275, 75)])
@pytest.mark.parametrize("n_rf", [1, 3])
def test_mo_matches_sequential_reference(n_b, n_m, n_rf):
    # Five iterations at sigma^2 = 1e-10 always accept the probe step and
    # walk the doublings; twenty iterations, and sigma^2 = 1e-8, also reject
    # probes and walk the halvings, some of them to the end.  The gradient
    # passes through S^2, so both paths carry about 1e-13 relative rounding
    # in it; twenty iterations of doubled steps grow that to ~2e-8 in Q.
    for seed, noise_power, iters in product(range(3), (1e-10, 1e-8), (5, 20)):
        cfg, b, prior = mo_inputs(seed, n_b, n_m)
        inits = {
            "random": combiner_random(np.random.default_rng(seed), n_rf, n_b),
            "svd_pe": combiner_svd_pe(b, n_rf),
            "qom": combiner_qom(prior.mean.pose, cfg, n_rf),
        }
        for name, init in inits.items():
            comb, info = combiner_mo(init, prior, b, noise_power, iters=iters)
            ref_q, ref_objectives, ref_accepted = reference_mo(init, prior, b, noise_power, iters)
            label = f"seed {seed}, sigma^2 {noise_power}, {iters} iterations, {name}"
            assert info.accepted_steps == ref_accepted, label
            np.testing.assert_allclose(info.objectives, ref_objectives, rtol=1e-9, err_msg=label)
            q_atol = 1e-9 if iters == 5 else 1e-7
            np.testing.assert_allclose(comb.q, ref_q, rtol=0, atol=q_atol, err_msg=label)


def test_mo_stacked_objective_matches_single():
    cfg, b, prior = mo_inputs()
    objective = _PoseObjective(prior, b, 1e-10)
    rng = np.random.default_rng(7)
    stack = np.exp(2j * np.pi * rng.random((10, 3, cfg.n_b)))
    f_all, s3_all, y_all = objective(stack)
    for q, f, s3, y in zip(stack, f_all, s3_all, y_all):
        f_1, s3_1, y_1 = objective(q)
        np.testing.assert_allclose(f, f_1, rtol=1e-12)
        np.testing.assert_allclose(s3, s3_1, rtol=1e-12)
        np.testing.assert_allclose(y, y_1, rtol=1e-12)


def _near_duplicate_rows(rng, gap, n_b=101):
    """Random unit-modulus 3 x n_b rows whose last row is the second one
    rotated by phases of size gap."""
    q = np.exp(2j * np.pi * rng.random((3, n_b)))
    q[2] = q[1] * np.exp(1j * gap * rng.standard_normal(n_b))
    return q


@pytest.mark.parametrize("gap", [0.0, 1e-10])
def test_mo_rank_gate_rejects_dependent_rows(gap):
    cfg, b, prior = mo_inputs()
    objective = _PoseObjective(prior, b, 1e-10)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = _near_duplicate_rows(rng, gap)
        with pytest.raises(RankDeficientCombiner):
            objective(q)
        with pytest.raises(RankDeficientCombiner):
            combiner_mo(Combiner(q), prior, b, 1e-10)


def test_mo_rank_gate_passes_rows_1e7_apart():
    cfg, b, prior = mo_inputs()
    objective = _PoseObjective(prior, b, 1e-10)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = _near_duplicate_rows(rng, 1e-7)
        f, _, _ = objective(q)
        assert np.isfinite(f)
        Combiner(q).solve_gram(q @ b)  # the Combiner gate agrees


def test_mo_candidates_raise_only_when_reached():
    cfg, b, prior = mo_inputs()
    objective = _PoseObjective(prior, b, 1e-10)
    rng = np.random.default_rng(13)
    good = np.exp(2j * np.pi * rng.random((2, 3, cfg.n_b)))
    stack = np.concatenate([good, _near_duplicate_rows(rng, 0.0)[None]])
    reached = list(islice(objective.candidates(stack), 2))
    for (q, f, _, _), q_1 in zip(reached, good):
        assert f == pytest.approx(objective(q_1)[0], rel=1e-12)
        np.testing.assert_array_equal(q, q_1)
    with pytest.raises(RankDeficientCombiner):
        list(objective.candidates(stack))


# The objective reads the prior covariance; its information (the inverse)
# is the positive-definiteness gate.  -1e-20 I is the inverse of -1e20 I.
@pytest.mark.parametrize("cov", [-1e-20 * np.eye(5), np.full((5, 5), np.nan)],
                         ids=["not-pd", "nan"])
def test_mo_objective_singular_information_raises(cov):
    cfg, b, prior = mo_inputs()
    q = combiner_random(np.random.default_rng(0), 3, cfg.n_b).q
    with pytest.raises(SingularPriorCovariance):
        _PoseObjective(Belief(prior.mean, cov), b, 1e-10)
    with pytest.raises(SingularPriorCovariance):
        combiner_mo(Combiner(q), Belief(prior.mean, cov), b, 1e-10)


def test_combiner_spec_validation():
    with pytest.raises(ValueError):
        CombinerSpec(kind="nope", n_rf=3)
    with pytest.raises(ValueError):
        CombinerSpec("mo", 3)
    assert CombinerSpec("mo:random", 3) == CombinerSpec("mo:rand", 3)
