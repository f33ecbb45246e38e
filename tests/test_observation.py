"""Pilot statistics, compressed observation model, observation Jacobian."""

import numpy as np
import pytest

from nftrack.combiners import combiner_fd
from nftrack.estimation import Combiner
from nftrack.geometry import ArrayConfig, Pose, channel_matrix, pilot_response
from nftrack.observation import full_snapshot, generate_pilot

from reference import random_phases

F28 = 28e9


def cfg_small():
    return ArrayConfig(n_b=17, n_m=5, carrier_freq=F28)


def test_pilot_energy_in_expectation():
    rng = np.random.default_rng(0)
    p_m, n_m = 0.01, 25
    norms = [np.linalg.norm(generate_pilot(rng, p_m, n_m)) ** 2 for _ in range(10_000)]
    assert np.mean(norms) == pytest.approx(p_m, rel=0.02)


def test_pilot_rejects_nonpositive_power():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_pilot(rng, 0.0, 8)


@pytest.mark.parametrize("power", [-0.01, np.nan, np.inf, -np.inf])
def test_pilot_rejects_negative_and_non_finite_power(power):
    with pytest.raises(ValueError, match="positive and finite"):
        generate_pilot(np.random.default_rng(0), power, 3)


def test_pilot_seed_reproducibility():
    a = generate_pilot(np.random.default_rng(123), 0.01, 16)
    b = generate_pilot(np.random.default_rng(123), 0.01, 16)
    np.testing.assert_array_equal(a, b)


def test_noiseless_full_observation():
    cfg = cfg_small()
    pose = Pose(12, -5, 0.3)
    h = channel_matrix(pose, cfg)
    pilot = generate_pilot(np.random.default_rng(1), 0.01, cfg.n_m)
    z = combiner_fd(cfg).apply(full_snapshot(h, pilot, 0.0, np.random.default_rng(2)))
    np.testing.assert_allclose(z, h @ pilot, rtol=1e-14)


def test_noise_quadratic_form():
    # E||z - QHx||^2 = sigma^2 * trace(Q Q^H)
    cfg = cfg_small()
    pose = Pose(9, 4, -0.2)
    h = channel_matrix(pose, cfg)
    pilot = generate_pilot(np.random.default_rng(3), 0.01, cfg.n_m)
    rng = np.random.default_rng(4)
    q = Combiner(random_phases(rng, (3, cfg.n_b)))
    sigma2 = 1e-10
    signal = q.apply(h @ pilot)
    rng_noise = np.random.default_rng(5)
    sq = [
        np.linalg.norm(q.apply(full_snapshot(h, pilot, sigma2, rng_noise)) - signal) ** 2
        for _ in range(10_000)
    ]
    expected = sigma2 * np.real(np.trace(q.q @ q.q.conj().T))
    assert np.mean(sq) == pytest.approx(expected, rel=0.03)


def test_all_ones_row_noise_variance():
    # H = 0, unit noise power: the single-row sum has variance n_b
    cfg = cfg_small()
    h = np.zeros((cfg.n_b, cfg.n_m), dtype=complex)
    pilot = np.zeros(cfg.n_m, dtype=complex)
    q = Combiner(np.ones((1, cfg.n_b), dtype=complex))
    rng = np.random.default_rng(6)
    vals = np.array([q.apply(full_snapshot(h, pilot, 1.0, rng))[0] for _ in range(20_000)])
    assert np.var(vals) == pytest.approx(cfg.n_b, rel=0.05)


def test_observation_linearity_in_pilot():
    cfg = cfg_small()
    pose = Pose(20, 1, 0.9)
    h = channel_matrix(pose, cfg)
    pilot = generate_pilot(np.random.default_rng(7), 0.01, cfg.n_m)
    alpha = 2.0 - 1.5j
    scaled = alpha * pilot
    q = combiner_fd(cfg)
    z1 = q.apply(full_snapshot(h, pilot, 0.0, np.random.default_rng(0)))
    z2 = q.apply(full_snapshot(h, scaled, 0.0, np.random.default_rng(0)))
    np.testing.assert_allclose(z2, alpha * z1, rtol=1e-12)


def test_compression_consistency():
    # compressing after an identity-combiner observation with the same noise
    # realization equals observing through the combiner directly
    cfg = cfg_small()
    pose = Pose(14, -8, 0.1)
    h = channel_matrix(pose, cfg)
    pilot = generate_pilot(np.random.default_rng(8), 0.01, cfg.n_m)
    rng_q = np.random.default_rng(9)
    q = Combiner((rng_q.integers(0, 2, (3, cfg.n_b)) * 2 - 1).astype(complex))
    sigma2 = 1e-9
    full = combiner_fd(cfg).apply(full_snapshot(h, pilot, sigma2, np.random.default_rng(11)))
    compressed = q.apply(full_snapshot(h, pilot, sigma2, np.random.default_rng(11)))
    np.testing.assert_allclose(compressed, q.apply(full), rtol=1e-12)


def test_full_snapshot_pilot_length_mismatch():
    cfg = cfg_small()
    h = channel_matrix(Pose(10, 2, 0), cfg)
    pilot = generate_pilot(np.random.default_rng(1), 0.01, cfg.n_m + 1)
    with pytest.raises(ValueError):
        full_snapshot(h, pilot, 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("noise_power", [-1.0, -1e-30, np.nan, np.inf])
def test_full_snapshot_rejects_negative_and_non_finite_noise_power(noise_power):
    cfg = cfg_small()
    h = channel_matrix(Pose(10, 2, 0), cfg)
    pilot = generate_pilot(np.random.default_rng(1), 0.01, cfg.n_m)
    with pytest.raises(ValueError, match="non-negative and finite"):
        full_snapshot(h, pilot, noise_power, np.random.default_rng(0))


def test_full_snapshot_zero_noise_power_is_noiseless_and_draws_nothing():
    cfg = cfg_small()
    h = channel_matrix(Pose(10, 2, 0), cfg)
    pilot = generate_pilot(np.random.default_rng(1), 0.01, cfg.n_m)
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(full_snapshot(h, pilot, 0.0, rng), h @ pilot)
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


def test_jacobian_velocity_columns_zero():
    cfg = cfg_small()
    pilot = generate_pilot(np.random.default_rng(2), 0.01, cfg.n_m)
    b = pilot_response(Pose(11, -3, 0.6), cfg, pilot)[1]
    assert b.shape == (cfg.n_b, 5)
    np.testing.assert_array_equal(b[:, 3:], 0.0)
    assert np.linalg.matrix_rank(b) <= 3


def test_jacobian_zero_pilot():
    cfg = cfg_small()
    pilot = np.zeros(cfg.n_m, dtype=complex)
    b = pilot_response(Pose(11, -3, 0.6), cfg, pilot)[1]
    np.testing.assert_array_equal(b, 0.0)


def test_jacobian_matches_finite_differences():
    cfg = cfg_small()
    pilot = generate_pilot(np.random.default_rng(3), 0.01, cfg.n_m)
    pose = Pose(13, -6, 0.8)
    b = pilot_response(pose, cfg, pilot)[1]

    def bfun(x, y, psi):
        return channel_matrix(Pose(x, y, psi), cfg) @ pilot

    dx, dpsi = 1e-6, 1e-5
    fd_cols = [
        (bfun(pose.x + dx, pose.y, pose.psi) - bfun(pose.x - dx, pose.y, pose.psi)) / (2 * dx),
        (bfun(pose.x, pose.y + dx, pose.psi) - bfun(pose.x, pose.y - dx, pose.psi)) / (2 * dx),
        (bfun(pose.x, pose.y, pose.psi + dpsi) - bfun(pose.x, pose.y, pose.psi - dpsi))
        / (2 * dpsi),
    ]
    for j, fd in enumerate(fd_cols):
        assert np.abs(b[:, j] - fd).max() / np.abs(b[:, j]).max() < 1e-5
