"""Channel geometry: distances, channel entries, exact and asymptotic derivatives."""

import numpy as np
import pytest

from nftrack.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Pose,
    antenna_indices,
    channel_derivatives,
    channel_error_sq,
    channel_grid,
    channel_matrix,
    pair_distance,
    pilot_response,
    _scratch,
    _slope,
)

from reference import channel_derivatives_asymptotic, derivative_matrices

F28 = 28e9


def small_cfg(n_b=33, n_m=9):
    return ArrayConfig(n_b=n_b, n_m=n_m, carrier_freq=F28)


def test_antenna_indices_odd_and_even():
    assert antenna_indices(5).tolist() == [-2, -1, 0, 1, 2]
    assert antenna_indices(4).tolist() == [-2, -1, 0, 1]
    assert antenna_indices(1).tolist() == [0]


def test_wavelength_consistency():
    cfg = small_cfg()
    assert cfg.wavelength == pytest.approx(SPEED_OF_LIGHT / F28, rel=1e-12)
    assert cfg.d_b == pytest.approx(cfg.wavelength / 2, rel=1e-12)
    assert cfg.aperture_b == pytest.approx((cfg.n_b - 1) * cfg.d_b, rel=1e-12)


def test_pair_distance_center_elements():
    cfg = small_cfg()
    assert pair_distance(Pose(3, 4, 0.7), cfg, 0, 0) == pytest.approx(5.0, rel=1e-12)


def test_pair_distance_bs_offset():
    cfg = ArrayConfig(n_b=3, n_m=3, carrier_freq=F28, d_b=0.005, d_m=0.005)
    d = pair_distance(Pose(0, 5, 0), cfg, 1, 0)
    assert d == pytest.approx(4.995, rel=1e-12)


def test_pair_distance_vs_coordinate_construction():
    # independent oracle: build both antenna position vectors explicitly
    cfg = small_cfg()
    pose = Pose(10, -10, np.pi / 4)
    n_b_idx, n_m_idx = 3, -2
    bs = np.array([0.0, n_b_idx * cfg.d_b])
    ms = np.array(
        [
            pose.x + n_m_idx * cfg.d_m * np.cos(pose.psi),
            pose.y + n_m_idx * cfg.d_m * np.sin(pose.psi),
        ]
    )
    expected = np.linalg.norm(bs - ms)
    assert pair_distance(pose, cfg, n_b_idx, n_m_idx) == pytest.approx(expected, rel=1e-14)


def test_channel_amplitude_law():
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    lam = cfg.wavelength
    for _ in range(20):
        r = rng.uniform(2.0, 80.0)
        th = rng.uniform(-np.pi, np.pi)
        pose = Pose(r * np.cos(th), r * np.sin(th), rng.uniform(-np.pi, np.pi))
        h = channel_matrix(pose, cfg)
        dists = pair_distance(
            pose, cfg, cfg.bs_indices[:, None], cfg.ms_indices[None, :]
        )
        np.testing.assert_allclose(np.abs(h), lam / (4 * np.pi * dists), rtol=1e-12)


def test_single_antenna_channel():
    cfg = ArrayConfig(n_b=1, n_m=1, carrier_freq=F28)
    r = 12.0
    h = channel_matrix(Pose(r, 0, 0), cfg)
    lam = cfg.wavelength
    assert h.shape == (1, 1)
    assert abs(h[0, 0]) == pytest.approx(lam / (4 * np.pi * r), rel=1e-12)
    expected_phase = (-2 * np.pi / lam * r) % (2 * np.pi)
    assert np.angle(h[0, 0]) % (2 * np.pi) == pytest.approx(expected_phase, abs=1e-9)


def test_frobenius_norm_uniform_regime():
    cfg = small_cfg()
    r = 10 * (cfg.aperture_b + cfg.aperture_m)
    pose = Pose(r / np.sqrt(2), -r / np.sqrt(2), 0.3)
    h = channel_matrix(pose, cfg)
    uniform = (cfg.wavelength / (4 * np.pi * pose.r)) ** 2 * cfg.n_b * cfg.n_m
    assert np.linalg.norm(h) ** 2 == pytest.approx(uniform, rel=0.01)


def _reference_channel_and_derivatives(pose, cfg):
    """The channel on pair_distance's grid and the reference derivative
    matrices, each quantity built from scratch (the shared kernel must not
    change a bit)."""
    lam = cfg.wavelength
    r = pair_distance(pose, cfg, cfg.bs_indices[:, None], cfg.ms_indices[None, :])
    h = lam / (4 * np.pi * r) * np.exp(-2j * np.pi / lam * r)
    return h, derivative_matrices(channel_derivatives(pose, cfg))


@pytest.mark.parametrize("n_b,n_m", [(33, 9), (32, 8), (33, 8), (32, 9), (17, 1), (275, 75)])
def test_pilot_response_is_bit_identical(n_b, n_m):
    cfg = small_cfg(n_b, n_m)
    rng = np.random.default_rng(n_b * 100 + n_m)
    for pose in (Pose(15, -15, 3 * np.pi / 8), Pose(4.0, 7.5, -2.2), Pose(-9.0, 0.3, 0.0)):
        x = rng.standard_normal(n_m) + 1j * rng.standard_normal(n_m)
        h_ref, derivs_ref = _reference_channel_and_derivatives(pose, cfg)
        np.testing.assert_array_equal(channel_matrix(pose, cfg), h_ref)
        r, a, h = channel_grid(pose, cfg)
        grid = pair_distance(pose, cfg, cfg.bs_indices[:, None], cfg.ms_indices[None, :])
        np.testing.assert_array_equal(r, grid)
        np.testing.assert_array_equal(a, cfg.wavelength / (4 * np.pi * r))
        np.testing.assert_array_equal(h, h_ref)

        hx, b = pilot_response(pose, cfg, x)
        assert hx.tobytes() == (channel_matrix(pose, cfg) @ x).tobytes()
        assert b.shape == (n_b, 5)
        for col, d in enumerate(derivs_ref):
            assert b[:, col].tobytes() == (d @ x).tobytes()
        np.testing.assert_array_equal(b[:, 3:], 0.0)


def test_channel_matrix_against_scalar_loop():
    # brute-force per-entry oracle at the full paper scenario
    cfg = ArrayConfig(n_b=275, n_m=75, carrier_freq=F28)
    pose = Pose(15, -15, 3 * np.pi / 8)
    h = channel_matrix(pose, cfg)
    lam = cfg.wavelength
    bs = cfg.bs_indices
    ms = cfg.ms_indices
    for i in range(0, cfg.n_b, 37):
        for j in range(0, cfg.n_m, 11):
            mx = pose.x + ms[j] * cfg.d_m * np.cos(pose.psi)
            my = pose.y + ms[j] * cfg.d_m * np.sin(pose.psi)
            r = np.hypot(mx, my - bs[i] * cfg.d_b)
            expected = lam / (4 * np.pi * r) * np.exp(-1j * 2 * np.pi / lam * r)
            assert h[i, j] == pytest.approx(expected, rel=1e-12)


def _error_sq_oracle(r, r_ref, lam):
    """||H - H_ref||_F^2 in long double from the float64 distance grids.

    Uses the phase difference d = 2 pi (r - r_ref) / lambda in the form
    (a cos d - a_ref)^2 + (a sin d)^2, not the half-angle identity of the
    kernel under test.
    """
    ld = np.longdouble
    r, r_ref, lam = r.astype(ld), r_ref.astype(ld), ld(lam)
    pi = 4 * np.arctan(ld(1))
    a, a_ref = lam / (4 * pi * r), lam / (4 * pi * r_ref)
    d = 2 * pi / lam * (r - r_ref)
    return np.sum((a * np.cos(d) - a_ref) ** 2 + (a * np.sin(d)) ** 2)


def _pose_pairs(seed):
    """Reference poses and posterior-like poses 1 um to 1 m away, heading
    offsets scaled alike (1 rad per 10 m)."""
    rng = np.random.default_rng(seed)
    for ref in (Pose(15, -15, 3 * np.pi / 8), Pose(4.0, 7.5, -2.2), Pose(-9.0, 0.3, 0.0)):
        for sep in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            u = rng.standard_normal(3)
            u *= sep / np.linalg.norm(u[:2])
            yield ref, Pose(ref.x + u[0], ref.y + u[1], ref.psi + 0.1 * u[2])


@pytest.mark.parametrize("n_b,n_m", [(101, 25), (275, 75), (64, 8), (32, 1)])
def test_channel_error_sq_matches_long_double_oracle(n_b, n_m):
    cfg = small_cfg(n_b, n_m)
    for ref, pose in _pose_pairs(n_b * 100 + n_m):
        r_ref, a_ref, h_ref = channel_grid(ref, cfg)
        r = channel_grid(pose, cfg)[0]
        want = _error_sq_oracle(r, r_ref, cfg.wavelength)
        got = channel_error_sq(pose, cfg, r_ref, a_ref)
        assert isinstance(got, float)
        err = abs(np.longdouble(got) - want) / want
        assert err <= 1e-12, (ref, pose, float(err))
        # Never less accurate than the complex difference it replaces, up to
        # a few ulps: both errors can be rounding level, and the BLAS-summed
        # squared norm's rounding depends on the BLAS thread count.
        complex_form = np.linalg.norm(channel_matrix(pose, cfg) - h_ref) ** 2
        complex_err = abs(np.longdouble(complex_form) - want) / want
        assert err <= max(complex_err, 4 * np.finfo(float).eps), (ref, pose)
        assert channel_error_sq(ref, cfg, r_ref, a_ref) == 0.0


def _slope_oracle(r, lam):
    """Re and Im of E = (dh/dr)/r in long double from the float64 distance
    grid, through cos and sin of theta = 2 x, where x = pi r / lambda is the
    float64 half angle that the kernel (and the complex exp of the filter's
    2 pi r / lambda, its exact double) rounds."""
    ld = np.longdouble
    theta = 2 * (np.pi / lam * r).astype(ld)
    r, lam = r.astype(ld), ld(lam)
    pi = 4 * np.arctan(ld(1))
    amp, kr = -lam / (4 * pi * r**3), 2 * pi / lam * r
    return (amp * (np.cos(theta) + kr * np.sin(theta)),
            amp * (kr * np.cos(theta) - np.sin(theta)))


@pytest.mark.parametrize("n_b,n_m", [(101, 25), (275, 75), (2048, 25), (64, 8), (32, 1)])
def test_half_angle_slope_matches_long_double_oracle(n_b, n_m):
    # Measured worst over these cases: phase 3.1e-16 rad and amplitude
    # 6.8e-16 relative, against 2.9e-16 and 7.3e-16 for dh/dr / r of the
    # complex exp; the bounds are 2 and 4 eps.
    cfg = small_cfg(n_b, n_m)
    eps = np.finfo(float).eps
    for pose in (Pose(15.2, -14.8, 1.17), Pose(0.5, 0.0, 0.0), Pose(0.5, 4.9, 1.2),
                 Pose(-3.0, 4.0, np.arctan2(4.0, -3.0)), Pose(160.0, -120.0, 2.5)):
        r = channel_grid(pose, cfg)[0]
        e = _slope(cfg, r, _scratch(cfg))
        re, im = e[:n_b].astype(np.longdouble), e[n_b:].astype(np.longdouble)
        want_re, want_im = _slope_oracle(r, cfg.wavelength)
        mag2 = want_re**2 + want_im**2
        phase = np.abs(im * want_re - re * want_im) / mag2
        amplitude = np.abs(np.sqrt((re**2 + im**2) / mag2) - 1)
        assert phase.max() <= 2 * eps, (pose, float(phase.max()))
        assert amplitude.max() <= 4 * eps, (pose, float(amplitude.max()))


# The heading step is larger than the position steps: the MS lever arm
# (< 3 cm here) shrinks the effective displacement, and the absolute phase
# (hundreds of rad at r ~ 100 m) limits cancellation precision.
def _fd_derivs(pose, cfg, dx=1e-6, dpsi=1e-5):
    j_x = (
        channel_matrix(Pose(pose.x + dx, pose.y, pose.psi), cfg)
        - channel_matrix(Pose(pose.x - dx, pose.y, pose.psi), cfg)
    ) / (2 * dx)
    j_y = (
        channel_matrix(Pose(pose.x, pose.y + dx, pose.psi), cfg)
        - channel_matrix(Pose(pose.x, pose.y - dx, pose.psi), cfg)
    ) / (2 * dx)
    j_psi = (
        channel_matrix(Pose(pose.x, pose.y, pose.psi + dpsi), cfg)
        - channel_matrix(Pose(pose.x, pose.y, pose.psi - dpsi), cfg)
    ) / (2 * dpsi)
    return j_x, j_y, j_psi


def test_channel_derivatives_match_finite_differences():
    cfg = small_cfg()
    rng = np.random.default_rng(1)
    d_fn = cfg.fresnel_distance
    for _ in range(25):
        r = rng.uniform(d_fn, 100.0)
        th = rng.uniform(-np.pi, np.pi)
        pose = Pose(r * np.cos(th), r * np.sin(th), rng.uniform(-np.pi, np.pi))
        exact = derivative_matrices(channel_derivatives(pose, cfg))
        approx = _fd_derivs(pose, cfg)
        for a, b in zip(exact, approx):
            scale = np.abs(a).max()
            assert np.abs(a - b).max() / scale < 1e-5


def test_heading_derivative_zero_for_single_ms_antenna():
    cfg = ArrayConfig(n_b=11, n_m=1, carrier_freq=F28)
    derivs = channel_derivatives(Pose(7, 3, 1.1), cfg)
    np.testing.assert_allclose(derivative_matrices(derivs)[2], 0.0, atol=1e-30)
    assert not derivs.gram[2].any() and not derivs.gram[:, 2].any()


def test_x_axis_mirror_symmetry():
    # y = 0, psi = 0: flipping the BS antenna index mirrors the geometry
    cfg = small_cfg()
    j_x = derivative_matrices(channel_derivatives(Pose(20, 0, 0), cfg))[0]
    np.testing.assert_allclose(j_x, j_x[::-1, :], rtol=1e-12)


def test_asymptotic_position_isotropy():
    cfg = small_cfg()
    pose = Pose(9, -13, 0.4)
    j_x, j_y, _ = channel_derivatives_asymptotic(pose, cfg)
    np.testing.assert_allclose(j_x / pose.x, j_y / pose.y, rtol=1e-12)


def test_asymptotic_heading_zero_at_aligned_pose():
    cfg = small_cfg()
    pose = Pose(10, 10, np.pi / 4)  # theta == psi
    j_psi = channel_derivatives_asymptotic(pose, cfg)[2]
    np.testing.assert_allclose(j_psi, 0.0, atol=1e-25)


def test_asymptotic_heading_norm_closed_form():
    # ||J~_psi||_F^2 via the index-sum identity sum n^2 = Nbar(Nbar+1)(2Nbar+1)/3
    cfg = small_cfg(n_b=41, n_m=11)
    pose = Pose(12, -9, 0.8)
    j_psi = channel_derivatives_asymptotic(pose, cfg)[2]
    eta = -(1.0 / pose.r + 2j * np.pi / cfg.wavelength)
    nbar = (cfg.n_m - 1) // 2
    idx_sq_sum = nbar * (nbar + 1) * (2 * nbar + 1) / 3
    # direct evaluation of the sum (exact amplitudes make this approximate)
    closed = (
        abs(eta) ** 2
        * cfg.d_m**2
        * np.sin(pose.theta - pose.psi) ** 2
        * (cfg.wavelength / (4 * np.pi * pose.r)) ** 2
        * cfg.n_b
        * idx_sq_sum
    )
    assert np.linalg.norm(j_psi) ** 2 == pytest.approx(closed, rel=0.01)


def test_asymptotic_error_decay_with_array_size():
    # Relative error halves per doubling when the pose tracks the Fresnel
    # distance (the approximation's domain of validity).
    cfg_nm = 9
    errs = {"x": [], "y": [], "psi": []}
    for n_b in (101, 202, 404):
        cfg = ArrayConfig(n_b=n_b, n_m=cfg_nm, carrier_freq=F28)
        s = 1.3 * cfg.fresnel_distance / np.sqrt(2)
        pose = Pose(s, -s, 3 * np.pi / 8)
        exact = derivative_matrices(channel_derivatives(pose, cfg))
        tilde = channel_derivatives_asymptotic(pose, cfg)
        for name, e, t in zip(("x", "y", "psi"), exact, tilde):
            errs[name].append(np.linalg.norm(e - t) ** 2 / np.linalg.norm(t) ** 2)
    for name, seq in errs.items():
        for first, second in zip(seq, seq[1:]):
            assert second / first < 0.8, f"no decay for {name}: {seq}"


def test_fresnel_distance_paper_array():
    cfg = ArrayConfig(n_b=275, n_m=75, carrier_freq=F28)
    expected = 0.62 * np.sqrt(cfg.aperture_b**3 / cfg.wavelength)
    assert cfg.fresnel_distance == pytest.approx(expected, rel=1e-12)
    assert cfg.fresnel_distance == pytest.approx(10.64, abs=0.05)


@pytest.mark.parametrize("n_b,n_m", [(101.9, 25), (101, 25.5), (101.0, 25), (True, 3),
                                     (5, np.bool_(True)), ("5", 3)])
def test_array_rejects_non_integer_counts(n_b, n_m):
    # int() alone would truncate 101.9 to 101 and read True as 1.
    with pytest.raises(TypeError, match="antenna counts must be integers"):
        ArrayConfig(n_b=n_b, n_m=n_m, carrier_freq=F28)


def test_array_accepts_numpy_integer_counts():
    cfg = ArrayConfig(n_b=np.int64(101), n_m=np.int32(25), carrier_freq=F28)
    assert (cfg.n_b, cfg.n_m) == (101, 25)
    assert type(cfg.n_b) is int and type(cfg.n_m) is int


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Pose(np.nan, 1.0, 0.0)
    # A str or bool is no real number: it used to be kept as given.
    for fields in ((True, 2.0, 0), (1.0, "2", 0), (1.0, 2.0, np.bool_(False))):
        with pytest.raises(TypeError, match="must be a real number"):
            Pose(*fields)
    pose = Pose(np.int64(3), 2, np.float32(0.5))
    assert (pose.x, pose.y, pose.psi) == (3.0, 2.0, 0.5)
    assert {type(v) for v in (pose.x, pose.y, pose.psi)} == {float}


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, "28e9", "0.005", True, np.bool_(True)])
def test_array_validation(bad):
    # A carrier or spacing that is not positive and finite is rejected; a NaN
    # carrier used to pass and end in a traceback deep in the filter.  A str
    # or bool is no real number: float() would read "28e9" as 28 GHz and True
    # as 1 Hz.
    error = TypeError if isinstance(bad, (str, bool, np.bool_)) else ValueError
    with pytest.raises(error):
        ArrayConfig(n_b=5, n_m=3, carrier_freq=bad)
    with pytest.raises(error):
        ArrayConfig(n_b=5, n_m=3, carrier_freq=F28, d_b=bad)
    with pytest.raises(error):
        ArrayConfig(n_b=5, n_m=3, carrier_freq=F28, d_m=bad)


def test_array_accepts_numpy_real_fields():
    cfg = ArrayConfig(101, 25, np.int64(28_000_000_000), d_b=np.float32(0.005), d_m=1)
    assert (cfg.carrier_freq, cfg.d_b, cfg.d_m) == (28e9, float(np.float32(0.005)), 1.0)
    assert {type(v) for v in (cfg.carrier_freq, cfg.d_b, cfg.d_m)} == {float}
