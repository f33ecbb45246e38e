"""Property tests of the information layer over random near-field geometries."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nftrack.combiners import combiner_fd, combiner_qom, combiner_random, combiner_svd_pe
from nftrack.errors import DegenerateGeometry
from nftrack.geometry import ArrayConfig, Pose, channel_derivatives
from nftrack.information import expected_fim
from nftrack.observation import generate_pilot, observation_jacobian

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
        "svd_pe": combiner_svd_pe(observation_jacobian(pose, cfg, pilot), n_rf),
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
