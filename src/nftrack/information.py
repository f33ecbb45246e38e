"""Fisher-information analysis and the Bayesian CRB recursion.

expected_fim integrates the per-pilot information over the pilot distribution
in closed form, and avg_fisher is its pose diagonal.  The Bayesian bound
combines information transported through the motion model with the expected
data information of each new snapshot, evaluated at the nominal next pose.

For the fully digital receiver (identity combiner) the phase cancels: every
channel entry depends on the pose only through its distance r, so
J_mu = dh/dr * dr/dmu with dr/dmu real, and

    Re tr(J_mu^H J_nu) = sum |dh/dr|^2 dr/dmu dr/dnu,
    |dh/dr|^2 = (lambda / (4 pi r^2))^2 (1 + (2 pi r / lambda)^2).

That pose Gram (``ChannelDerivatives.gram``) is real arithmetic on the
distance grid, so the identity branch of expected_fim builds no complex matrix.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import MsState, ProcessNoiseSpec, ctrv_jacobian, ctrv_transition
from .errors import AssumptionViolated
from .estimation import Combiner, _cho_factor, _cho_solve, _symmetrize
from .geometry import ArrayConfig, ChannelDerivatives, Pose, channel_derivatives, geometry_summary


@dataclass(frozen=True)
class AvgFisher:
    """Pilot-averaged Fisher information per pose parameter."""

    f_x: float  # 1/m^2
    f_y: float  # 1/m^2
    f_psi: float  # 1/rad^2


@dataclass(frozen=True)
class BayesianFimState:
    f_b: np.ndarray  # 5x5 Bayesian Fisher information
    k: int


def avg_fisher(
    derivs: ChannelDerivatives,
    q: Combiner,
    p_m: float,
    noise_power: float,
    n_m: int,
) -> AvgFisher:
    """The pose diagonal of expected_fim: (2 P_m / (sigma^2 N_m)) ||P_Q J_mu||_F^2."""
    return AvgFisher(*np.diagonal(expected_fim(derivs, q, p_m, noise_power, n_m))[:3].tolist())


def expected_fim(
    derivs: ChannelDerivatives,
    q: Combiner,
    p_m: float,
    noise_power: float,
    n_m: int,
) -> np.ndarray:
    """Full 5x5 pilot-averaged data FIM.

    Entry (mu, nu) over the pose block is
    (2 P_m / (sigma^2 N_m)) Re tr(J_mu^H P_Q J_nu); velocity rows are zero.
    """
    scale = 2.0 * p_m / (noise_power * n_m)
    f = np.zeros((5, 5))
    if q.is_identity:
        f[:3, :3] = scale * derivs.gram
        return f
    originals = [q.q @ j for j in derivs]  # Q J_mu
    projected = [q.solve_gram(w) for w in originals]  # (QQ^H)^-1 Q J_nu
    for i in range(3):
        for j_idx in range(i, 3):
            val = scale * float(
                np.real(np.sum(np.conj(originals[i]) * projected[j_idx]))
            )
            f[i, j_idx] = val
            f[j_idx, i] = val
    return f


def fisher_scaling_bounds(
    pose: Pose, cfg: ArrayConfig, p_m: float, noise_power: float
) -> "tuple[float, float]":
    """Leading-order ceilings on position and orientation information.

    position: P_m * n_b / (2 sigma^2 r^2)
    orientation: P_m * n_b * (D_m_eff)^2 / (24 sigma^2 r^2) * (1 + 2/(n_m - 1))
    Valid only beyond the Fresnel distance of the BS array.
    """
    geom = geometry_summary(pose, cfg)
    if geom.r <= geom.d_fresnel:
        raise AssumptionViolated(
            f"r = {geom.r:.2f} m is inside the Fresnel distance {geom.d_fresnel:.2f} m"
        )
    position = p_m * cfg.n_b / (2.0 * noise_power * geom.r**2)
    if cfg.n_m == 1:
        return position, 0.0
    orientation = (
        p_m
        * cfg.n_b
        * geom.d_m_eff**2
        / (24.0 * noise_power * geom.r**2)
        * (1.0 + 2.0 / (cfg.n_m - 1))
    )
    return position, orientation


def bayesian_fim_init(prior_cov0: np.ndarray) -> BayesianFimState:
    """Gaussian prior: initial Bayesian FIM is the inverse prior covariance."""
    cov = _symmetrize(np.asarray(prior_cov0, dtype=float))
    inv = _cho_solve(_cho_factor(cov), np.eye(5))  # LinAlgError if not PD
    return BayesianFimState(f_b=_symmetrize(inv), k=0)


def bayesian_fim_step(
    state: BayesianFimState,
    true_state_prev: MsState,
    cfg: ArrayConfig,
    spec: ProcessNoiseSpec,
    pilot_power: float,
    noise_power: float,
    q_policy: Callable[[Pose, ChannelDerivatives], Combiner],
) -> BayesianFimState:
    """One recursion step: transported prior information plus the expected
    data information at the nominal next pose.

    Process noise perturbs only v and omega, so every next state the motion
    model can reach from true_state_prev shares the nominal pose, and the
    expectation of the data information over the next state is its value
    there.  q_policy(pose, derivs) receives the channel derivatives of that
    pose, which the data information then reuses.
    """
    a = ctrv_jacobian(true_state_prev, spec.tau)
    f_prev_inv = np.linalg.solve(_symmetrize(state.f_b), np.eye(5))
    f_p = np.linalg.solve(
        _symmetrize(a @ f_prev_inv @ a.T + spec.covariance()), np.eye(5)
    )
    pose = ctrv_transition(true_state_prev, spec.tau).pose
    derivs = channel_derivatives(pose, cfg)
    f_d = expected_fim(derivs, q_policy(pose, derivs), pilot_power, noise_power, cfg.n_m)
    return BayesianFimState(f_b=_symmetrize(f_p + f_d), k=state.k + 1)


def bcrb(state: BayesianFimState) -> np.ndarray:
    """Inverse Bayesian FIM: lower bound on the tracking error covariance."""
    inv = np.linalg.solve(_symmetrize(state.f_b), np.eye(5))
    return _symmetrize(inv)
