"""Fisher-information analysis and the Bayesian CRB recursion.

expected_fim integrates the per-pilot information over the pilot distribution
in closed form, and avg_fisher is its pose diagonal.

The Bayesian CRB along the nominal trajectory (Tichavsky, Muravchik &
Nehorai, IEEE TSP 1998) is, with A the CTRV Jacobian at the nominal state,

    J_k = (A J_{k-1}^-1 A^T + Q)^-1 + E[F_d(p_k)].

In covariance form P_k = J_k^-1 this is the filter's own recursion: the
predicted covariance A P_{k-1} A^T + Q of ekf_predict, then the update
(P^-1 + F)^-1 with the expected data FIM at the nominal next pose in place
of the observed one.  So bayesian_fim_step runs on the filter's predict and
psd_inverse.  The process noise drives only v and omega, so Q is singular,
and the textbook form D11 = E[A^T Q^-1 A] does not exist; the covariance
form never inverts Q, only A P A^T + Q, which is positive definite whenever
P is (A is unit upper triangular).

For the fully digital receiver (identity combiner) the phase cancels: every
channel entry depends on the pose only through its distance r, so
J_mu = dh/dr * dr/dmu with dr/dmu real, and

    Re tr(J_mu^H J_nu) = sum |dh/dr|^2 dr/dmu dr/dnu,
    |dh/dr|^2 = (lambda / (4 pi r^2))^2 (1 + (2 pi r / lambda)^2).

In each MS column, r dr/dmu is affine in the BS element position, so that
pose Gram (``ChannelDerivatives.gram``) is three column sums of
|dh/dr|^2 / r^2 weighted by 1, the position and its square: the identity
branch of expected_fim builds no complex matrix and no dr/dmu grid.

With an analog combiner Q the same rows give Q J_mu: with E = (dh/dr)/r,
J_mu = E (p_mu + q_mu t_b) entry by entry, so each MS column of Q J_mu is
p_mu (Q E) + q_mu (Q diag(t) E), and one product [Q; Q diag(t)] E gives
all three (``ChannelDerivatives.compressed``).  E takes its phase from the
half-angle tangent, in real grids, so the compressed branch builds no
complex grid either: one solve with Q Q^H and one contraction follow.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ProcessNoiseSpec
from .errors import AssumptionViolated
from .estimation import Belief, Combiner, ekf_predict, psd_inverse
from .geometry import ArrayConfig, ChannelDerivatives, Pose, channel_derivatives


@dataclass(frozen=True)
class AvgFisher:
    """Fisher information per pose parameter, averaged over the pilot."""

    f_x: float  # 1/m^2
    f_y: float  # 1/m^2
    f_psi: float  # 1/rad^2


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
    P_Q = Q^H (Q Q^H)^-1 Q, so with Q a matrix the entry is
    Re tr((Q J_mu)^H (Q Q^H)^-1 Q J_nu), from the compressed derivatives;
    the identity combiner takes the pose Gram.
    """
    scale = 2.0 * p_m / (noise_power * n_m)
    f = np.zeros((5, 5))
    if q.q is None:
        f[:3, :3] = scale * derivs.gram
        return f
    qj = derivs.compressed(q.q)  # Q J_mu, (3, n_rf, n_m)
    n_rf = qj.shape[1]
    rhs = qj.transpose(1, 0, 2).reshape(n_rf, -1)
    projected = q.solve_gram(rhs).reshape(n_rf, 3, -1).transpose(1, 0, 2)  # (QQ^H)^-1 Q J_nu
    # Each entry one pairwise sum over (n_rf, n_m), as np.sum adds a contiguous block.
    g = scale * np.sum(np.conj(qj)[:, None] * projected, axis=(2, 3)).real
    f[:3, :3] = np.triu(g) + np.triu(g, 1).T
    return f


def fisher_scaling_bounds(
    pose: Pose, cfg: ArrayConfig, p_m: float, noise_power: float
) -> "tuple[float, float]":
    """Leading-order ceilings on position and orientation information.

    position: P_m * n_b / (2 sigma^2 r^2)
    orientation: P_m * n_b * (D_m_eff)^2 / (24 sigma^2 r^2) * (1 + 2/(n_m - 1))
    Valid only beyond the Fresnel distance of the BS array.
    """
    r, d_fresnel = pose.r, cfg.fresnel_distance
    if r <= d_fresnel:
        raise AssumptionViolated(f"r = {r:.2f} m is inside the Fresnel distance {d_fresnel:.2f} m")
    position = p_m * cfg.n_b / (2.0 * noise_power * r**2)
    if cfg.n_m == 1:
        return position, 0.0
    # The MS aperture projected orthogonal to the MS-BS line.
    d_m_eff = cfg.aperture_m * abs(np.sin(pose.theta - pose.psi))
    orientation = (
        p_m * cfg.n_b * d_m_eff**2 / (24.0 * noise_power * r**2) * (1.0 + 2.0 / (cfg.n_m - 1))
    )
    return position, orientation


def bayesian_fim_step(
    bound: Belief,
    cfg: ArrayConfig,
    spec: ProcessNoiseSpec,
    pilot_power: float,
    noise_power: float,
    q_policy: Callable[[Pose], Combiner],
) -> Belief:
    """One step of the Bayesian CRB along the nominal trajectory.

    bound.mean is the nominal true state and bound.cov the bound at it.  The
    bound is predicted as the filter predicts its covariance, then updated
    with the expected data information at the nominal next pose.  Process
    noise perturbs only v and omega, so every next state the motion model
    can reach shares that pose, and the expectation of the data information
    over the next state is its value there.  q_policy(pose) gives the
    combiner at that pose.
    """
    prior = ekf_predict(bound, spec)
    pose = prior.mean.pose
    q = q_policy(pose)
    f_d = expected_fim(channel_derivatives(pose, cfg), q, pilot_power, noise_power, cfg.n_m)
    return Belief(prior.mean, psd_inverse(prior.info + f_d))
