"""Constant turn rate and velocity (CTRV) motion model.

State is [x, y, psi, v, omega].  The heading is kept unwrapped throughout
filtering so the linearization stays smooth; wrapping happens only in the
reporting metrics.

The turning terms are evaluated through cancellation-free helpers of
u = omega * tau, so the transition and its Jacobian are exact for any turn
rate and continuous through omega = 0 (the naive closed form divides by
omega and loses up to half its digits below |omega| ~ 1e-3).
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _REAL, Pose, _typed

# |omega * tau| below this evaluates the u^-2-scaled helpers by series.
_U_SERIES = 1e-3


@dataclass(frozen=True)
class MsState:
    """Mobile-station state: pose plus linear speed and turn rate."""

    x: float
    y: float
    psi: float
    v: float
    omega: float

    def __post_init__(self):
        for name in ("x", "y", "psi", "v", "omega"):
            value = getattr(self, name)
            if type(value) is not float:  # np.float64 too: it subclasses float
                value = _typed(value, _REAL, f"state {name} must be a real number")
                object.__setattr__(self, name, float(value))

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi, self.v, self.omega], dtype=float)

    @classmethod
    def from_vector(cls, vec) -> "MsState":
        x, y, psi, v, omega = vec.tolist() if isinstance(vec, np.ndarray) else vec
        return cls(x, y, psi, v, omega)

    @property
    def pose(self) -> Pose:
        return Pose(self.x, self.y, self.psi)


@dataclass(frozen=True)
class ProcessNoiseSpec:
    """Accelerations enter as velocity noise over one sampling interval.

    Covariance is diag(0, 0, 0, (tau*sigma_v)^2, (tau*sigma_omega)^2):
    positions and heading receive no direct noise.  It is built once per
    spec and read-only.
    """

    sigma_v: float  # m/s^2
    sigma_omega: float  # rad/s^2
    tau: float  # s

    def __post_init__(self):
        for name in ("sigma_v", "sigma_omega", "tau"):
            value = _typed(getattr(self, name), _REAL, f"{name} must be a real number")
            object.__setattr__(self, name, float(value))
        if not np.isfinite([self.sigma_v, self.sigma_omega, self.tau]).all():
            raise ValueError("process noise parameters must be finite")
        if self.sigma_v < 0 or self.sigma_omega < 0:
            raise ValueError("noise standard deviations must be nonnegative")
        if self.tau <= 0:
            raise ValueError("sampling interval must be positive")
        if self.tau * max(self.sigma_v, self.sigma_omega) >= np.sqrt(np.finfo(float).max):
            raise ValueError("process noise covariance (tau sigma)^2 must be finite")
        n = np.zeros((5, 5))
        n[3, 3] = (self.tau * self.sigma_v) ** 2
        n[4, 4] = (self.tau * self.sigma_omega) ** 2
        n.flags.writeable = False
        object.__setattr__(self, "_covariance", n)

    def __reduce__(self):
        # Copies and unpickled specs rebuild their covariance read-only.
        return type(self), (self.sigma_v, self.sigma_omega, self.tau)

    def covariance(self) -> np.ndarray:
        return self._covariance


def _s1(u: float) -> float:
    """sin(u)/u."""
    return 1.0 if u == 0.0 else math.sin(u) / u


def _s2(u: float) -> float:
    """(1 - cos(u))/u, evaluated as 2 sin^2(u/2)/u."""
    return 0.0 if u == 0.0 else 2.0 * math.sin(0.5 * u) ** 2 / u


def _g1(u: float) -> float:
    """(u cos(u) - sin(u))/u^2; series below the cancellation threshold."""
    if abs(u) < _U_SERIES:
        return u * (-1.0 / 3.0 + u * u / 30.0)
    return (u * math.cos(u) - math.sin(u)) / (u * u)


def _g2(u: float) -> float:
    """(u sin(u) + cos(u) - 1)/u^2; series below the cancellation threshold."""
    if abs(u) < _U_SERIES:
        return 0.5 - u * u / 8.0 + u**4 / 144.0
    return (u * math.sin(u) + math.cos(u) - 1.0) / (u * u)


def ctrv_transition(state: MsState, tau: float) -> MsState:
    """Propagate the state over one interval of duration tau.

    x' = x + v*tau*(cos(psi) s1(u) - sin(psi) s2(u)) with u = omega*tau,
    which equals the familiar (v/omega)-form whenever omega != 0 and reduces
    to the constant-velocity limit at omega = 0.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    u = state.omega * tau
    s1, s2 = _s1(u), _s2(u)
    cos_p, sin_p = math.cos(state.psi), math.sin(state.psi)
    x_new = state.x + state.v * tau * (cos_p * s1 - sin_p * s2)
    y_new = state.y + state.v * tau * (sin_p * s1 + cos_p * s2)
    return MsState(x_new, y_new, state.psi + u, state.v, state.omega)


def ctrv_jacobian(state: MsState, tau: float) -> np.ndarray:
    """Analytic 5x5 Jacobian of the CTRV transition at the given state."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    u = state.omega * tau
    v = state.v
    s1, s2 = _s1(u), _s2(u)
    g1, g2 = _g1(u), _g2(u)
    cos_p, sin_p = math.cos(state.psi), math.sin(state.psi)

    along = cos_p * s1 - sin_p * s2
    across = sin_p * s1 + cos_p * s2
    return np.array([
        [1.0, 0.0, -v * tau * across, tau * along, v * tau * tau * (cos_p * g1 - sin_p * g2)],
        [0.0, 1.0, v * tau * along, tau * across, v * tau * tau * (sin_p * g1 + cos_p * g2)],
        [0.0, 0.0, 1.0, 0.0, tau],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])


def sample_process_noise(spec: ProcessNoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean Gaussian 5-vector; only velocity components are perturbed."""
    noise = np.zeros(5)
    noise[3] = spec.tau * spec.sigma_v * rng.standard_normal()
    noise[4] = spec.tau * spec.sigma_omega * rng.standard_normal()
    return noise
