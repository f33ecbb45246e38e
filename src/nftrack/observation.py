"""Uplink pilot and full-array snapshot.

The pilot is its complex symbol vector x, the x of y = H(p) x + n.
Observation noise is always drawn on the full BS array and compressed by the
combiner afterwards.  This preserves the correlated compressed-noise
covariance Q N Q^H and lets every combiner scheme in a campaign consume the
identical full-array noise realization.  The noiseless response H(p) x and
its state Jacobian come from ``geometry.pilot_response``.
"""

import numpy as np


def generate_pilot(rng: np.random.Generator, power_watts: float, n_m: int) -> np.ndarray:
    """n_m complex pilot symbols with E[x x^H] = (power_watts / n_m) I."""
    if not 0 < power_watts < np.inf:
        raise ValueError(f"pilot power must be positive and finite, got {power_watts}")
    scale = np.sqrt(power_watts / (2 * n_m))
    return scale * (rng.standard_normal(n_m) + 1j * rng.standard_normal(n_m))


def full_snapshot(
    h: np.ndarray, x: np.ndarray, noise_power: float, rng: np.random.Generator
) -> np.ndarray:
    """y = H x + n with n ~ CN(0, noise_power * I) on the full array; a zero
    noise power gives the noiseless H x."""
    n_b, n_m = h.shape
    if x.shape != (n_m,):
        raise ValueError(f"pilot length {x.shape} does not match channel columns {n_m}")
    if not 0 <= noise_power < np.inf:
        raise ValueError(f"noise power must be non-negative and finite, got {noise_power}")
    y = h @ x
    if noise_power > 0:
        scale = np.sqrt(noise_power / 2)
        y = y + scale * (rng.standard_normal(n_b) + 1j * rng.standard_normal(n_b))
    return y
