"""Uplink pilot and full-array snapshot.

Observation noise is always drawn on the full BS array and compressed by the
combiner afterwards.  This preserves the correlated compressed-noise
covariance Q N Q^H and lets every combiner scheme in a campaign consume the
identical full-array noise realization.  The noiseless response H(p) x and
its state Jacobian come from ``geometry.pilot_response``.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pilot:
    """Complex pilot symbols with E[x x^H] = (power / n_m) I."""

    symbols: np.ndarray
    power: float  # W


def generate_pilot(rng: np.random.Generator, power_watts: float, n_m: int) -> Pilot:
    if power_watts <= 0:
        raise ValueError("pilot power must be positive")
    scale = np.sqrt(power_watts / (2 * n_m))
    symbols = scale * (rng.standard_normal(n_m) + 1j * rng.standard_normal(n_m))
    return Pilot(symbols=symbols, power=power_watts)


def full_snapshot(
    h: np.ndarray, pilot: Pilot, noise_power: float, rng: np.random.Generator
) -> np.ndarray:
    """y = H x + n with n ~ CN(0, noise_power * I) on the full array."""
    n_b, n_m = h.shape
    if pilot.symbols.shape != (n_m,):
        raise ValueError(f"pilot length {pilot.symbols.shape} does not match channel columns {n_m}")
    y = h @ pilot.symbols
    if noise_power > 0:
        scale = np.sqrt(noise_power / 2)
        y = y + scale * (rng.standard_normal(n_b) + 1j * rng.standard_normal(n_b))
    return y

