"""Test-side references: fresh copies of the exact channel derivative
matrices, their large-array (scaled-channel) approximations, which only
validation reads, and unit-modulus combiner matrices for the Combiner
contract (a matrix of phase shifters, or None for the identity)."""

import numpy as np

from nftrack.geometry import channel_matrix


def derivative_matrices(derivs) -> tuple:
    """(J_x, J_y, J_psi) of a ChannelDerivatives as fresh arrays: stream()
    yields each in scratch, valid only until the next kernel call."""
    return tuple(j.copy() for j in derivs.stream())


def channel_derivatives_asymptotic(pose, cfg):
    """Large-array limits (j_x, j_y, j_psi): position derivatives are scaled
    copies of the channel, the heading derivative is a column-scaled copy."""
    h = channel_matrix(pose, cfg)
    r = pose.r
    eta = -(1.0 / r + 2j * np.pi / cfg.wavelength)
    j_x = eta * (pose.x / r) * h
    j_y = eta * (pose.y / r) * h
    j_psi = eta * cfg.d_m * np.sin(pose.theta - pose.psi) * h * cfg.ms_index_row
    return j_x, j_y, j_psi


def dft_matrix(n: int) -> np.ndarray:
    """The n-point DFT matrix F: unit-modulus with F F^H = n I, so its
    row-space projection P_Q is the identity, as for the fully digital
    receiver, but held as a matrix."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def random_phases(rng: np.random.Generator, shape) -> np.ndarray:
    """A unit-modulus matrix of independent phases, uniform on [0, 2 pi)."""
    return np.exp(2j * np.pi * rng.random(shape))
