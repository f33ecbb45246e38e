"""Test-side references: the exact channel derivative matrices as plain
allocating expressions, their large-array (scaled-channel) approximations,
which only validation reads, and unit-modulus combiner matrices for the
Combiner contract (a matrix of phase shifters, or None for the identity)."""

import numpy as np

from nftrack.geometry import channel_matrix


def chain_terms(pose, cfg):
    """r, the phase exp(-j 2 pi r / lambda), dh/dr and dr/d(x, y, psi), each
    (n_b, n_m), from the lever-arm offsets with an array allocated per
    operation: the expressions the scratch-grid kernels must match bit for bit."""
    lam = cfg.wavelength
    nm = cfg.ms_index_row
    lever = cfg.ms_lever
    dx = pose.x + lever * np.cos(pose.psi)
    dy = pose.y + lever * np.sin(pose.psi) - cfg.bs_offsets
    r = np.sqrt(dx**2 + dy**2)
    dr_dx = dx / r
    dr_dy = dy / r
    dr_dpsi = -dr_dx * nm * cfg.d_m * np.sin(pose.psi) + dr_dy * nm * cfg.d_m * np.cos(pose.psi)
    phase = np.exp(-2j * np.pi / lam * r)
    dh_dr = -lam / (4 * np.pi * r**2) * (1 + 2j * np.pi / lam * r) * phase
    return r, phase, dh_dr, (dr_dx, dr_dy, dr_dpsi)


def derivative_matrices(derivs) -> tuple:
    """(J_x, J_y, J_psi) = dh/dr * dr/dmu at a ChannelDerivatives' pose, as
    fresh arrays."""
    _, _, dh_dr, dr = chain_terms(derivs.pose, derivs.cfg)
    return tuple(dh_dr * d for d in dr)


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
