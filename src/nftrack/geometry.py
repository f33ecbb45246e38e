"""Antenna geometry and the spherical-wavefront LoS channel.

The base station is a uniform linear array along the y-axis centered at the
origin; the mobile station is a uniform linear array centered at (x, y) and
rotated by the heading psi.  Channel entries carry the exact per-element
free-space amplitude and phase; no far-field or uniform-amplitude shortcut is
used anywhere in the simulator.

The channel error between two poses needs no complex channel: with entry
amplitudes a = lambda/(4 pi r), the half-angle identity 1 - cos 2u = 2 sin^2 u
gives

    ||H(p) - H_ref||_F^2 = sum (a - a_ref)^2 + 4 a a_ref sin^2(pi (r - r_ref) / lambda),

one real sine of a small argument per entry (``channel_error_sq``).

The phase exp(-j 2 pi r / lambda) is evaluated two ways.  The tracking
filter's kernel (``_chain_terms``, behind ``pilot_response``, whose
observation Jacobian the svd_pe CRB policy shares) and ``channel_grid``
take numpy's complex exp, and the filter's outputs are pinned to its bits.
The compressed Fisher information (``ChannelDerivatives.compressed``) takes
the half-angle tangent tau = tan(pi r / lambda),
exp(-j theta) = (1 - tau^2 - 2j tau) / (1 + tau^2), exact and as accurate,
in real grids: numpy's float64 tan is a SIMD loop, its complex exp a scalar
one, about 20 times slower per entry.

The kernels write their (n_b, n_m) temporaries into one scratch set per
thread, kept for the thread's most recent array shape, so they allocate no
full grid but those they return.  Each expression keeps its operands and
evaluation order; only where a result is stored differs, so every bit is the
same.  The private helpers (``_pair_offsets``, ``_distance_terms``,
``_chain_terms``, ``_slope``) return views into that set, valid until the
next kernel call on the same thread.  Public results are fresh arrays:
``channel_grid`` (unless given arrays to write into), ``channel_matrix``,
``ChannelDerivatives.compressed``, and ``pilot_response``'s H x and
Jacobian.

All quantities are SI: meters, radians, Hz, Watts.
"""

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# The most entries a complex128 (n_b, n_m) grid can have in numpy's address space.
_MAX_GRID_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize


def antenna_indices(n: int) -> np.ndarray:
    """Signed antenna indices centered at 0.

    Odd n gives {-(n-1)/2, ..., (n-1)/2}; even n gives {-n/2, ..., n/2 - 1}.
    """
    if n < 1:
        raise ValueError(f"antenna count must be >= 1, got {n}")
    if n % 2:
        half = (n - 1) // 2
        return np.arange(-half, half + 1)
    half = n // 2
    return np.arange(-half, half)


# The types a real-valued field accepts; a bool is an int to Python, but no number here.
_REAL = (int, float, np.integer, np.floating)


def _typed(value, kinds, message: str):
    """value itself if it is an instance of kinds and not a bool, else TypeError."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{message}, got {value!r}")
    return value


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ArrayConfig:
    """BS/MS array sizes and spacings.

    Spacings default to half a wavelength when not given.
    """

    n_b: int
    n_m: int
    carrier_freq: float  # Hz
    d_b: float = None
    d_m: float = None

    def __post_init__(self):
        for name in ("n_b", "n_m"):
            count = _typed(getattr(self, name), (int, np.integer), "antenna counts must be integers")
            object.__setattr__(self, name, int(count))
        for name in ("carrier_freq", "d_b", "d_m"):
            if getattr(self, name) is not None:  # a spacing left out is half a wavelength
                value = _typed(getattr(self, name), _REAL, f"{name} must be a real number")
                object.__setattr__(self, name, float(value))
        if self.n_b < 1 or self.n_m < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.n_b * self.n_m > _MAX_GRID_ENTRIES:
            raise ValueError(f"antenna counts too large: n_b * n_m must be at most "
                             f"{_MAX_GRID_ENTRIES}, the entries of an addressable channel grid")
        if not 0 < self.carrier_freq < np.inf:
            raise ValueError("carrier frequency must be positive and finite")
        lam = SPEED_OF_LIGHT / self.carrier_freq
        object.__setattr__(self, "d_b", lam / 2 if self.d_b is None else self.d_b)
        object.__setattr__(self, "d_m", lam / 2 if self.d_m is None else self.d_m)
        if not (0 < self.d_b < np.inf and 0 < self.d_m < np.inf):
            raise ValueError("antenna spacings must be positive and finite")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def aperture_b(self) -> float:
        return (self.n_b - 1) * self.d_b

    @property
    def aperture_m(self) -> float:
        return (self.n_m - 1) * self.d_m

    @property
    def bs_indices(self) -> np.ndarray:
        return antenna_indices(self.n_b)

    @property
    def ms_indices(self) -> np.ndarray:
        return antenna_indices(self.n_m)

    # Float index rows of the distance grid, built once per array.
    @cached_property
    def ms_index_row(self) -> np.ndarray:
        """MS antenna indices as a (1, n_m) float row."""
        return _frozen(self.ms_indices[None, :].astype(float))

    @cached_property
    def ms_lever(self) -> np.ndarray:
        """(1, n_m) row of MS element offsets n d_m along the array axis, m."""
        return _frozen(self.ms_index_row * self.d_m)

    @cached_property
    def bs_offsets(self) -> np.ndarray:
        """(n_b, 1) column of BS element positions n d_b on the y-axis, m."""
        return _frozen(self.bs_indices[:, None].astype(float) * self.d_b)

    @cached_property
    def bs_negated_pairs(self) -> np.ndarray:
        """(n_b, 2) rows (-n d_b, 1): their product with a (2, n_m) stack
        (1, c) is the grid c - n d_b, one rounding per entry."""
        return _frozen(np.hstack((-self.bs_offsets, np.ones((self.n_b, 1)))))

    @property
    def fresnel_distance(self) -> float:
        """Boundary between the reactive and radiative near field of the BS."""
        return 0.62 * np.sqrt(self.aperture_b**3 / self.wavelength)


@dataclass(frozen=True)
class Pose:
    """Position of the MS array center plus heading w.r.t. the x-axis."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        if not type(self.x) is type(self.y) is type(self.psi) is float:
            for name in ("x", "y", "psi"):
                value = _typed(getattr(self, name), _REAL, f"pose {name} must be a real number")
                object.__setattr__(self, name, float(value))
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.psi)):
            raise ValueError("pose components must be finite")
        if self.x == 0.0 and self.y == 0.0:
            raise ValueError("MS cannot sit at the BS array center")

    @property
    def r(self) -> float:
        return float(np.hypot(self.x, self.y))

    @property
    def theta(self) -> float:
        return float(np.arctan2(self.y, self.x))


# S_(k+l) for the (p, q) pair (k, l) of the Gram's column sums, and the
# triangles that make the Gram exactly symmetric.
_MOMENT_PAIRS = np.array([[0, 1], [1, 2]])
_LOWER, _UPPER = ((1, 2, 2), (0, 0, 1)), ((0, 0, 1), (1, 2, 2))


def _affine_rows(pose: Pose, cfg: ArrayConfig) -> np.ndarray:
    """The (2, 3, n_m) rows (p, q) of r dr/dmu = p_mu + q_mu t_b over
    mu = (x, y, psi) and the MS columns, t_b = beta_b - y: p is
    (x + l cos psi, l sin psi, -x l sin psi) and q is (0, -1, -l cos psi)."""
    cos, sin = math.cos(pose.psi), math.sin(pose.psi)
    lever = cfg.ms_lever[0]
    pq = np.zeros((2, 3, cfg.n_m))
    dx, rise, twist = pq[0]
    np.add(pose.x, np.multiply(lever, cos, out=dx), out=dx)
    np.multiply(np.multiply(lever, sin, out=rise), -pose.x, out=twist)
    pq[1, 1], pq[1, 2] = -1.0, -cos * lever
    return pq


class ChannelDerivatives:
    """Exact channel derivatives J_x (1/m), J_y (1/m) and J_psi (1/rad) at one
    pose, never built as matrices: ``compressed`` gives Q J_mu for a combiner
    matrix Q, and ``gram`` the fully digital Gram, and neither builds a
    complex derivative matrix or a dr/dmu grid.

    J_mu = dh/dr * dr/dmu entry by entry with dr/dmu real, so
    Re tr(J_mu^H J_nu) = sum |dh/dr|^2 dr/dmu dr/dnu: the phase cancels and
    |dh/dr|^2 = (lambda / (4 pi r^2))^2 (1 + (2 pi r / lambda)^2).
    """

    def __init__(self, pose: Pose, cfg: ArrayConfig):
        self.pose = pose
        self.cfg = cfg

    def compressed(self, q: np.ndarray) -> np.ndarray:
        """Q J_x, Q J_y and Q J_psi as one (3, n_rf, n_m) array for an
        (n_rf, n_b) matrix q, with no complex derivative matrix.

        With E = (dh/dr)/r and the affine rows (p, q) of ``gram``,
        J_mu = E (p_mu + q_mu t_b) entry by entry, so column m of Q J_mu is
        p_mu (Q E)[:, m] + q_mu (Q diag(t) E)[:, m]: one product
        [Q; Q diag(t)] E gives all three.  E comes from the half-angle
        tangent (``_slope``), as stacked real and imaginary grids, and the
        product is one real GEMM.
        """
        pose, cfg = self.pose, self.cfg
        e = _slope(cfg, _pair_offsets(pose, cfg)[2], _scratch(cfg))
        a = np.concatenate((q, q * (cfg.bs_offsets[:, 0] - pose.y)))  # [Q; Q diag(t)]
        # [[Re A, -Im A], [Im A, Re A]] [Re E; Im E] = [Re AE; Im AE]
        n, n_b = a.shape
        m = np.empty((2 * n, 2 * n_b))
        m[:n, :n_b] = m[n:, n_b:] = a.real
        m[n:, :n_b] = a.imag
        np.negative(a.imag, out=m[:n, n_b:])
        prod = m @ e
        qe = (prod[:n] + 1j * prod[n:]).reshape(2, len(q), cfg.n_m)  # Q E, Q diag(t) E
        pq = _affine_rows(pose, cfg)[:, :, None]
        return pq[0] * qe[0] + pq[1] * qe[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """Re tr(J_mu^H J_nu) over (x, y, psi), from three column sums.

        With t_b = beta_b - y the BS element's offset from the MS center
        and l the lever arm of MS column m, r dr/dmu = p_mu + q_mu t_b is
        affine in t_b: (p, q) is (x + l cos psi, 0) for x, (l sin psi, -1)
        for y and (-x l sin psi, -l cos psi) for psi.  So with
        w = |dh/dr|^2 / r^2 and S_k = sum_b t_b^k w, which one product of
        the moment rows (1, t, t^2) with w gives,

            G_mu,nu = sum_m p_mu p_nu S0 + (p_mu q_nu + q_mu p_nu) S1 + q_mu q_nu S2.

        Two scratch grids, viewed as (n_m, n_b), hold 1/r^2 and w.
        """
        pose, cfg = self.pose, self.cfg
        lam = cfg.wavelength
        pq = _affine_rows(pose, cfg)
        dx = pq[0, 0]
        moments = np.ones((3, cfg.n_b))
        np.subtract(cfg.bs_offsets[:, 0], pose.y, out=moments[1])
        np.square(moments[1], out=moments[2])
        u, w = (g.reshape(cfg.n_m, cfg.n_b) for g in _scratch(cfg)[:2])
        # r dr/dy = l sin psi - t as a product over two terms: one rounded
        # sum per entry, as the subtraction, and faster than its broadcast.
        np.square(np.matmul(pq[:, 1].T, moments[:2], out=u), out=u)
        np.divide(1.0, np.add(u, (dx * dx)[:, None], out=u), out=u)
        # w / (lam / 4 pi)^2 = (1/r^2 + (2 pi / lam)^2) / r^4
        np.add(u, (2 * np.pi / lam) ** 2, out=w)
        np.multiply(np.multiply(w, u, out=w), u, out=w)
        g = np.einsum("kim,klm,ljm->ij", pq, (moments @ w.T)[_MOMENT_PAIRS], pq)
        g[_LOWER] = g[_UPPER]
        return np.multiply(g, (lam / (4 * np.pi)) ** 2, out=g)


def pair_distance(pose: Pose, cfg: ArrayConfig, n_b_idx, n_m_idx):
    """Distance between BS antenna n_b_idx and MS antenna n_m_idx.

    Accepts scalars or broadcastable index arrays.  MS indices outside the
    physical array address virtual elements on the extended array axis.
    """
    n_b_idx = np.asarray(n_b_idx, dtype=float)
    n_m_idx = np.asarray(n_m_idx, dtype=float)
    mx = pose.x + n_m_idx * cfg.d_m * np.cos(pose.psi)
    my = pose.y + n_m_idx * cfg.d_m * np.sin(pose.psi)
    d = np.sqrt(mx**2 + (my - n_b_idx * cfg.d_b) ** 2)
    return float(d) if d.ndim == 0 else d


def _grids(shape, n_real: int, n_complex: int) -> list:
    """n_real float and then n_complex complex grids of the given shape, carved
    from one allocation.  One block per call, not one per grid: once a block
    is freed, glibc's dynamic mmap threshold covers blocks of its size, so the
    next ones come from the heap instead of fresh zeroed pages."""
    n = shape[0] * shape[1]
    block = np.empty((n_real + 2 * n_complex) * n)
    cplx = block[n_real * n:].view(complex)
    return ([block[i * n:(i + 1) * n].reshape(shape) for i in range(n_real)]
            + [cplx[i * n:(i + 1) * n].reshape(shape) for i in range(n_complex)])


_local = threading.local()


def _scratch(cfg: ArrayConfig) -> list:
    """This thread's work grids for cfg's shape: five real grids, then two
    complex ones.  Made anew when the shape changes."""
    shape = (cfg.n_b, cfg.n_m)
    if getattr(_local, "shape", None) != shape:
        _local.shape = _local.grids = None  # free the old block before making the new
        _local.grids = _grids(shape, 5, 2)
        _local.shape = shape
    return _local.grids


def _amplitudes(lam: float, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The entry amplitudes lambda / (4 pi r), written into out."""
    return np.divide(lam, np.multiply(4 * np.pi, r, out=out), out=out)


def _pair_offsets(pose: Pose, cfg: ArrayConfig):
    """Offsets (dx, dy) from every BS antenna to every MS antenna, and their
    (n_b, n_m) distance grid r.  dx depends only on the MS antenna, so it is
    kept as a (1, n_m) row; dy and r are scratch grids 0 and 1."""
    grid = _scratch(cfg)
    lever = cfg.ms_lever
    dx = pose.x + lever * math.cos(pose.psi)
    # (y + l sin psi) - beta as a product over two terms: the same rounded
    # difference per entry, and faster than the broadcast subtraction.
    rows = np.ones((2, cfg.n_m))
    np.add(pose.y, np.multiply(lever[0], math.sin(pose.psi), out=rows[1]), out=rows[1])
    dy = np.matmul(cfg.bs_negated_pairs, rows, out=grid[0])
    r = np.sqrt(np.add(dx**2, np.square(dy, out=grid[1]), out=grid[1]), out=grid[1])
    return dx, dy, r


def _distance_terms(pose: Pose, cfg: ArrayConfig):
    """The distance grid r and its real derivatives dr/d(x, y, psi), each
    (n_b, n_m): the one pose-derivative formula of the observation Jacobian.
    Scratch grids 0 to 3 hold dr/dy, r, dr/dx and dr/dpsi."""
    nm = cfg.ms_index_row
    grid = _scratch(cfg)
    dx, dy, r = _pair_offsets(pose, cfg)
    dr_dx = np.divide(dx, r, out=grid[2])
    dr_dy = np.divide(dy, r, out=dy)
    # -dr_dx * nm * d_m * sin(psi) + dr_dy * nm * d_m * cos(psi), left to right.
    dr_dpsi = np.negative(dr_dx, out=grid[3])
    for factor in (nm, cfg.d_m, math.sin(pose.psi)):
        np.multiply(dr_dpsi, factor, out=dr_dpsi)
    term = np.multiply(dr_dy, nm, out=grid[4])
    for factor in (cfg.d_m, math.cos(pose.psi)):
        np.multiply(term, factor, out=term)
    np.add(dr_dpsi, term, out=dr_dpsi)
    return r, (dr_dx, dr_dy, dr_dpsi)


def _chain_terms(pose: Pose, cfg: ArrayConfig):
    """The shared kernel: r, the phase, dh/dr and dr/d(x, y, psi) on one grid.
    The phase and dh/dr are the two complex scratch grids."""
    lam = cfg.wavelength
    r, dr = _distance_terms(pose, cfg)
    work, phase, dh_dr = _scratch(cfg)[4:]
    np.exp(np.multiply(-2j * np.pi / lam, r, out=phase), out=phase)
    # -lam / (4 pi r^2) * (1 + 2j pi / lam * r) * phase, left to right.
    np.divide(-lam, np.multiply(4 * np.pi, np.square(r, out=work), out=work), out=work)
    np.add(1, np.multiply(2j * np.pi / lam, r, out=dh_dr), out=dh_dr)
    np.multiply(np.multiply(work, dh_dr, out=dh_dr), phase, out=dh_dr)
    return r, phase, dh_dr, dr


def _slope(cfg: ArrayConfig, r: np.ndarray, grid: list) -> np.ndarray:
    """E = (dh/dr)/r on the distance grid r, as the (2 n_b, n_m) stack of
    Re E over Im E in the floats of complex scratch grid 5.

    With theta = k r, k = 2 pi / lambda, and tau = tan(theta / 2),
    exp(-j theta) = (1 - tau^2 - 2j tau) / (1 + tau^2), so

        E = -lambda / (4 pi r^3 (1 + tau^2))
            * ((1 - tau^2 + 2 k r tau) + j (k r (1 - tau^2) - 2 tau)).

    Real grids 0, 2 and 3 are the work space, and the two output grids hold
    1 - tau^2 and k r on the way: six grids in all, r (which may be grid 1)
    included, so that more of them stay in cache.
    """
    lam = cfg.wavelength
    e = grid[5].view(float).reshape(2 * cfg.n_b, cfg.n_m)
    re, im = e[:cfg.n_b], e[cfg.n_b:]
    tau, u, kr_tau = grid[0], grid[2], grid[3]
    np.tan(np.multiply(r, np.pi / lam, out=tau), out=tau)
    np.square(tau, out=u)
    np.subtract(1.0, u, out=re)
    np.add(u, 1.0, out=u)
    np.add(tau, tau, out=tau)  # 2 tau from here on
    kr = np.multiply(r, 2 * np.pi / lam, out=im)
    np.multiply(kr, tau, out=kr_tau)
    np.subtract(np.multiply(kr, re, out=im), tau, out=im)
    np.add(re, kr_tau, out=re)
    for _ in range(3):
        np.multiply(u, r, out=u)
    np.divide(-lam / (4 * np.pi), u, out=u)
    np.multiply(re, u, out=re)
    np.multiply(im, u, out=im)
    return e


def channel_grid(pose: Pose, cfg: ArrayConfig, out=None):
    """The distance grid r, the amplitudes a = lambda/(4*pi*r) and the channel
    a * exp(-j*2*pi*r/lambda) of one pose, each (n_b, n_m): fresh arrays,
    carved from one allocation, or written into out = (r, a, h)."""
    lam = cfg.wavelength
    r, a, h = _grids((cfg.n_b, cfg.n_m), 2, 1) if out is None else out
    np.copyto(r, _pair_offsets(pose, cfg)[2])
    _amplitudes(lam, r, a)
    np.exp(np.multiply(-2j * np.pi / lam, r, out=h), out=h)
    return r, a, np.multiply(a, h, out=h)


def channel_matrix(pose: Pose, cfg: ArrayConfig) -> np.ndarray:
    """Exact LoS channel: entry = lambda/(4*pi*r_e) * exp(-j*2*pi*r_e/lambda)."""
    return channel_grid(pose, cfg)[2]


def channel_error_sq(pose: Pose, cfg: ArrayConfig, r_ref: np.ndarray, a_ref: np.ndarray) -> float:
    """||H(pose) - H_ref||_F^2 by the half-angle identity, with no complex array.

    r_ref and a_ref are the reference's distance grid and amplitudes, as
    ``channel_grid`` returns them.  Exactly 0.0 at the reference pose, and
    free of the rounding of the ~10^4 rad phases 2 pi r / lambda that the
    complex difference carries.
    """
    lam = cfg.wavelength
    _, dy, r = _pair_offsets(pose, cfg)
    a = _amplitudes(lam, r, _scratch(cfg)[4])
    # dy's grid takes the sine, and r's the amplitude difference.
    s = np.sin(np.multiply(np.pi / lam, np.subtract(r, r_ref, out=dy), out=dy), out=dy)
    da = np.subtract(a, a_ref, out=r)
    err = np.vdot(da, da)
    return float(err + 4.0 * np.vdot(np.multiply(a, a_ref, out=a), np.multiply(s, s, out=s)))


def channel_derivatives(pose: Pose, cfg: ArrayConfig) -> ChannelDerivatives:
    """Exact pose derivatives of the channel, via the chain rule through r_e.

    dh/dr = -lambda/(4*pi*r^2) * (1 + j*2*pi*r/lambda) * exp(-j*2*pi*r/lambda),
    and dr/dpsi combines dr/dx, dr/dy with the MS element lever arm.  No
    derivative matrix is built: ``compressed`` forms their products with a
    combiner from (dh/dr)/r and the affine rows of r dr/dmu, and ``gram``
    comes from three column sums over the squared distances alone.  Only
    ``pilot_response`` writes the matrices, in turn, into scratch.
    """
    return ChannelDerivatives(pose, cfg)


def pilot_response(pose: Pose, cfg: ArrayConfig, x: np.ndarray):
    """H(p) x and its (n_b, 5) state Jacobian [J_x x, J_y x, J_psi x, 0, 0]
    from one distance grid: the filter's observation Jacobian, which the
    svd_pe CRB policy takes too.

    The Jacobian's velocity columns are identically zero: a single snapshot
    carries no information about v or omega.  Bit-identical to
    ``channel_matrix(pose, cfg) @ x`` and to each J_mu = dh/dr * dr/dmu
    applied to x.
    """
    r, phase, dh_dr, dr = _chain_terms(pose, cfg)
    # The phase grid becomes H, then holds each derivative matrix in turn.
    h = np.multiply(_amplitudes(cfg.wavelength, r, _scratch(cfg)[4]), phase, out=phase)
    hx = h @ x
    b = np.zeros((cfg.n_b, 5), dtype=complex)
    for col in range(3):
        b[:, col] = np.multiply(dh_dr, dr[col], out=h) @ x
    return hx, b
