"""Information-form extended Kalman filter over the compressed observation.

The complex observation enters through a real score vector and Fisher
information matrix; the posterior covariance is the inverse of prior
information plus data information.  All covariance outputs are explicitly
symmetrized to suppress drift over long runs.  The analog combiner
(``Combiner``) is a bank of phase shifters, held as a matrix of unit-modulus
entries, or None, the fully digital receiver's identity.

Every Cholesky factor and solve is a direct call of scipy's LAPACK potrf and
potrs wrappers, the objects scipy.linalg.get_lapack_funcs returns, so results
match scipy's cho_factor/cho_solve byte for byte.  The wrapper module is loaded
from its file without importing scipy.linalg, which would double the import
time of nftrack (see ``_load_flapack``).
"""

import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Optional

import numpy as np

from .dynamics import MsState, ProcessNoiseSpec, ctrv_jacobian, ctrv_transition
from .errors import RankDeficientCombiner, SingularPriorCovariance

# Relative singular-value gate below which combiner rows count as dependent.
_RANK_RTOL = 1e-8


def _load_flapack():
    """scipy's f2py LAPACK module scipy.linalg._flapack, loaded from its file.

    It is a single-phase extension module, which CPython initializes once per
    process and caches: whether scipy.linalg is imported before or after this
    load, its routines are the very objects get_lapack_funcs returns.  The
    module is left out of sys.modules unless scipy.linalg put it there, so a
    later ``import scipy.linalg`` registers it in the usual way.
    """
    name = "scipy.linalg._flapack"
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("nftrack requires scipy", name="scipy")
    base = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    path = next((base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrappers not found: no {base}<suffix> for the "
                          f"extension suffixes {EXTENSION_SUFFIXES}", name=name, path=base)
    registered = name in sys.modules
    loader = ExtensionFileLoader(name, path)
    module = loader.create_module(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    if not registered:
        sys.modules.pop(name, None)
    return module


# Cholesky factor and solve by dtype, resolved once: psd_inverse works in
# float64, Combiner Gram matrices are complex128.
_flapack = _load_flapack()
_POTRF = {np.dtype(float): _flapack.dpotrf, np.dtype(complex): _flapack.zpotrf}
_POTRS = {np.dtype(float): _flapack.dpotrs, np.dtype(complex): _flapack.zpotrs}


def _check_finite(a: np.ndarray) -> None:
    # ndarray.all without its Python wrapper: the same reduction.
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("array must not contain infs or NaNs")


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a square matrix, upper triangle left as is.

    The same LAPACK potrf call as scipy.linalg.cho_factor(a, lower=True),
    through the same wrapper object (scipy's ``_flapack``, loaded without
    scipy.linalg) but without cho_factor's Python layer: ValueError for
    non-finite input, LinAlgError for a matrix that is not positive definite.
    """
    _check_finite(a)
    c, info = _POTRF[a.dtype](a, lower=True, overwrite_a=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def _potrs(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b from a factor c that _cho_factor made, as
    scipy.linalg.cho_solve((c, True), b) without its finiteness checks:
    potrf's factor of a finite matrix is finite whenever it succeeds, since
    an entry that overflows makes a later pivot -inf or NaN.  Callers check a
    b that comes from outside."""
    x, info = _POTRS[np.result_type(c, b)](c, b, lower=True, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _factor_screen(l: np.ndarray, gram: np.ndarray):
    """True where the Cholesky factor L of a Gram matrix G = Q Q^H (or of
    each in a stack) proves Q well above the rank gate.

    By AM-GM on the other n - 1 eigenvalues, det G <= lambda_min
    (tr G / (n-1))^(n-1), and tr G >= lambda_max, so

        lambda_min / lambda_max >= det G (n-1)^(n-1) / (tr G)^n,

    and a right side above 1e-12 means a singular-value ratio above 1e-6,
    far above _RANK_RTOL.  With det G = prod L_ii^2 the right side is
    prod(L_ii^2 m / tr G) / m for m = max(n-1, 1); each factor is near
    1 - 1/n for a well-conditioned Q, so no n_rf < n_b overflows or
    underflows.  False settles nothing: the caller must run the gate itself.
    """
    m = max(gram.shape[-1] - 1, 1)
    d = l.diagonal(0, -2, -1).real
    tr = gram.diagonal(0, -2, -1).real.sum(-1)
    return (d * d * (m / tr)[..., None]).prod(-1) > 1e-12 * m


def _rank_gate(q: np.ndarray, gram: np.ndarray) -> None:
    """Raise RankDeficientCombiner where smallest/largest singular value of Q
    (or of each Q in a stack) is at most _RANK_RTOL.

    The Gram eigenvalues are the squared singular values, so squaring has
    lost the digits the gate needs; they only screen: a ratio above 1e-12
    passes for certain, anything else is settled by the SVD of that Q.
    """
    lam = np.linalg.eigvalsh(gram)
    screened = lam[..., 0] > 1e-12 * lam[..., -1]
    if screened.all():
        return
    for q_i in q.reshape(-1, *q.shape[-2:])[~screened.reshape(-1)]:
        svals = np.linalg.svd(q_i, compute_uv=False)
        if svals[-1] <= _RANK_RTOL * svals[0]:
            raise RankDeficientCombiner(
                f"smallest singular value {svals[-1]:.3e} under gate "
                f"{_RANK_RTOL:.0e} x {svals[0]:.3e}"
            )


def _gated_factor(q: np.ndarray, factor) -> np.ndarray:
    """Lower Cholesky factor factor(G) of G = Q Q^H, for a combiner or a stack.
    The rank gate runs only where factor fails (re-raising if Q passes the
    gate) or where _factor_screen cannot vouch for Q."""
    gram = q @ q.conj().swapaxes(-1, -2)
    try:
        chol = factor(gram)
    except (np.linalg.LinAlgError, ValueError):
        _rank_gate(q, gram)
        raise
    if not _factor_screen(chol, gram).all():
        _rank_gate(q, gram)
    return chol


class Combiner:
    """Analog combiner: a bank of phase shifters, so q is a matrix of
    unit-modulus entries (within 1e-9), or None for the fully digital
    receiver.  The Gram matrix Q Q^H is factored once per instance by a
    direct LAPACK potrf call, behind the rank gate.

    q None is the identity (every antenna has its own RF chain): it holds no
    matrix, and apply, score, fim and expected_fim take their identity
    branches, so no n_b x n_b array is ever built for it.
    """

    def __init__(self, q: Optional[np.ndarray]):
        if q is not None:
            q = np.asarray(q, dtype=complex)
            if q.ndim != 2:
                raise ValueError("combiner must be a 2-D matrix")
            _check_finite(q)  # before any Gram product
            if not (np.abs(np.abs(q) - 1.0) <= 1e-9).all():
                raise ValueError("unit-modulus combiner has entries away from the unit circle")
        self.q = q
        self._gram_factor = None

    def _gram(self) -> np.ndarray:
        """Lower Cholesky factor of Q Q^H, behind the rank gate."""
        if self._gram_factor is None:
            self._gram_factor = _gated_factor(self.q, _cho_factor)
        return self._gram_factor

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Compress a full-array vector: Q y."""
        if self.q is None:
            return np.array(y, copy=True)
        return self.q @ y

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """(Q Q^H)^-1 rhs; ValueError for a non-finite rhs."""
        rhs = np.asarray(rhs)
        _check_finite(rhs)
        return _potrs(self._gram(), rhs)


@dataclass(frozen=True)
class Belief:
    """State estimate with covariance (prior or posterior)."""

    mean: MsState
    cov: np.ndarray

    @cached_property
    def info(self) -> np.ndarray:
        """Information matrix cov^-1 by psd_inverse, computed once and shared
        by the combiner design and the update of the same step."""
        return psd_inverse(self.cov)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def psd_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric PSD matrix by Cholesky; one jitter retry, then fail.
    A non-finite matrix fails at once: no jitter can make it finite.

    The factor and solve are direct LAPACK potrf/potrs calls, the same
    routines and arguments as scipy's cho_factor/cho_solve.  The result is
    exactly symmetric: entries ij and ji are both 0.5 (x_ij + x_ji).
    """
    ms = _symmetrize(np.asarray(m, dtype=float))
    eye = _identity(ms.shape[0])
    for attempt in range(2):
        try:
            return _symmetrize(_potrs(_cho_factor(ms), eye))
        except (np.linalg.LinAlgError, ValueError):
            # ValueError covers NaN/inf contamination after divergence.
            if attempt == 1 or not np.isfinite(ms).all():
                break
            ms = ms + (1e-12 * np.trace(ms) / ms.shape[0]) * eye
    raise SingularPriorCovariance("covariance not finite, or not positive definite after jitter")


def score(
    z: np.ndarray,
    q: Combiner,
    b: np.ndarray,
    predicted_obs: np.ndarray,
    noise_power: float,
) -> np.ndarray:
    """Gradient of the compressed-observation log-likelihood w.r.t. the state.

    g = (2/sigma^2) Re{ B^H Q^H (Q Q^H)^-1 (z - Q b_pred) }.
    """
    if q.q is None:
        residual = z - predicted_obs
    else:
        residual = q.q.conj().T @ q.solve_gram(z - q.q @ predicted_obs)
    return (2.0 / noise_power) * np.real(b.conj().T @ residual)


def fim(b: np.ndarray, q: Combiner, noise_power: float) -> np.ndarray:
    """Fisher information of one compressed snapshot:
    (2/sigma^2) Re{ B^H P_Q B }, symmetric PSD with zero velocity rows."""
    if q.q is None:
        core = b.conj().T @ b
    else:
        w = q.q @ b
        core = w.conj().T @ q.solve_gram(w)
    return _symmetrize((2.0 / noise_power) * np.real(core))


def ekf_predict(posterior: Belief, spec: ProcessNoiseSpec) -> Belief:
    """Propagate mean through the CTRV flow and covariance through its Jacobian."""
    a = ctrv_jacobian(posterior.mean, spec.tau)
    mean = ctrv_transition(posterior.mean, spec.tau)
    cov = _symmetrize(a @ posterior.cov @ a.T + spec.covariance())
    return Belief(mean=mean, cov=cov)


def ekf_update(
    prior: Belief,
    z: np.ndarray,
    q: Combiner,
    b_jac: np.ndarray,
    predicted_obs: np.ndarray,
    noise_power: float,
) -> Belief:
    """Information-form update linearized at the prior mean.

    b_jac and predicted_obs are the observation Jacobian B and H(p) x at the prior mean.
    P_post = (P_prior^-1 + F)^-1 and mean_post = mean_prior + P_post g.
    psd_inverse already returns P_post exactly symmetric.
    """
    f = fim(b_jac, q, noise_power)
    g = score(z, q, b_jac, predicted_obs, noise_power)

    post_cov = psd_inverse(prior.info + f)
    post_mean = prior.mean.as_vector() + post_cov @ g
    return Belief(mean=MsState.from_vector(post_mean), cov=post_cov)
