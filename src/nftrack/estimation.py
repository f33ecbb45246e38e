"""Information-form extended Kalman filter over the compressed observation.

The complex observation enters through a real score vector and Fisher
information matrix; the posterior covariance is the inverse of prior
information plus data information.  All covariance outputs are explicitly
symmetrized to suppress drift over long runs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .dynamics import MsState, ProcessNoiseSpec, ctrv_jacobian, ctrv_transition
from .errors import RankDeficientCombiner, SingularPriorCovariance

# Relative singular-value gate below which combiner rows count as dependent.
_RANK_RTOL = 1e-8

# Cholesky factor and solve by dtype, resolved once: psd_inverse works in
# float64, Combiner Gram matrices are complex128.
_POTRF = {np.dtype(t): get_lapack_funcs(("potrf",), dtype=t)[0] for t in (float, complex)}
_POTRS = {np.dtype(t): get_lapack_funcs(("potrs",), dtype=t)[0] for t in (float, complex)}


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a square matrix, upper triangle left as is.

    The same LAPACK potrf call as scipy.linalg.cho_factor(a, lower=True),
    without its wrapper: ValueError for non-finite input, LinAlgError for a
    matrix that is not positive definite.
    """
    _check_finite(a)
    c, info = _POTRF[a.dtype](a, lower=True, overwrite_a=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b from the factor c of A, as scipy.linalg.cho_solve((c, True), b)."""
    b = np.asarray(b)
    _check_finite(c)
    _check_finite(b)
    x, info = _POTRS[np.result_type(c, b)](c, b, lower=True, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _factor_screen(l: np.ndarray, gram: np.ndarray):
    """True where the Cholesky factor L of a Gram matrix G = Q Q^H (or of
    each in a stack) proves Q well above the rank gate.

    prod L_ii^2 = det G <= lambda_min lambda_max^(n-1) and tr G >= lambda_max,
    so det G > 1e-12 (tr G)^n implies lambda_min / lambda_max > 1e-12, i.e.
    a singular-value ratio above 1e-6, far above _RANK_RTOL.  False settles
    nothing: the caller must run the gate itself.
    """
    d = l.diagonal(0, -2, -1).real
    tr = gram.diagonal(0, -2, -1).real.sum(-1)
    return (d * d).prod(-1) > 1e-12 * tr ** gram.shape[-1]


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
    """Analog combining matrix; its Gram matrix Q Q^H is factored once per
    instance by a direct LAPACK potrf call, behind the rank gate."""

    def __init__(self, q: np.ndarray, unit_modulus: bool, is_identity: bool = False):
        q = np.asarray(q, dtype=complex)
        if q.ndim != 2:
            raise ValueError("combiner must be a 2-D matrix")
        if unit_modulus and not (np.abs(np.abs(q) - 1.0) <= 1e-9).all():
            raise ValueError("unit-modulus combiner has entries away from the unit circle")
        self.q = q
        self.is_identity = is_identity
        self._gram_factor = None

    @property
    def n_rf(self) -> int:
        return self.q.shape[0]

    @property
    def n_b(self) -> int:
        return self.q.shape[1]

    def _gram(self) -> np.ndarray:
        """Lower Cholesky factor of Q Q^H, behind the rank gate."""
        if self._gram_factor is None:
            self._gram_factor = _gated_factor(self.q, _cho_factor)
        return self._gram_factor

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Compress a full-array vector: Q y."""
        if self.is_identity:
            return np.array(y, copy=True)
        return self.q @ y

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """(Q Q^H)^-1 rhs."""
        return _cho_solve(self._gram(), rhs)


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


def psd_inverse(m: np.ndarray, exc=SingularPriorCovariance) -> np.ndarray:
    """Invert a symmetric PSD matrix by Cholesky; one jitter retry, then fail.

    The factor and solve are direct LAPACK potrf/potrs calls, the same
    routines and arguments as scipy's cho_factor/cho_solve.
    """
    ms = _symmetrize(np.asarray(m, dtype=float))
    eye = np.eye(ms.shape[0])
    for attempt in range(2):
        try:
            return _symmetrize(_cho_solve(_cho_factor(ms), eye))
        except (np.linalg.LinAlgError, ValueError):
            # ValueError covers NaN/inf contamination after divergence.
            if attempt == 1:
                break
            ms = ms + (1e-12 * np.trace(ms) / ms.shape[0]) * eye
    raise exc("covariance not positive definite even after jitter")


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
    residual = z - q.apply(predicted_obs)
    if not q.is_identity:
        residual = q.q.conj().T @ q.solve_gram(residual)
    return (2.0 / noise_power) * np.real(b.conj().T @ residual)


def fim(b: np.ndarray, q: Combiner, noise_power: float) -> np.ndarray:
    """Fisher information of one compressed snapshot:
    (2/sigma^2) Re{ B^H P_Q B }, symmetric PSD with zero velocity rows."""
    if q.is_identity:
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
    """
    f = fim(b_jac, q, noise_power)
    g = score(z, q, b_jac, predicted_obs, noise_power)

    post_cov = psd_inverse(prior.info + f)
    post_mean = prior.mean.as_vector() + post_cov @ g
    return Belief(mean=MsState.from_vector(post_mean), cov=_symmetrize(post_cov))
