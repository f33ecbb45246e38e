"""Analog combiner construction.

All builders consume only predicted quantities (predicted pose / predicted
observation Jacobian), never the simulation truth: the combiner must be
configured in the prediction stage, before the pilot arrives.

Five families:
  fd      identity matrix (every antenna has its own RF chain),
  random  fixed Rademacher (+/-1) rows,
  svd_pe  phases of the dominant left singular vectors of the predicted
          observation Jacobian,
  qom     beamfocusing vectors on quasi-orthogonal mode indices of the MS
          array, mixed edge-center ordered,
  mo      Riemannian descent on the unit-modulus manifold, minimizing the
          predicted posterior-covariance trace from a given starting point.

SCHEMES is the one table of scheme tokens, and PredictionBuilder the one
prediction-stage factory, fallbacks included, that tracking and the CRB use.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DegenerateGeometry, DegenerateJacobian, RankDeficientCombiner
from .estimation import _RANK_RTOL, Belief, Combiner, _factor_screen, _rank_deficient, psd_inverse
from .geometry import ArrayConfig, Pose, antenna_indices, pair_distance
from .rng import stream

ORDERINGS = ("center_first", "edge_first", "mixed_edge_center")

# |cos(theta) * sin(psi - theta)| below this counts as zero effective
# aperture: the mode resolution is undefined and callers must fall back.
_GEOMETRY_EPS = 1e-12

# Line-search step factors 2^j: up to ten doublings, or ten halvings.
_DOUBLINGS = 2.0 ** np.arange(1, 11)


@dataclass(frozen=True)
class CombinerSpec:
    """Scheme selector carried by the scenario configuration."""

    kind: str  # a kind of SCHEMES
    n_rf: int
    mo_init: Optional[str] = None  # initializer kind for kind == "mo"
    mo_iters: int = 5

    def __post_init__(self):
        if scheme_label(self) is None:
            raise ValueError(f"no scheme of kind {self.kind!r} with mo_init {self.mo_init!r}")
        if self.n_rf < 1:
            raise ValueError("n_rf must be >= 1")
        if self.kind == "mo" and self.mo_iters < 1:
            raise ValueError("mo_iters must be >= 1")


@dataclass(frozen=True)
class QomPlan:
    """Resolved quasi-orthogonal mode selection for one predicted pose."""

    delta: int
    ell0: int
    n_e: int
    indices: tuple  # selected mode indices, may extend past the array
    ordering: str


def combiner_fd(cfg: ArrayConfig) -> Combiner:
    """Identity combiner: the full snapshot reaches digital processing."""
    return Combiner(np.eye(cfg.n_b, dtype=complex), unit_modulus=False, is_identity=True)


def combiner_random(rng: np.random.Generator, n_rf: int, n_b: int) -> Combiner:
    """I.i.d. +/-1 rows; drawn once per trial and held fixed."""
    if n_rf > n_b:
        raise ValueError("n_rf cannot exceed n_b")
    entries = rng.integers(0, 2, size=(n_rf, n_b)) * 2.0 - 1.0
    return Combiner(entries.astype(complex), unit_modulus=True)


def _fix_singular_vector_signs(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    u = u.copy()
    for i in range(u.shape[1]):
        col = u[:, i]
        j = int(np.argmax(np.abs(col)))
        phase = col[j] / abs(col[j]) if abs(col[j]) > 0 else 1.0
        u[:, i] = col / phase
    return u


def combiner_svd_pe(b_pred: np.ndarray, n_rf: int) -> Combiner:
    """Phase-extracted SVD combiner from the predicted observation Jacobian.

    Keeps min(n_rf, 3) left singular vectors: only the three pose columns of
    the Jacobian are nonzero, so extra RF chains carry no extra information
    and stay idle.
    """
    b3 = np.asarray(b_pred)[:, :3]
    if np.linalg.norm(b3) < 1e-15:
        raise DegenerateJacobian("predicted observation Jacobian is numerically zero")
    u, s, _ = np.linalg.svd(b3, full_matrices=False)
    u = _fix_singular_vector_signs(u)

    # Descending singular values; the columns break (measure-zero) ties.
    rounded = [round(float(x), 12) for x in s]

    def _lex_key(i):
        col = u[:, i]
        return (-rounded[i], tuple(np.round(col.real, 12)), tuple(np.round(col.imag, 12)))

    if len(set(rounded)) == len(rounded):
        order = sorted(range(len(s)), key=lambda i: -rounded[i])
    else:
        order = sorted(range(len(s)), key=_lex_key)
    u = u[:, order]
    rows = min(n_rf, 3)
    q_svd = u[:, :rows].conj().T
    q = np.exp(1j * np.angle(q_svd))
    return Combiner(q, unit_modulus=True)


def qom_resolution(pose: Pose, cfg: ArrayConfig) -> int:
    """Minimum index spacing between resolvable MS antennas.

    ceil(lambda * r / (d_b * d_m * |cos(theta) sin(psi - theta)| * n_b)).
    """
    geom = abs(math.cos(pose.theta) * math.sin(pose.psi - pose.theta))
    if geom <= _GEOMETRY_EPS:
        raise DegenerateGeometry(
            "effective aperture is zero; mode resolution undefined for this pose"
        )
    arg = cfg.wavelength * pose.r / (cfg.d_b * cfg.d_m * geom * cfg.n_b)
    return max(1, math.ceil(arg))


def _order_center_first(indices: List[int]) -> List[int]:
    return sorted(indices, key=lambda e: (abs(e), e))


def _order_edge_first(indices: List[int]) -> List[int]:
    return sorted(indices, key=lambda e: (-abs(e), e))


def _order_mixed(indices: List[int]) -> List[int]:
    """Alternate edge-first and center-first picks over the dominant modes."""
    edge = _order_edge_first(indices)
    center = _order_center_first(indices)
    out, taken = [], set()
    for e, c in zip(edge, center):
        for cand in (e, c):
            if cand not in taken:
                out.append(cand)
                taken.add(cand)
    return out


def qom_plan(pose: Pose, cfg: ArrayConfig, n_rf: int, ordering: str) -> QomPlan:
    """Select and order the quasi-orthogonal mode indices for n_rf chains.

    In-array modes live on the lattice ell = i*delta + ell0.  When more
    chains than dominant modes are available, virtual modes continue the
    lattice past the array ends, nearest first, alternating sides starting
    with the negative side.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    delta = qom_resolution(pose, cfg)
    hi = int(antenna_indices(cfg.n_m)[-1])
    nbar = (cfg.n_m - 1) // 2 if cfg.n_m % 2 else cfg.n_m // 2
    ell0 = -nbar + math.ceil((2 * nbar % delta) / 2)
    n_e = (2 * nbar) // delta + 1

    dominant = list(range(ell0, hi + 1, delta))
    if ordering == "center_first":
        ordered = _order_center_first(dominant)
    elif ordering == "edge_first":
        ordered = _order_edge_first(dominant)
    else:
        ordered = _order_mixed(dominant)

    if n_rf > len(ordered):
        below = dominant[0] - delta
        above = dominant[-1] + delta
        virtual = []
        while len(virtual) < n_rf - len(ordered):
            virtual.append(below)
            below -= delta
            if len(virtual) < n_rf - len(ordered):
                virtual.append(above)
                above += delta
        ordered = ordered + virtual
    return QomPlan(
        delta=delta, ell0=ell0, n_e=n_e, indices=tuple(ordered[:n_rf]), ordering=ordering
    )


def qom_vector(pose: Pose, cfg: ArrayConfig, ell: int) -> np.ndarray:
    """Unit-norm beamfocusing vector on (possibly virtual) MS antenna ell."""
    r = pair_distance(pose, cfg, cfg.bs_indices, float(ell))
    return np.exp(-2j * np.pi / cfg.wavelength * r) / np.sqrt(cfg.n_b)


def combiner_from_plan(pose: Pose, cfg: ArrayConfig, plan: QomPlan) -> Combiner:
    w = np.column_stack([qom_vector(pose, cfg, ell) for ell in plan.indices])
    q = np.sqrt(cfg.n_b) * w.conj().T
    return Combiner(q, unit_modulus=True)


def combiner_qom(pose_pred: Pose, cfg: ArrayConfig, n_rf: int) -> Combiner:
    """Mixed edge-center ordered mode combiner at the predicted pose."""
    plan = qom_plan(pose_pred, cfg, n_rf, "mixed_edge_center")
    return combiner_from_plan(pose_pred, cfg, plan)


@dataclass
class MoInfo:
    """Diagnostics of one manifold-optimization run."""

    objectives: List[float] = field(default_factory=list)
    accepted_steps: int = 0
    improved: bool = False


def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def _rank_gate(q: np.ndarray, gram: np.ndarray) -> None:
    """Raise RankDeficientCombiner where smallest/largest singular value of Q
    is at most _RANK_RTOL, the gate of Combiner.

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
            raise _rank_deficient(svals)


def _pd_inverse(j: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix (or stack) by Cholesky.

    A single matrix that is non-finite or not positive definite goes to
    psd_inverse for its jitter retry or SingularPriorCovariance; a stack
    raises LinAlgError instead.
    """
    try:
        if not np.isfinite(j).all():
            raise np.linalg.LinAlgError("non-finite information matrix")
        c_inv = np.linalg.inv(np.linalg.cholesky(j))
    except np.linalg.LinAlgError:
        if j.ndim > 2:
            raise
        return psd_inverse(j)
    return _symmetrize(c_inv.swapaxes(-1, -2) @ c_inv)


def _mo_objective(q: np.ndarray, prior_info: np.ndarray, b: np.ndarray, noise_power: float):
    """Predicted posterior-covariance trace of a combiner, or of a stack.

    With W = Q B, G = Q Q^H = L L^H and V = L^-1 W the data information is
    F = (2/sigma^2) Re V^H V, and the posterior is (P^-1 + F)^-1.  q is
    (n_rf, n_b) or (m, n_rf, n_b); returns (trace, posterior, L^-1) with the
    same leading axes.  A failing combiner raises as Combiner and
    psd_inverse would: RankDeficientCombiner, LinAlgError for a Gram that is
    not positive definite, ValueError for a non-finite W, and
    SingularPriorCovariance for an information matrix that stays singular.
    """
    gram = q @ _h(q)
    # The rank gate runs only where the Gram factor cannot vouch for Q.
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        _rank_gate(q, gram)
        raise
    if not _factor_screen(chol, gram).all():
        _rank_gate(q, gram)
    l_inv = np.linalg.inv(chol)
    # One product for the whole stack: (m n_rf) x n_b times n_b x 5.
    w = (q.reshape(-1, q.shape[-1]) @ b).reshape(q.shape[:-1] + b.shape[1:])
    if not np.isfinite(w).all():
        raise ValueError("array must not contain infs or NaNs")
    v = l_inv @ w
    info = prior_info + (2.0 / noise_power) * np.real(_h(v) @ v)
    post = _pd_inverse(_symmetrize(info))
    return np.trace(post, axis1=-2, axis2=-1), post, l_inv


def _mo_candidates(qs: np.ndarray, prior_info: np.ndarray, b: np.ndarray, noise_power: float):
    """Yield (Q, objective, posterior, L^-1) for each combiner of a stack, in order.

    The stack is evaluated at once.  If any candidate fails, they are
    re-evaluated one at a time as the caller consumes them, so only a
    candidate the line search actually reaches can raise.
    """
    try:
        results = _mo_objective(qs, prior_info, b, noise_power)
    except (RankDeficientCombiner, np.linalg.LinAlgError, ValueError):
        for q_t in qs:
            yield (q_t, *_mo_objective(q_t, prior_info, b, noise_power))
        return
    yield from zip(qs, *results)


def _mo_euclidean_grad(
    q: np.ndarray, post: np.ndarray, b: np.ndarray, noise_power: float, l_inv: np.ndarray
) -> np.ndarray:
    """Gradient of trace((P^-1 + F(Q))^-1) w.r.t. Q under Re{tr(G^H dQ)}.

    With S the posterior covariance, M = Q Q^H = L L^H (l_inv = L^-1, as
    returned by _mo_objective) and Y = M^-1 Q B, so that B^H P_Q = Y^H Q:
      grad = -(4/sigma^2) Y S^2 (B^H - Y^H Q).
    """
    y = _h(l_inv) @ (l_inv @ (q @ b))  # n_rf x 5
    return -(4.0 / noise_power) * (y @ (post @ post)) @ (b.conj().T - _h(y) @ q)


def _tangent_project(grad: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Remove the per-entry radial component on the product-of-circles manifold."""
    return grad - np.real(grad * np.conj(q)) * q


def _renormalize(q: np.ndarray) -> np.ndarray:
    mags = np.abs(q)
    mags[mags == 0] = 1.0
    return q / mags


def combiner_mo(
    init: Combiner,
    prior: Belief,
    b_pred: np.ndarray,
    noise_power: float,
    iters: int = 5,
) -> "tuple[Combiner, MoInfo]":
    """Projected Riemannian descent of the predicted MMSE objective.

    Each iteration runs an Armijo-safeguarded forward-backward line search
    (up to 10 doublings while the objective drops, up to 10 halvings
    otherwise) and the best iterate by objective value is returned.  If no
    step is ever accepted the initial combiner is returned with
    improved=False.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    prior_info = prior.info
    q = _renormalize(np.asarray(init.q, dtype=complex).copy())
    f_curr, post, l_inv = _mo_objective(q, prior_info, b_pred, noise_power)
    info = MoInfo(objectives=[f_curr])
    best_q, best_f = q, f_curr

    for _ in range(iters):
        egrad = _mo_euclidean_grad(q, post, b_pred, noise_power, l_inv)
        rgrad = _tangent_project(egrad, q)
        gnorm = np.linalg.norm(rgrad)
        if gnorm < 1e-15:
            break

        # Forward-backward line search from a conservative probe step: the
        # step expands only while the objective keeps dropping, so a
        # near-stationary initializer barely moves while a poor one can be
        # restructured within the same iteration budget.  The ten doubled
        # (or halved) steps are evaluated as one stack and walked in order.
        step = 1e-2 * np.linalg.norm(q) / gnorm

        def _trials(steps):
            qs = _renormalize(q - steps[:, None, None] * rgrad)
            return _mo_candidates(qs, prior_info, b_pred, noise_power)

        new = next(_trials(np.array([step])))
        accepted = new[1] <= f_curr - 1e-4 * step * gnorm**2
        if accepted:
            for cand in _trials(step * _DOUBLINGS):
                if not cand[1] < new[1]:
                    break
                step *= 2
                new = cand
        else:
            for cand in _trials(step / _DOUBLINGS):
                step *= 0.5
                if cand[1] <= f_curr - 1e-4 * step * gnorm**2:
                    accepted = True
                    new = cand
                    break
        if not accepted:
            break
        q, f_curr, post, l_inv = new
        info.objectives.append(f_curr)
        info.accepted_steps += 1
        if f_curr < best_f:
            best_q, best_f = q, f_curr

    info.improved = info.accepted_steps > 0
    if not info.improved:
        return init, info
    return Combiner(best_q, unit_modulus=True), info


class PredictionBuilder:
    """One trial's prediction-stage combiner factory.

    Builders see only predicted quantities: the pose, the observation
    Jacobian (asked for only by schemes that use it) and, for mo, the belief.
    A builder that cannot work on its input falls back along its chain (see
    SCHEMES) and records the step in fallback_steps once; an mo step that
    accepts no line-search step is recorded in mo_stalled_steps.  The trial's
    random combiner is drawn on first use from its keyed "combiner" stream.
    """

    def __init__(self, spec: CombinerSpec, array: ArrayConfig, seed: int, trial_index: int,
                 noise_power: float):
        self.spec, self.array, self.noise_power = spec, array, noise_power
        self.fallback_steps: List[int] = []
        self.mo_stalled_steps: List[int] = []
        self._seed, self._trial_index = seed, trial_index
        self._chain = SCHEMES[scheme_label(spec)].build
        self._previous = None

    def build(
        self, k: int, pose: Pose, jacobian: Callable[[], np.ndarray], prior: Optional[Belief]
    ) -> Combiner:
        """Step k's combiner at the predicted pose; jacobian() returns the
        predicted observation Jacobian, prior is the predicted belief."""
        self._previous = self._chain(self, k, pose, jacobian, prior)
        return self._previous

    @cached_property
    def identity(self) -> Combiner:
        return combiner_fd(self.array)

    @cached_property
    def random(self) -> Combiner:
        rng = stream(self._seed, self._trial_index, 0, "combiner")
        return combiner_random(rng, self.spec.n_rf, self.array.n_b)

    def _mark_fallback(self, k: int) -> None:
        """Record step k as a fallback once, however many builders fell back."""
        if self.fallback_steps[-1:] != [k]:
            self.fallback_steps.append(k)

    def _svd_pe(self, k, pose, jacobian, prior) -> Combiner:
        try:
            return combiner_svd_pe(jacobian(), self.spec.n_rf)
        except DegenerateJacobian:
            self._mark_fallback(k)
            return self.random if self._previous is None else self._previous

    def _qom(self, k, pose, jacobian, prior) -> Combiner:
        try:
            return combiner_qom(pose, self.array, self.spec.n_rf)
        except DegenerateGeometry:
            self._mark_fallback(k)
            if self._previous is None:
                return self._svd_pe(k, pose, jacobian, prior)
            return self._previous

    def _mo(self, k, pose, jacobian, prior) -> Combiner:
        init = SCHEMES[_label(self.spec.mo_init, None)].build(self, k, pose, jacobian, prior)
        comb, info = combiner_mo(init, prior, jacobian(), self.noise_power, self.spec.mo_iters)
        if not info.improved:
            self.mo_stalled_steps.append(k)
        return comb


class Scheme(NamedTuple):
    """A scheme: its CombinerSpec kind and mo initializer kind, whether
    `crb --policy` takes it, and its PredictionBuilder chain."""

    kind: str
    mo_init: Optional[str]
    crb: bool
    build: Callable[..., Combiner]


# Token (= CSV label) -> scheme.  Fallbacks: svd_pe takes the previous
# combiner, else the trial's random one; qom the previous combiner, else the
# svd_pe chain; mo starts from its initializer's chain.
SCHEMES = {
    "fd": Scheme("fd", None, True, lambda builder, *_: builder.identity),
    "rand": Scheme("random", None, True, lambda builder, *_: builder.random),
    "svd_pe": Scheme("svd_pe", None, True, PredictionBuilder._svd_pe),
    "qom": Scheme("qom", None, True, PredictionBuilder._qom),
    "mo:rand": Scheme("mo", "random", False, PredictionBuilder._mo),
    "mo:svd_pe": Scheme("mo", "svd_pe", False, PredictionBuilder._mo),
    "mo:qom": Scheme("mo", "qom", False, PredictionBuilder._mo),
}

CRB_POLICIES = tuple(label for label, s in SCHEMES.items() if s.crb)


def _label(kind: str, mo_init: Optional[str]) -> Optional[str]:
    return next((lb for lb, s in SCHEMES.items() if (s.kind, s.mo_init) == (kind, mo_init)), None)


def scheme_label(spec: CombinerSpec) -> Optional[str]:
    """The SCHEMES token of a spec (mo_init counts only for mo), or None."""
    return _label(spec.kind, spec.mo_init if spec.kind == "mo" else None)


def parse_scheme(token: str, n_rf: int, n_b: int, mo_iters: int = 5) -> CombinerSpec:
    """Translate a SCHEMES token, also spelled with kind names (random, mo:random)."""
    token = token.strip().lower()
    for label, s in SCHEMES.items():
        if token in (label, s.kind if s.mo_init is None else f"mo:{s.mo_init}"):
            return CombinerSpec(s.kind, n_b if s.kind == "fd" else n_rf, s.mo_init, mo_iters)
    raise ConfigError(f"unknown scheme {token!r}")
