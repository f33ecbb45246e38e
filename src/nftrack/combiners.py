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

from .errors import ConfigError, DegenerateGeometry, DegenerateJacobian
from .errors import RankDeficientCombiner, SingularPriorCovariance
from .estimation import Belief, Combiner, _gated_factor
from .geometry import ArrayConfig, Pose, antenna_indices, pair_distance
from .rng import stream

ORDERINGS = ("center_first", "edge_first", "mixed_edge_center")

# |cos(theta) * sin(psi - theta)| below this counts as zero effective
# aperture: the mode resolution is undefined and callers must fall back.
_GEOMETRY_EPS = 1e-12

# Line-search step factors: the probe and its ten doublings, and ten halvings.
_PROBE_AND_DOUBLINGS = 2.0 ** np.arange(11)
_HALVINGS = 2.0 ** -np.arange(1, 11)
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class CombinerSpec:
    """Scheme selector carried by the scenario configuration."""

    kind: str  # a kind of SCHEMES
    n_rf: int
    mo_init: Optional[str] = None  # initializer kind for kind == "mo"

    def __post_init__(self):
        if scheme_label(self) is None:
            raise ValueError(f"no scheme of kind {self.kind!r} with mo_init {self.mo_init!r}")
        if self.n_rf < 1:
            raise ValueError("n_rf must be >= 1")


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


class _PoseObjective:
    """MO's objective tr S(Q) on the pose blocks of the prior covariance P
    (see combiner_mo).  Reading prior.info gates a non-PD prior with
    SingularPriorCovariance; the update of the same step reuses that inverse.
    """

    def __init__(self, prior: Belief, b_pred: np.ndarray, noise_power: float):
        prior.info  # the positive-definiteness gate
        self.p3, self.p33 = prior.cov[:, :3], prior.cov[:3, :3]
        self.m = self.p3.T @ self.p3
        self.tr_p = np.trace(prior.cov)
        self.b3 = np.ascontiguousarray(b_pred[:, :3])
        self.b3h = _h(self.b3)
        self.scale = 2.0 / noise_power

    def __call__(self, q: np.ndarray):
        """(tr S, S[:, :3], Y = G^-1 W) of a combiner (n_rf, n_b) or of each in
        a stack (m, n_rf, n_b).  A failing combiner raises as Combiner would:
        RankDeficientCombiner, LinAlgError for a Gram that is not positive
        definite, ValueError for a non-finite W; a non-finite or singular A
        raises SingularPriorCovariance, as inverting the information would."""
        l_inv = np.linalg.inv(_gated_factor(q, np.linalg.cholesky))
        # A non-finite W or A raises below, without numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            # One product for the whole stack: (m n_rf) x n_b times n_b x 3.
            w = (q.reshape(-1, q.shape[-1]) @ self.b3).reshape(q.shape[:-1] + (3,))
            v = l_inv @ w
            f = self.scale * np.real(_h(v) @ v)
            a = f @ self.p33 + _EYE3
        if not np.isfinite(a).all():  # also where W is not finite
            if not np.isfinite(w).all():
                raise ValueError("array must not contain infs or NaNs")
            raise SingularPriorCovariance("posterior information is not finite")
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularPriorCovariance(f"posterior information: {exc}") from None
        # tr(A^-1 F M) with M symmetric.
        trace = self.tr_p - ((a_inv @ f) * self.m).sum(axis=(-2, -1))
        return trace, self.p3 @ a_inv, _h(l_inv) @ v

    def candidates(self, qs: np.ndarray):
        """Yield (Q, tr S, S[:, :3], Y) for each combiner of a stack, in order.
        If the stack fails, its combiners are evaluated one at a time as the
        caller consumes them, so only a candidate the walk reaches can raise."""
        try:
            results = self(qs)
        except (RankDeficientCombiner, SingularPriorCovariance, np.linalg.LinAlgError, ValueError):
            for q_t in qs:
                yield (q_t, *self(q_t))
            return
        yield from zip(qs, *results)

    def grad(self, q: np.ndarray, s3: np.ndarray, y: np.ndarray) -> np.ndarray:
        """-(4/sigma^2) Y (S^2)33 (B3^H - Y^H Q), the gradient of tr S w.r.t. Q
        under Re{tr(G^H dQ)}, from Q's own S[:, :3] and Y."""
        return -2.0 * self.scale * (y @ (s3.T @ s3)) @ (self.b3h - _h(y) @ q)


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

    The objective is tr S, S = (P^-1 + E F E^T)^-1 the predicted posterior
    covariance, E = [I_3 0]^T.  The velocity columns of B are zero, so the
    data information is the 3 x 3 F = (2/sigma^2) Re(W^H G^-1 W), W = Q B3,
    B3 = B[:, :3], G = Q Q^H.  With A = I + F P33 and M = P[:, :3]^T P[:, :3]
    the push-through (Woodbury) identity (Hager, SIAM Review 31(2), 1989)
    gives tr S = tr P - tr(A^-1 F M) and S[:, :3] = P[:, :3] A^-1, so
    (S^2)33 = A^-T M A^-1: one 3 x 3 inverse per candidate, none of P.

    Each iteration runs an Armijo-safeguarded forward-backward line search
    from a probe step t: up to 10 doublings while the objective drops, up to
    10 halvings otherwise.  The probe and its doublings t 2^j, j = 0..10, are
    one stack of 11 candidates; the halvings t 2^-j, j = 1..10, a second
    stack built only when the probe is rejected.  A candidate is d / |d|,
    d = Q - t g: Q is unit-modulus and the Riemannian gradient g tangent,
    g = i a Q for real a entrywise, so |d| = sqrt(1 + t^2 a^2) >= 1 needs no
    zero guard.  The best iterate by objective value is returned; if no step
    is ever accepted, the initial combiner with improved=False.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    objective = _PoseObjective(prior, b_pred, noise_power)
    q = _renormalize(np.asarray(init.q, dtype=complex).copy())
    f_curr, s3, y = objective(q)
    info = MoInfo(objectives=[f_curr])
    best_q, best_f = q, f_curr

    for _ in range(iters):
        # Riemannian gradient: drop each entry's radial component.
        egrad = objective.grad(q, s3, y)
        rgrad = egrad - np.real(egrad * np.conj(q)) * q
        gnorm = np.linalg.norm(rgrad)
        if gnorm < 1e-15:
            break

        # A conservative probe that expands only while the objective drops: a
        # near-stationary initializer barely moves, a poor one can be rebuilt.
        step = 1e-2 * np.linalg.norm(q) / gnorm

        def _trials(factors):
            d = q - (step * factors)[:, None, None] * rgrad
            mags = np.abs(d)
            d.real /= mags  # real division: d / mags would divide in complex
            d.imag /= mags
            return objective.candidates(d)

        walk = _trials(_PROBE_AND_DOUBLINGS)
        new = next(walk)
        accepted = new[1] <= f_curr - 1e-4 * step * gnorm**2
        if accepted:
            for cand in walk:
                if not cand[1] < new[1]:
                    break
                new = cand
        else:
            for cand in _trials(_HALVINGS):
                step *= 0.5
                if cand[1] <= f_curr - 1e-4 * step * gnorm**2:
                    accepted, new = True, cand
                    break
        if not accepted:
            break
        q, f_curr, s3, y = new
        info.objectives.append(f_curr)
        info.accepted_steps += 1
        if f_curr < best_f:
            best_q, best_f = q, f_curr

    info.improved = info.accepted_steps > 0
    return (Combiner(best_q, unit_modulus=True) if info.improved else init), info


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
        comb, info = combiner_mo(init, prior, jacobian(), self.noise_power)
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


def parse_scheme(token: str, n_rf: int, n_b: int) -> CombinerSpec:
    """Translate a SCHEMES token, also spelled with kind names (random, mo:random)."""
    token = token.strip().lower()
    for label, s in SCHEMES.items():
        if token in (label, s.kind if s.mo_init is None else f"mo:{s.mo_init}"):
            return CombinerSpec(s.kind, n_b if s.kind == "fd" else n_rf, s.mo_init)
    raise ConfigError(f"unknown scheme {token!r}")
