"""Scenario configuration, Monte Carlo campaigns, metrics, and persistence.

A campaign runs one trial per trial index, and each trial runs every scheme.
Every random draw is keyed by (seed, trial, step, purpose), so the truth, the
pilot, the true channel and the full-array noisy snapshot are
scheme-independent: a trial computes them once per step and hands each
scheme only its compressed view.  Results are invariant to the degree of
trial parallelism.

Each scheme scores its posterior pose p against the true distance grid r_t
and amplitudes a_t = lambda/(4 pi r_t), not the complex true channel: by the
half-angle identity, ||H(p) - H_t||_F^2 = sum (a - a_t)^2
+ 4 a a_t sin^2(pi (r - r_t) / lambda) (``geometry.channel_error_sq``).
"""

import contextvars
import csv
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field, fields
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .combiners import CombinerSpec, PredictionBuilder, parse_scheme
from .dynamics import MsState, ProcessNoiseSpec, ctrv_transition, sample_process_noise
from .errors import ConfigError, SingularPriorCovariance
from .estimation import Belief, ekf_predict, ekf_update
from .geometry import (
    ArrayConfig,
    Pose,
    _typed,
    channel_error_sq,
    channel_grid,
    pilot_jacobian,
    pilot_response,
)
from .observation import full_snapshot, generate_pilot
from .rng import stream

PILOT_POLICIES = ("per_trial", "per_step")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RfChains:
    """The RF chain count n_rf of every compressed scheme; fd takes all n_b."""

    n_rf: int

    def __post_init__(self):
        if type(self.n_rf) is not int:
            n_rf = _typed(self.n_rf, (int, np.integer), "n_rf must be an integer")
            object.__setattr__(self, "n_rf", int(n_rf))


# The config format: JSON key path -> (the ScenarioConfig field it fills, its
# type[, its scale]).  int takes a JSON integer, float an integer or a float
# (times the scale), str a string and np.ndarray an array of numbers; a bool
# is no number.  A key whose field has a default may be left out, and
# initial_cov_diag, the diagonal alone, may stand in for initial_cov.
CONFIG_FORMAT = {
    "array.n_b": ("array.n_b", int),
    "array.n_m": ("array.n_m", int),
    "array.carrier_freq_ghz": ("array.carrier_freq", float, 1e9),
    "array.d_b_m": ("array.d_b", float),
    "array.d_m_m": ("array.d_m", float),
    "initial_state.x_m": ("initial_state.x", float),
    "initial_state.y_m": ("initial_state.y", float),
    "initial_state.psi_rad": ("initial_state.psi", float),
    "initial_state.v_mps": ("initial_state.v", float),
    "initial_state.omega_radps": ("initial_state.omega", float),
    "initial_cov": ("initial_cov", np.ndarray),
    "process_noise.sigma_v_mps2": ("noise.sigma_v", float),
    "process_noise.sigma_omega_radps2": ("noise.sigma_omega", float),
    "process_noise.tau_s": ("noise.tau", float),
    "p_m_dbm": ("p_m_dbm", float),
    "noise_power_dbm": ("noise_power_dbm", float),
    "k_steps": ("k_steps", int),
    "n_trials": ("n_trials", int),
    "combiner.n_rf": ("combiner.n_rf", int),
    "seed": ("seed", int),
    "pilot_policy": ("pilot_policy", str),
}
_BLOCKS = {path.split(".")[0] for path in CONFIG_FORMAT if "." in path}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", np.ndarray: "a number array"}


def parse_field(path: str, kind: type, value, scale: float = 1.0):
    """The field value of the JSON value at path, which must be of kind."""
    if kind is str:
        ok = isinstance(value, str)
    else:
        numbers = int if kind is int else (int, float)
        entries = np.asarray(value, dtype=object).flat if kind is np.ndarray else [value]
        ok = all(isinstance(v, numbers) and not isinstance(v, bool) for v in entries)
    if not ok:
        raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}")
    if kind is np.ndarray:
        return np.asarray(value, dtype=float)
    return float(value) * scale if kind is float else value


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment."""

    array: ArrayConfig
    initial_state: MsState
    initial_cov: np.ndarray
    noise: ProcessNoiseSpec
    p_m_dbm: float
    noise_power_dbm: float
    k_steps: int
    n_trials: int
    combiner: RfChains
    seed: int
    pilot_policy: str = "per_trial"

    def __post_init__(self):
        for name in ("p_m_dbm", "noise_power_dbm"):
            try:  # the power and its inverse must be positive finite floats
                ok = 0.0 < 1.0 / dbm_to_watts(getattr(self, name)) < np.inf
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ConfigError(f"{name} must give a positive power with a finite inverse")
        if self.k_steps < 1 or self.n_trials < 1:
            raise ConfigError("k_steps and n_trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.pilot_policy not in PILOT_POLICIES:
            raise ConfigError(f"pilot_policy must be one of {PILOT_POLICIES}")
        if not np.isfinite(self.initial_state.as_vector()).all():
            raise ConfigError("initial_state must be finite")
        if self.initial_state.x == 0.0 and self.initial_state.y == 0.0:
            raise ConfigError("initial_state cannot sit at the BS array center")
        cov = np.asarray(self.initial_cov, dtype=float)
        if cov.shape != (5, 5):
            raise ConfigError("initial_cov must be 5x5")
        if not np.isfinite(cov).all():
            raise ConfigError("initial_cov must be finite")
        try:
            np.linalg.cholesky(0.5 * (cov + cov.T))
        except np.linalg.LinAlgError as exc:
            raise ConfigError("initial_cov must be positive definite") from exc
        object.__setattr__(self, "initial_cov", cov)
        if not 1 <= self.combiner.n_rf < self.array.n_b:
            raise ConfigError(f"n_rf must be in [1, n_b) = [1, {self.array.n_b})")

    @property
    def p_m_watts(self) -> float:
        return dbm_to_watts(self.p_m_dbm)

    @property
    def noise_power_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    def to_dict(self) -> dict:
        """The config as a JSON object in CONFIG_FORMAT."""
        out = {}
        for path, (field_path, kind, *scale) in CONFIG_FORMAT.items():
            value = attrgetter(field_path)(self)
            if kind is np.ndarray:
                value = value.tolist()
            *block, name = path.split(".")
            node = out.setdefault(block[0], {}) if block else out
            node[name] = value / scale[0] if scale else value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """The config of a JSON object in CONFIG_FORMAT.  An unknown key, a
        value of the wrong JSON type or one the config's types reject, and a
        missing required key are ConfigErrors."""
        if not isinstance(d, dict):
            raise ConfigError("a config must be a JSON object")
        flat = {}
        for key, value in d.items():
            if key not in _BLOCKS:
                flat[key] = value
            elif isinstance(value, dict):
                flat.update((f"{key}.{k}", v) for k, v in value.items())
            else:
                raise ConfigError(f"{key} must be a JSON object")
        try:
            if "initial_cov" not in flat and "initial_cov_diag" in flat:
                diag = parse_field("initial_cov_diag", np.ndarray, flat.pop("initial_cov_diag"))
                flat["initial_cov"] = np.diag(diag).tolist()
            unknown = ", ".join(path for path in flat if path not in CONFIG_FORMAT)
            if unknown:
                raise ConfigError(f"unknown configuration keys: {unknown}")
            # ScenarioConfig's arguments, each block's first gathered under its field.
            kwargs = {f.split(".")[0]: {} for f, *_ in CONFIG_FORMAT.values() if "." in f}
            for path, value in flat.items():
                field_path, kind, *scale = CONFIG_FORMAT[path]
                top, _, sub = field_path.partition(".")
                value = parse_field(path, kind, value, *scale)
                if sub:
                    kwargs[top][sub] = value
                else:
                    kwargs[top] = value
            for f in fields(cls):
                if isinstance(kwargs.get(f.name), dict):
                    kwargs[f.name] = f.type(**kwargs[f.name])
            return cls(**kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid scenario configuration: {exc}") from exc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ScenarioConfig.from_dict(data)


@dataclass
class TrialRecord:
    """Per-step log of one tracking trial; reproducible from (seed, trial)."""

    trial_index: int
    true_states: np.ndarray  # (k_steps + 1, 5), row 0 = initial state
    post_means: np.ndarray  # (k_steps, 5)
    post_covs: np.ndarray  # (k_steps, 5, 5)
    fallback_steps: List[int] = field(default_factory=list)
    mo_stalled_steps: List[int] = field(default_factory=list)
    diverged_at: Optional[int] = None
    # Per-step NMSE terms ||H(posterior pose) - H_true||_F^2 and ||H_true||_F^2,
    # filled by run_trial while the true distance grid is in hand; the error
    # is sum (a - a_t)^2 + 4 a a_t sin^2(pi (r - r_t) / lambda) (half-angle
    # identity), with no complex channel at the posterior.
    h_err_sq: Optional[np.ndarray] = None
    h_true_sq: Optional[np.ndarray] = None


@dataclass
class SchemeMetrics:
    rmse_x: np.ndarray  # per step, m
    rmse_y: np.ndarray
    rmse_psi: np.ndarray  # rad
    nmse_h: np.ndarray
    n_diverged: int


@dataclass
class CampaignResult:
    config: ScenarioConfig
    schemes: Dict[str, SchemeMetrics]

    def to_csv(self, path) -> None:
        write_table(
            path, self.config, ["scheme", "k", "rmse_x_m", "rmse_y_m", "rmse_psi_rad", "nmse_h"],
            ([label, i, *(f"{v:.12e}" for v in row)]
             for label, m in self.schemes.items()
             for i, row in enumerate(zip(m.rmse_x, m.rmse_y, m.rmse_psi, m.nmse_h), 1)),
            schemes=list(self.schemes),
            n_diverged={label: m.n_diverged for label, m in self.schemes.items()},
        )


def manifest_path(out_path) -> Path:
    """The manifest sidecar of the table at out_path: <out_path>.manifest.json."""
    path = Path(out_path)
    return path.with_suffix(path.suffix + ".manifest.json")


def write_table(out_path, cfg: ScenarioConfig, header, rows, **manifest_extra) -> None:
    """Write header and rows, as given, to the CSV at out_path, then its
    manifest sidecar: config hash, seed, code version, and the extra fields."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "code_version": __version__,
        **manifest_extra,
    }
    with open(manifest_path(out_path), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def simulate_truth(cfg: ScenarioConfig, trial_index: int) -> np.ndarray:
    """True trajectory, shared by every scheme within a trial."""
    states = np.zeros((cfg.k_steps + 1, 5))
    state = cfg.initial_state
    states[0] = state.as_vector()
    for k in range(1, cfg.k_steps + 1):
        noise = sample_process_noise(cfg.noise, stream(cfg.seed, trial_index, k, "process"))
        state = MsState.from_vector(ctrv_transition(state, cfg.noise.tau).as_vector() + noise)
        states[k] = state.as_vector()
    return states


class _SchemeFilter:
    """One scheme's predictive-combining EKF over a trial's shared truth."""

    def __init__(self, cfg: ScenarioConfig, spec: CombinerSpec, trial_index: int,
                 truth: np.ndarray, h_true_sq: np.ndarray):
        k_steps = cfg.k_steps
        self.cfg = cfg
        self.builder = PredictionBuilder(
            spec, cfg.array, cfg.seed, trial_index, cfg.noise_power_watts
        )
        self.belief = Belief(mean=cfg.initial_state, cov=cfg.initial_cov.copy())
        self.record = TrialRecord(
            trial_index=trial_index,
            true_states=truth,
            post_means=np.zeros((k_steps, 5)),
            post_covs=np.zeros((k_steps, 5, 5)),
            fallback_steps=self.builder.fallback_steps,
            mo_stalled_steps=self.builder.mo_stalled_steps,
            h_err_sq=np.zeros(k_steps),
            h_true_sq=h_true_sq,
        )

    def step(self, k: int, x: np.ndarray, y: np.ndarray, r_true: np.ndarray,
             a_true: np.ndarray) -> None:
        """Predict, build the combiner, fold in Q y of pilot x, and log step k
        against the true distance grid r_true and its amplitudes a_true."""
        cfg, record, i = self.cfg, self.record, k - 1
        prior = ekf_predict(self.belief, cfg.noise)

        if record.diverged_at is not None:
            # Filter is dead; coast on the prediction for the remaining steps.
            self.belief = prior
        else:
            pose = prior.mean.pose
            b_pred, b_jac = pilot_response(pose, cfg.array, x)
            try:
                # A diverging filter overflows; the finiteness checks report it.
                with np.errstate(over="ignore", invalid="ignore"):
                    # The MO builder and the update share prior.info, one inverse.
                    combiner = self.builder.build(k, pose, lambda: b_jac, prior)
                    self.belief = ekf_update(
                        prior, combiner.apply(y), combiner, b_jac, b_pred, cfg.noise_power_watts
                    )
            except SingularPriorCovariance:
                record.diverged_at = k
                self.belief = prior
        mean = self.belief.mean
        record.post_means[i] = mean.as_vector()
        record.post_covs[i] = self.belief.cov
        # The same floats as post_means[i, :3].
        record.h_err_sq[i] = channel_error_sq(mean.pose, cfg.array, r_true, a_true)


def _pilots(cfg: ScenarioConfig, trial_index: int):
    """k -> step k's pilot in a trial: under per_step, drawn from step k's
    stream; under per_trial, the trial's one pilot, drawn once, on first use,
    from step 0's."""
    def draw(step: int) -> np.ndarray:
        rng = stream(cfg.seed, trial_index, step, "pilot")
        return generate_pilot(rng, cfg.p_m_watts, cfg.array.n_m)

    if cfg.pilot_policy == "per_step":
        return draw
    pilot = cache(lambda: draw(0))
    return lambda k: pilot()


def crb_policy(cfg: ScenarioConfig, token: str):
    """The CRB combiner policy(pose, derivs) of a scheme token.

    It is trial 0's PredictionBuilder, with trial 0's random combiner and
    pilots, so the bound sees the combiner a tracking filter builds,
    fallbacks included.  The observation Jacobian is formed from the step's
    channel derivatives, only when the scheme asks for it.
    """
    n_b = cfg.array.n_b
    builder = PredictionBuilder(
        parse_scheme(token, cfg.combiner.n_rf, n_b), cfg.array, cfg.seed, 0, cfg.noise_power_watts
    )
    pilots = _pilots(cfg, 0)
    steps = itertools.count(1)

    def policy(pose, derivs):
        k = next(steps)
        return builder.build(
            k, pose, lambda: pilot_jacobian(derivs.stream(), pilots(k), n_b), None
        )

    return policy


def run_trial(
    cfg: ScenarioConfig, trial_index: int, schemes: Sequence[CombinerSpec], helper=None
) -> List[TrialRecord]:
    """Simulate one truth and run every scheme's EKF over it, one record each.

    Per step the truth state, pilot, true distance grid, true channel and
    full-array noisy snapshot are computed once and shared, the grids in one
    set per trial; each scheme only compresses the snapshot with its own
    combiner, and scores its posterior pose against the true grid.

    helper, an executor with one worker thread, steps the first, third, ...
    scheme while this thread steps the others: the larger half when the
    count is odd, since this thread also computes the shared inputs.  It
    runs them in a copy of this thread's context (numpy's error state
    included), and each step waits for it before the next rewrites the
    shared grids.  The records are the same bytes with it and without.
    """
    array = cfg.array
    truth = simulate_truth(cfg, trial_index)
    h_true_sq = np.zeros(cfg.k_steps)
    filters = [_SchemeFilter(cfg, spec, trial_index, truth, h_true_sq) for spec in schemes]

    pilots = _pilots(cfg, trial_index)
    grids = None  # the trial's one truth set, made at step 1 and rewritten after
    for k in range(1, cfg.k_steps + 1):
        x = pilots(k)
        pose = Pose(*truth[k, :3].tolist())
        grids = r_true, a_true, h_true = channel_grid(pose, array, out=grids)
        h_true_sq[k - 1] = np.linalg.norm(h_true) ** 2
        y = full_snapshot(
            h_true, x, cfg.noise_power_watts, stream(cfg.seed, trial_index, k, "obs")
        )
        args = k, x, y, r_true, a_true
        if helper is None:
            _step_each(filters, args)
        else:
            done = helper.submit(contextvars.copy_context().run, _step_each, filters[::2], args)
            _step_each(filters[1::2], args)
            done.result()
    return [f.record for f in filters]


def _step_each(filters: Sequence[_SchemeFilter], args) -> None:
    for f in filters:
        f.step(*args)


def _wrap_angle(e: np.ndarray) -> np.ndarray:
    return np.mod(e + np.pi, 2 * np.pi) - np.pi


def metrics_rmse(records: Sequence[TrialRecord], param: str) -> np.ndarray:
    """Per-step RMSE over trials for one state parameter; psi errors are
    wrapped to [-pi, pi)."""
    if not records:
        raise ValueError("no trial records")
    col = {"x": 0, "y": 1, "psi": 2, "v": 3, "omega": 4}[param]
    errors = np.stack(
        [rec.post_means[:, col] - rec.true_states[1:, col] for rec in records]
    )
    if param == "psi":
        errors = _wrap_angle(errors)
    return np.sqrt(np.mean(errors**2, axis=0))


def _nmse_from_terms(records: Sequence[TrialRecord]) -> np.ndarray:
    """Per-step channel-reconstruction NMSE from run_trial's terms: the error
    and true-channel energies, each summed over the records in order."""
    num = np.zeros(len(records[0].h_err_sq))
    den = np.zeros_like(num)
    for rec in records:
        num += rec.h_err_sq
        den += rec.h_true_sq
    return num / den


def _metrics_for_records(records) -> SchemeMetrics:
    return SchemeMetrics(
        rmse_x=metrics_rmse(records, "x"),
        rmse_y=metrics_rmse(records, "y"),
        rmse_psi=metrics_rmse(records, "psi"),
        nmse_h=_nmse_from_terms(records),
        n_diverged=sum(1 for r in records if r.diverged_at is not None),
    )


# The smallest channel grid (n_b * n_m entries) on which run_campaign steps a
# trial's schemes on two threads.  One handoff per step and the interpreter
# lock, held through each step's small-matrix work, cost about what the
# split saves on a small grid; the channel kernels, which release the lock,
# grow with it.  Split against serial, fd/rand/svd_pe/qom campaigns of one
# 30-step trial, median steps/s ratio over paired processes (2-vCPU Xeon VM,
# one OpenBLAS thread): 0.87 at 101 x 25, 0.85 at 135 x 35, 0.98 at 165 x 45,
# 0.96-1.04 at 201 x 51, 1.17 at 211 x 57, 1.13 at 221 x 59, 1.23 at 231 x 61
# and 1.30 at 275 x 75.
_SPLIT_MIN_ENTRIES = 12000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_campaign(
    cfg: ScenarioConfig,
    schemes: Sequence[CombinerSpec],
    threads: int = 1,
) -> CampaignResult:
    """Run every scheme over shared realizations and aggregate metrics.

    With threads > 1 the trials run in one pool of spawned processes, each
    trial on one thread; results are assembled in trial order.  Serially, a
    trial of two or more schemes on a channel grid of at least
    _SPLIT_MIN_ENTRIES entries steps them on two threads when two CPUs are
    usable: this thread and one helper, which ends with the campaign.  The
    output does not depend on either split.
    """
    if not schemes:
        raise ConfigError("at least one combiner scheme is required")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    tokens = [spec.kind for spec in schemes]
    repeated = sorted({t for t in tokens if tokens.count(t) > 1})
    if repeated:
        raise ConfigError(f"scheme given more than once: {', '.join(repeated)}")
    trials = range(cfg.n_trials)
    # Imported where used: they cost ~25 ms of start-up that most runs never need.
    if threads > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(threads, cfg.n_trials), mp_context=ctx) as pool:
            futures = [pool.submit(run_trial, cfg, t, schemes) for t in trials]
            per_trial = [fut.result() for fut in futures]
    elif (len(schemes) >= 2 and _usable_cpus() >= 2
          and cfg.array.n_b * cfg.array.n_m >= _SPLIT_MIN_ENTRIES):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="nftrack-schemes") as helper:
            per_trial = [run_trial(cfg, t, schemes, helper) for t in trials]
    else:
        per_trial = [run_trial(cfg, t, schemes) for t in trials]
    results: Dict[str, SchemeMetrics] = {}
    for j, spec in enumerate(schemes):
        records = [trial_records[j] for trial_records in per_trial]
        results[spec.kind] = _metrics_for_records(records)
    return CampaignResult(config=cfg, schemes=results)
