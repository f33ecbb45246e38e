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

import csv
import hashlib
import itertools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .combiners import CombinerSpec, PredictionBuilder, parse_scheme, scheme_label
from .dynamics import MsState, ProcessNoiseSpec, ctrv_transition, sample_process_noise
from .errors import ConfigError, SingularPriorCovariance
from .estimation import Belief, ekf_predict, ekf_update
from .geometry import ArrayConfig, Pose, channel_error_sq, channel_grid, pilot_response
from .observation import Pilot, full_snapshot, generate_pilot
from .rng import stream

PILOT_POLICIES = ("per_trial", "per_step")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _unknown_keys(given: dict, known: dict, prefix: str = ""):
    """Dotted paths of the keys of given, at any depth, that known lacks."""
    for key, value in given.items():
        if key not in known:
            yield f"{prefix}{key}"
        elif isinstance(value, dict) and isinstance(known[key], dict):
            yield from _unknown_keys(value, known[key], f"{prefix}{key}.")


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
    combiner: CombinerSpec
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
        if self.combiner.kind == "fd":
            if self.combiner.n_rf != self.array.n_b:
                raise ConfigError("fd combiner requires n_rf == n_b")
        elif self.combiner.n_rf >= self.array.n_b:
            raise ConfigError("compressed combiners require n_rf < n_b")

    @property
    def p_m_watts(self) -> float:
        return dbm_to_watts(self.p_m_dbm)

    @property
    def noise_power_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    def to_dict(self) -> dict:
        return {
            "array": {
                "n_b": self.array.n_b,
                "n_m": self.array.n_m,
                "carrier_freq_ghz": self.array.carrier_freq / 1e9,
                "d_b_m": self.array.d_b,
                "d_m_m": self.array.d_m,
            },
            "initial_state": {
                "x_m": self.initial_state.x,
                "y_m": self.initial_state.y,
                "psi_rad": self.initial_state.psi,
                "v_mps": self.initial_state.v,
                "omega_radps": self.initial_state.omega,
            },
            "initial_cov": np.asarray(self.initial_cov).tolist(),
            "process_noise": {
                "sigma_v_mps2": self.noise.sigma_v,
                "sigma_omega_radps2": self.noise.sigma_omega,
                "tau_s": self.noise.tau,
            },
            "p_m_dbm": self.p_m_dbm,
            "noise_power_dbm": self.noise_power_dbm,
            "k_steps": self.k_steps,
            "n_trials": self.n_trials,
            "combiner": {
                "kind": self.combiner.kind,
                "n_rf": self.combiner.n_rf,
                "mo_init": self.combiner.mo_init,
            },
            "seed": self.seed,
            "pilot_policy": self.pilot_policy,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        try:
            arr = d["array"]
            array = ArrayConfig(
                n_b=int(arr["n_b"]),
                n_m=int(arr["n_m"]),
                carrier_freq=float(arr["carrier_freq_ghz"]) * 1e9,
                d_b=arr.get("d_b_m"),
                d_m=arr.get("d_m_m"),
            )
            st = d["initial_state"]
            state = MsState(
                x=float(st["x_m"]),
                y=float(st["y_m"]),
                psi=float(st["psi_rad"]),
                v=float(st["v_mps"]),
                omega=float(st["omega_radps"]),
            )
            if "initial_cov" in d:
                cov = np.asarray(d["initial_cov"], dtype=float)
            else:
                cov = np.diag(np.asarray(d["initial_cov_diag"], dtype=float))
            pn = d["process_noise"]
            noise = ProcessNoiseSpec(
                sigma_v=float(pn["sigma_v_mps2"]),
                sigma_omega=float(pn["sigma_omega_radps2"]),
                tau=float(pn["tau_s"]),
            )
            comb = d.get("combiner", {"kind": "fd", "n_rf": int(arr["n_b"])})
            spec = CombinerSpec(
                kind=comb["kind"],
                n_rf=int(comb["n_rf"]),
                mo_init=comb.get("mo_init"),
            )
            cfg = cls(
                array=array,
                initial_state=state,
                initial_cov=cov,
                noise=noise,
                p_m_dbm=float(d["p_m_dbm"]),
                noise_power_dbm=float(d["noise_power_dbm"]),
                k_steps=int(d["k_steps"]),
                n_trials=int(d["n_trials"]),
                combiner=spec,
                seed=int(d["seed"]),
                pilot_policy=d.get("pilot_policy", "per_trial"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid scenario configuration: {exc}") from exc
        known = cfg.to_dict()  # every key must be one that to_dict writes
        if "initial_cov" not in d:  # or the diagonal in place of initial_cov
            known["initial_cov_diag"] = known.pop("initial_cov")
        unknown = ", ".join(_unknown_keys(d, known))
        if unknown:
            raise ConfigError(f"unknown configuration keys: {unknown}")
        return cfg

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
    prior_covs: np.ndarray  # (k_steps, 5, 5)
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
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scheme", "k", "rmse_x_m", "rmse_y_m", "rmse_psi_rad", "nmse_h"])
            for label, metrics in self.schemes.items():
                for i in range(len(metrics.rmse_x)):
                    writer.writerow(
                        [
                            label,
                            i + 1,
                            f"{metrics.rmse_x[i]:.12e}",
                            f"{metrics.rmse_y[i]:.12e}",
                            f"{metrics.rmse_psi[i]:.12e}",
                            f"{metrics.nmse_h[i]:.12e}",
                        ]
                    )
        write_manifest(
            path, self.config, schemes=list(self.schemes.keys()),
            n_diverged={label: m.n_diverged for label, m in self.schemes.items()},
        )


def write_manifest(out_path, cfg: ScenarioConfig, **extra) -> None:
    """Write the <out_path>.manifest.json sidecar: config hash, seed, code
    version, and any extra fields."""
    path = Path(out_path)
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "code_version": __version__,
        **extra,
    }
    with open(path.with_suffix(path.suffix + ".manifest.json"), "w") as fh:
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
            prior_covs=np.zeros((k_steps, 5, 5)),
            post_means=np.zeros((k_steps, 5)),
            post_covs=np.zeros((k_steps, 5, 5)),
            fallback_steps=self.builder.fallback_steps,
            mo_stalled_steps=self.builder.mo_stalled_steps,
            h_err_sq=np.zeros(k_steps),
            h_true_sq=h_true_sq,
        )

    def step(self, k: int, pilot, y: np.ndarray, r_true: np.ndarray, a_true: np.ndarray) -> None:
        """Predict, build the combiner, fold in Q y, and log step k against the
        true distance grid r_true and its amplitudes a_true."""
        cfg, record, i = self.cfg, self.record, k - 1
        prior = ekf_predict(self.belief, cfg.noise)
        record.prior_covs[i] = prior.cov

        if record.diverged_at is not None:
            # Filter is dead; coast on the prediction for the remaining steps.
            self.belief = prior
        else:
            b_pred, b_jac = pilot_response(prior.mean.pose, cfg.array, pilot.symbols)
            try:
                # A diverging filter overflows; the finiteness checks report it.
                with np.errstate(over="ignore", invalid="ignore"):
                    # The MO builder and the update share prior.info, one inverse.
                    combiner = self.builder.build(k, prior.mean.pose, lambda: b_jac, prior)
                    self.belief = ekf_update(
                        prior, combiner.apply(y), combiner, b_jac, b_pred, cfg.noise_power_watts
                    )
            except SingularPriorCovariance:
                record.diverged_at = k
                self.belief = prior
        record.post_means[i] = self.belief.mean.as_vector()
        record.post_covs[i] = self.belief.cov
        record.h_err_sq[i] = channel_error_sq(
            Pose(*record.post_means[i, :3]), cfg.array, r_true, a_true
        )


def _draw_pilot(cfg: ScenarioConfig, trial_index: int, step: int) -> Pilot:
    """The pilot of (trial, step); step 0 is the per-trial pilot."""
    rng = stream(cfg.seed, trial_index, step, "pilot")
    return generate_pilot(rng, cfg.p_m_watts, cfg.array.n_m)


def crb_policy(cfg: ScenarioConfig, token: str):
    """The CRB combiner policy(pose, derivs) of a scheme token.

    It is trial 0's PredictionBuilder, with trial 0's random combiner and
    per-trial pilot, so the bound sees the combiner a tracking filter builds,
    fallbacks included.  The observation Jacobian is formed from the step's
    channel derivatives, only when the scheme asks for it.
    """
    builder = PredictionBuilder(
        parse_scheme(token, cfg.combiner.n_rf, cfg.array.n_b), cfg.array, cfg.seed, 0,
        cfg.noise_power_watts,
    )
    pilot = cache(lambda: _draw_pilot(cfg, 0, 0))
    steps = itertools.count(1)

    def jacobian(derivs) -> np.ndarray:
        # The columns bit for bit as pilot_response builds them.
        b = np.zeros((cfg.array.n_b, 5), dtype=complex)
        for col, j in enumerate(derivs):
            b[:, col] = j @ pilot().symbols
        return b

    return lambda pose, derivs: builder.build(next(steps), pose, lambda: jacobian(derivs), None)


def run_trial(
    cfg: ScenarioConfig, trial_index: int, schemes: Sequence[CombinerSpec]
) -> List[TrialRecord]:
    """Simulate one truth and run every scheme's EKF over it, one record each.

    Per step the truth state, pilot, true distance grid, true channel and
    full-array noisy snapshot are computed once and shared; each scheme only
    compresses the snapshot with its own combiner, and scores its posterior
    pose against the true grid.
    """
    array = cfg.array
    truth = simulate_truth(cfg, trial_index)
    h_true_sq = np.zeros(cfg.k_steps)
    filters = [_SchemeFilter(cfg, spec, trial_index, truth, h_true_sq) for spec in schemes]

    pilot = _draw_pilot(cfg, trial_index, 0) if cfg.pilot_policy == "per_trial" else None
    for k in range(1, cfg.k_steps + 1):
        if cfg.pilot_policy == "per_step":
            pilot = _draw_pilot(cfg, trial_index, k)
        r_true, a_true, h_true = channel_grid(Pose(truth[k, 0], truth[k, 1], truth[k, 2]), array)
        h_true_sq[k - 1] = np.linalg.norm(h_true) ** 2
        y = full_snapshot(
            h_true, pilot, cfg.noise_power_watts, stream(cfg.seed, trial_index, k, "obs")
        )
        for f in filters:
            f.step(k, pilot, y, r_true, a_true)
    return [f.record for f in filters]


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


def metrics_nmse(records: Sequence[TrialRecord], cfg: ScenarioConfig) -> np.ndarray:
    """Per-step channel-reconstruction NMSE, rebuilt from the poses.

    The post-hoc reference for the NMSE terms run_trial accumulates: the same
    true grid and the same ``channel_error_sq`` kernel, summed in record
    order, so the two agree byte for byte.
    """
    if not records:
        raise ValueError("no trial records")
    k_steps = records[0].post_means.shape[0]
    num = np.zeros(k_steps)
    den = np.zeros(k_steps)
    for rec in records:
        for i in range(k_steps):
            r_true, a_true, h_true = channel_grid(Pose(*rec.true_states[i + 1, :3]), cfg.array)
            num[i] += channel_error_sq(Pose(*rec.post_means[i, :3]), cfg.array, r_true, a_true)
            den[i] += np.linalg.norm(h_true) ** 2
    return num / den


def _nmse_from_terms(records: Sequence[TrialRecord]) -> np.ndarray:
    """Per-step NMSE from run_trial's terms, summed in record order as
    metrics_nmse sums, so the two agree byte for byte."""
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


def run_campaign(
    cfg: ScenarioConfig,
    schemes: Sequence[CombinerSpec],
    threads: int = 1,
) -> CampaignResult:
    """Run every scheme over shared realizations and aggregate metrics.

    With threads > 1 the trials run in one pool of spawned processes; results
    are assembled in trial order, so the output does not depend on threads.
    """
    if not schemes:
        raise ConfigError("at least one combiner scheme is required")
    trials = range(cfg.n_trials)
    if threads > 1:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(threads, cfg.n_trials), mp_context=ctx) as pool:
            futures = [pool.submit(run_trial, cfg, t, schemes) for t in trials]
            per_trial = [fut.result() for fut in futures]
    else:
        per_trial = [run_trial(cfg, t, schemes) for t in trials]
    results: Dict[str, SchemeMetrics] = {}
    for j, spec in enumerate(schemes):
        records = [trial_records[j] for trial_records in per_trial]
        results[scheme_label(spec)] = _metrics_for_records(records)
    return CampaignResult(config=cfg, schemes=results)
