"""The benchmark's workloads and how one repetition of each runs.

Every repetition goes through nftrack's public entry points only:
``nftrack.harness.run_campaign`` plus ``CampaignResult.to_csv`` for tracking,
and ``nftrack.cli.main`` in-process for analysis.  Entry points are looked up
on their module at call time, so a tracer that patches the module bindings
sees every call.

``--seed n`` selects reference slot ``n % SLOTS``; the scenario seed is the
config's seed plus the slot.  The same ``--seed`` therefore always gives the
same inputs, and every slot has stored reference outputs.
"""

import importlib
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple

SLOTS = 8

# Fisher sweeps of the analysis workload: grid tokens of `nftrack fisher --sweep`.
_SWEEP_POINTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # path relative to the repository root
    tokens: Tuple[str, ...]  # tracking scheme tokens, or CRB policies for analysis
    steps: int  # filter steps per trial, or CRB recursion steps per policy
    trials: int = 0  # tracking only
    sweeps: Tuple[str, ...] = ()  # analysis only: `nftrack fisher --sweep` specs
    compare: str = "rows"  # reference comparison: "rows" or "time_avg"
    rtol: float = 1e-9

    @property
    def is_tracking(self) -> bool:
        return not self.sweeps

    @property
    def operations(self) -> Tuple[str, ...]:
        """What one repetition does that can fail: a scheme's campaign or a CLI command."""
        if self.is_tracking:
            return self.tokens
        return tuple(f"crb_{p}" for p in self.tokens) + tuple(f"fisher_{s[:2]}" for s in self.sweeps)

    @property
    def units(self) -> int:
        """Work units per repetition: filter steps, or CRB steps + Fisher points."""
        if self.is_tracking:
            return len(self.tokens) * self.trials * self.steps
        return len(self.tokens) * self.steps + len(self.sweeps) * _SWEEP_POINTS


# Why each workload exists is documented in BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("desk_designed", "configs/desk.json", ("fd", "rand", "svd_pe", "qom"),
                 steps=50, trials=2),
        # MO's Armijo line search compares objective values, so a change that
        # flips one accept decision moves the time-averaged errors by up to
        # ~13% with one trial, while objective perturbations up to 1e-8
        # relative leave them bit-identical on every slot.  rtol 1e-6 admits
        # rounding-level changes and rejects flipped decisions.
        Workload("desk_mo", "configs/desk.json", ("mo:rand", "mo:svd_pe", "mo:qom"),
                 steps=50, trials=1, compare="time_avg", rtol=1e-6),
        Workload("full_scale", "configs/paper_full.json", ("fd", "rand", "svd_pe", "qom"),
                 steps=30, trials=1),
        Workload("analysis", "configs/paper_full.json", ("fd", "svd_pe", "qom"),
                 steps=30, sweeps=(f"nb:68:275:{_SWEEP_POINTS}", f"nm:19:75:{_SWEEP_POINTS}")),
    )
}


@dataclass
class RepResult:
    seconds: float  # wall time of the workload's main call(s)
    outputs: Dict[str, str]  # output name -> CSV text
    errors: Dict[str, Optional[str]]  # operation -> failure reason, None if it ran
    diverged: int  # (scheme, trial) pairs with a diverged trial
    pairs: int  # (scheme, trial) pairs run


def scenario_seed(config_seed: int, seed: int) -> int:
    return config_seed + seed % SLOTS


def _boundary_failure(what: str) -> str:
    """Record the traceback of an operation that raised and describe it."""
    traceback.print_exc(file=sys.stderr)
    exc = sys.exc_info()[1]
    return f"{what} raised {type(exc).__name__}: {exc}"


class Runner:
    """Runs repetitions of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, root: Path, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self._harness = importlib.import_module("nftrack.harness")
        self._cli = importlib.import_module("nftrack.cli")
        config_path = root / workload.config
        cfg = self._harness.load_config(config_path)
        self.scenario_seed = scenario_seed(cfg.seed, seed)
        if workload.is_tracking:
            self._cfg = replace(cfg, seed=self.scenario_seed, n_trials=workload.trials,
                                k_steps=workload.steps)
            self._schemes = [
                self._harness.parse_scheme(tok, cfg.combiner.n_rf, cfg.array.n_b)
                for tok in workload.tokens
            ]
            return
        common = ["--config", str(config_path), "--seed", str(self.scenario_seed)]
        argvs = [["crb", *common, "--steps", str(workload.steps), "--policy", policy]
                 for policy in workload.tokens]
        argvs += [["fisher", *common, "--sweep", sweep] for sweep in workload.sweeps]
        self._commands = list(zip(workload.operations, argvs))

    def rep(self) -> RepResult:
        if self.workload.is_tracking:
            return self._track()
        return self._analyse()

    def _track(self) -> RepResult:
        tokens = self.workload.tokens
        pairs = len(tokens) * self.workload.trials
        out = self.work_dir / "campaign.csv"
        t0 = time.perf_counter()
        try:
            result = self._harness.run_campaign(self._cfg, self._schemes)
            seconds = time.perf_counter() - t0
            result.to_csv(out)
            text = out.read_text()
        except Exception:
            reason = _boundary_failure("run_campaign")
            return RepResult(time.perf_counter() - t0, {}, dict.fromkeys(tokens, reason), 0, pairs)
        errors = {}
        diverged = 0
        for tok in tokens:
            metrics = result.schemes.get(tok)
            if metrics is None:
                errors[tok] = "scheme missing from the campaign result"
                continue
            diverged += metrics.n_diverged
            errors[tok] = f"{metrics.n_diverged} diverged trial(s)" if metrics.n_diverged else None
        return RepResult(seconds, {"campaign": text}, errors, diverged, pairs)

    def _analyse(self) -> RepResult:
        outputs, errors = {}, {}
        seconds = 0.0
        for name, argv in self._commands:
            out = self.work_dir / f"{name}.csv"
            t0 = time.perf_counter()
            try:
                code = self._cli.main([*argv, "--out", str(out)])
            except Exception:
                code = None
                errors[name] = _boundary_failure(f"nftrack {argv[0]}")
            seconds += time.perf_counter() - t0
            if code == 0:
                outputs[name] = out.read_text()
                errors[name] = None
            elif code is not None:
                errors[name] = f"nftrack {argv[0]} exited with code {code}"
        return RepResult(seconds, outputs, errors, 0, 0)
