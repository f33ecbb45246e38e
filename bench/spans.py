"""Tracing nftrack from outside: spans around its public functions, per-layer metrics.

The tracer replaces each target function with a wrapper in every nftrack
module that binds it (``from .x import f`` copies the binding), and methods
on their class.  Spans stay in memory until the run ends.  Layers are the
modules; a span's self time is its duration minus its child spans.
"""

import importlib
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from functools import wraps
from typing import Dict, List, Sequence

import numpy as np

# (span name, defining module, attribute path)
TARGETS = (
    ("geometry.channel_matrix", "geometry", "channel_matrix"),
    ("geometry.channel_derivatives", "geometry", "channel_derivatives"),
    ("observation.observation_jacobian", "observation", "observation_jacobian"),
    ("observation.observe", "observation", "observe"),
    ("observation.generate_pilot", "observation", "generate_pilot"),
    ("estimation.ekf_predict", "estimation", "ekf_predict"),
    ("estimation.ekf_update", "estimation", "ekf_update"),
    ("estimation.fim", "estimation", "fim"),
    ("estimation.psd_inverse", "estimation", "psd_inverse"),
    ("estimation.Combiner", "estimation", "Combiner.__init__"),
    ("combiners.combiner_svd_pe", "combiners", "combiner_svd_pe"),
    ("combiners.combiner_qom", "combiners", "combiner_qom"),
    ("combiners.combiner_mo", "combiners", "combiner_mo"),
    ("dynamics.ctrv_transition", "dynamics", "ctrv_transition"),
    ("dynamics.ctrv_jacobian", "dynamics", "ctrv_jacobian"),
    ("dynamics.sample_process_noise", "dynamics", "sample_process_noise"),
    ("rng.stream", "rng", "stream"),
    ("harness.simulate_truth", "harness", "simulate_truth"),
    ("harness.run_trial", "harness", "run_trial"),
    ("harness.metrics_rmse", "harness", "metrics_rmse"),
    ("harness.metrics_nmse", "harness", "metrics_nmse"),
    ("harness.to_csv", "harness", "CampaignResult.to_csv"),
    ("information.bayesian_fim_step", "information", "bayesian_fim_step"),
    ("information.expected_fim", "information", "expected_fim"),
    ("information.avg_fisher", "information", "avg_fisher"),
    ("cli.main", "cli", "main"),
)

# Per-layer metrics reported by a traced run, with units.  Values are per
# repetition (one main call), median over the traced repetitions; the
# percentiles pool every sample of the traced repetitions.
METRICS = (
    ("geometry.channel_matrix.calls", "count"),
    ("geometry.channel_matrix.self_ms", "ms"),
    ("geometry.channel_derivatives.calls", "count"),
    ("geometry.channel_derivatives.self_ms", "ms"),
    ("geometry.mb_computed", "MB"),
    ("observation.observation_jacobian.calls", "count"),
    ("observation.observation_jacobian.self_ms", "ms"),
    ("observation.observe.calls", "count"),
    ("observation.observe.self_ms", "ms"),
    ("observation.generate_pilot.calls", "count"),
    ("estimation.ekf_predict.calls", "count"),
    ("estimation.ekf_predict.self_ms", "ms"),
    ("estimation.ekf_update.calls", "count"),
    ("estimation.ekf_update.self_ms", "ms"),
    ("estimation.fim.calls", "count"),
    ("estimation.fim.self_ms", "ms"),
    ("estimation.psd_inverse.calls", "count"),
    ("estimation.psd_inverse.self_ms", "ms"),
    ("estimation.Combiner.calls", "count"),
    ("combiners.combiner_svd_pe.calls", "count"),
    ("combiners.combiner_svd_pe.self_ms", "ms"),
    ("combiners.combiner_qom.calls", "count"),
    ("combiners.combiner_qom.self_ms", "ms"),
    ("combiners.combiner_mo.calls", "count"),
    ("combiners.combiner_mo.self_ms", "ms"),
    ("combiners.combiner_mo.call_ms.p50", "ms"),
    ("combiners.combiner_mo.call_ms.p99", "ms"),
    ("combiners.combiner_mo.fim_calls_per_call", "calls/call"),
    ("combiners.combiner_mo.accepted_per_eval", "ratio"),
    ("combiners.combiner_mo.improved_frac", "ratio"),
    ("combiners.fallbacks", "count"),
    ("dynamics.ctrv_transition.calls", "count"),
    ("dynamics.ctrv_transition.self_ms", "ms"),
    ("dynamics.ctrv_jacobian.calls", "count"),
    ("dynamics.ctrv_jacobian.self_ms", "ms"),
    ("dynamics.sample_process_noise.calls", "count"),
    ("rng.stream.calls", "count"),
    ("rng.stream.self_ms", "ms"),
    ("harness.simulate_truth.calls", "count"),
    ("harness.simulate_truth.self_ms", "ms"),
    ("harness.run_trial.calls", "count"),
    ("harness.run_trial.self_ms", "ms"),
    ("harness.metrics_rmse.self_ms", "ms"),
    ("harness.metrics_nmse.self_ms", "ms"),
    ("harness.to_csv.self_ms", "ms"),
    ("harness.step_ms.p50", "ms"),
    ("harness.step_ms.p99", "ms"),
    ("information.bayesian_fim_step.calls", "count"),
    ("information.bayesian_fim_step.self_ms", "ms"),
    ("information.bayesian_fim_step.noise_draws_per_call", "draws/call"),
    ("information.expected_fim.calls", "count"),
    ("information.expected_fim.self_ms", "ms"),
    ("information.avg_fisher.calls", "count"),
    ("information.avg_fisher.self_ms", "ms"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.absent_functions", "count"),
)

# Span fields: name, start ns, end ns, parent index (-1 at the root), request
# id (the repetition), detail (what the result says, for a few targets).
NAME, START, END, PARENT, REQUEST, DETAIL = range(6)


def _bytes_produced(args, result):
    """Bytes of the matrices a geometry call returned (n_b * n_m * 16 each)."""
    arrays = result if isinstance(result, tuple) else (result,)
    return sum(getattr(a, "nbytes", 0) for a in arrays)


def _mo_outcome(args, result):
    info = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    return getattr(info, "accepted_steps", 0), bool(getattr(info, "improved", False))


def _fallbacks(args, result):
    return len(getattr(result, "fallback_steps", ()))


_DETAILS = {
    "geometry.channel_matrix": _bytes_produced,
    "geometry.channel_derivatives": _bytes_produced,
    "combiners.combiner_mo": _mo_outcome,
    "harness.run_trial": _fallbacks,
}


class Tracer:
    """Installs span-recording wrappers into nftrack and keeps the spans."""

    def __init__(self, package: str = "nftrack"):
        self.package = package
        self.spans: List[list] = []
        self.request = 0
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        detail = _DETAILS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if detail is not None:
                span[DETAIL] = detail(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is recorded as absent."""
        root = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{self.package}.{info.name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for name, module_name, attr in TARGETS:
            owner = sys.modules.get(f"{self.package}.{module_name}")
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_path:  # a method: patch it on its class
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One line per span: request, index, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("request,index,parent,name,start_ns,end_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{s[REQUEST]},{i},{s[PARENT]},{s[NAME]},{s[START]},{s[END]}\n")


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    idx = spans[idx][PARENT]
    while idx >= 0:
        if spans[idx][NAME] == name:
            return True
        idx = spans[idx][PARENT]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Sequence], requests: Sequence[int]) -> Dict[str, float]:
    """Per-layer metrics (all of METRICS but the trace.* ones) from the spans."""
    selfs = self_times(spans)
    per_request = {r: defaultdict(float) for r in requests}
    pooled = defaultdict(list)
    predict_start = {}
    for i, s in enumerate(spans):
        name, m = s[NAME], per_request[s[REQUEST]]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_ms"] += selfs[i] / 1e6
        if name in ("geometry.channel_matrix", "geometry.channel_derivatives") and s[DETAIL]:
            m["geometry.mb_computed"] += s[DETAIL] / 1e6
        elif name == "combiners.combiner_mo":
            pooled["combiners.combiner_mo.call_ms"].append((s[END] - s[START]) / 1e6)
            if s[DETAIL] is not None:
                m["mo_accepted"] += s[DETAIL][0]
                m["mo_improved"] += s[DETAIL][1]
        elif name == "harness.run_trial" and s[DETAIL] is not None:
            m["combiners.fallbacks"] += s[DETAIL]
        elif name == "estimation.fim" and _has_ancestor(spans, i, "combiners.combiner_mo"):
            m["mo_evals"] += 1
        elif name == "dynamics.sample_process_noise" and _has_ancestor(
                spans, i, "information.bayesian_fim_step"):
            m["bfs_draws"] += 1
        elif name == "estimation.ekf_predict":
            predict_start[s[REQUEST]] = s[START]
        elif name == "estimation.ekf_update" and s[REQUEST] in predict_start:
            start = predict_start.pop(s[REQUEST])
            pooled["harness.step_ms"].append((s[END] - start) / 1e6)

    for m in per_request.values():
        mo_calls = m["combiners.combiner_mo.calls"]
        m["combiners.combiner_mo.fim_calls_per_call"] = _ratio(m["mo_evals"], mo_calls)
        m["combiners.combiner_mo.accepted_per_eval"] = _ratio(m["mo_accepted"], m["mo_evals"])
        m["combiners.combiner_mo.improved_frac"] = _ratio(m["mo_improved"], mo_calls)
        m["information.bayesian_fim_step.noise_draws_per_call"] = _ratio(
            m["bfs_draws"], m["information.bayesian_fim_step.calls"])

    out = {}
    for name, _unit in METRICS:
        if name.startswith("trace."):
            continue
        base, _, stat = name.rpartition(".")
        if stat in ("p50", "p99"):
            samples = pooled.get(base)
            out[name] = float(np.percentile(samples, int(stat[1:]))) if samples else 0.0
        else:
            out[name] = statistics.median(per_request[r][name] for r in requests)
    return out
