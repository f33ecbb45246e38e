"""Self-tests of the benchmark's own machinery.  Run: python3 -m pytest -q bench/test_bench.py"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import SLOTS, WORKLOADS, scenario_seed  # noqa: E402


def _span(name, start, end, parent, request=0):
    return [name, start, end, parent, request, None]


def test_self_time_subtracts_only_direct_children():
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 70]
    synthetic = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a1", 15, 25, 1),
        _span("b", 50, 70, 0),
    ]
    assert spans.self_times(synthetic) == [50, 20, 10, 20]


def test_layer_metrics_counts_and_self_ms_per_request():
    ms = 1_000_000
    synthetic = []
    for req in (0, 1):
        base = len(synthetic)
        synthetic += [
            _span("harness.run_trial", 0, 10 * ms, -1, req),
            _span("estimation.ekf_predict", 1 * ms, 2 * ms, base, req),
            _span("estimation.ekf_update", 3 * ms, 5 * ms, base, req),
            _span("estimation.psd_inverse", 3 * ms, 4 * ms, base + 2, req),
        ]
        synthetic[base][spans.DETAIL] = 2  # fallbacks reported by the TrialRecord
    out = spans.layer_metrics(synthetic, [0, 1])
    assert out["harness.run_trial.calls"] == 1
    assert out["harness.run_trial.self_ms"] == pytest.approx(7.0)
    assert out["estimation.ekf_update.self_ms"] == pytest.approx(1.0)
    assert out["combiners.fallbacks"] == 2
    assert out["harness.step_ms.p50"] == pytest.approx(4.0)  # predict start -> update end
    assert out["geometry.channel_matrix.calls"] == 0


def test_tracer_patches_every_binding_and_reports_absent_functions(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    geometry = types.ModuleType("fakepkg.geometry")
    harness = types.ModuleType("fakepkg.harness")

    def channel_matrix(pose, cfg):
        return pose

    geometry.channel_matrix = channel_matrix
    harness.channel_matrix = channel_matrix  # a `from .geometry import channel_matrix` copy
    for name, mod in (("fakepkg", pkg), ("fakepkg.geometry", geometry), ("fakepkg.harness", harness)):
        monkeypatch.setitem(sys.modules, name, mod)

    tracer = spans.Tracer("fakepkg")
    tracer.install()
    try:
        assert harness.channel_matrix(1, 2) == 1
        assert geometry.channel_matrix(3, 4) == 3
    finally:
        tracer.uninstall()
    assert harness.channel_matrix is channel_matrix
    assert [s[spans.NAME] for s in tracer.spans] == ["geometry.channel_matrix"] * 2
    assert "geometry.channel_derivatives" in tracer.absent
    assert len(tracer.absent) == len(spans.TARGETS) - 1


def _default_reference(name):
    workload = WORKLOADS[name]
    stored = reference.load(name)
    seed = next(iter(sorted(stored)))
    return workload, int(seed), stored, dict(stored[seed])


def _perturb_first_number(text, factor):
    lines = text.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[2] = f"{float(cells[2]) * factor:.12e}"
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("name", ["desk_designed", "analysis"])
def test_reference_accepts_identical_and_rejects_1e6_relative(name):
    workload, seed, stored, outputs = _default_reference(name)
    assert all(r is None for r in reference.check(workload, seed, outputs, stored).values())
    key = next(iter(outputs))
    outputs[key] = _perturb_first_number(outputs[key], 1 + 1e-6)
    result = reference.check(workload, seed, outputs, stored)
    assert sum(r is not None for r in result.values()) == 1


def test_mo_reference_compares_time_averages_at_its_tolerance():
    workload, seed, stored, outputs = _default_reference("desk_mo")
    text = outputs["campaign"]
    close = reference.check(workload, seed, {"campaign": _perturb_first_number(text, 1 + 1e-9)}, stored)
    assert all(r is None for r in close.values())
    far = reference.check(workload, seed, {"campaign": _perturb_first_number(text, 1.01)}, stored)
    assert sum(r is not None for r in far.values()) == 1


def test_seed_without_reference_reports_no_reference():
    workload, seed, stored, outputs = _default_reference("desk_designed")
    other = seed + SLOTS  # outside the stored slots
    assert str(other) not in stored
    result = reference.check(workload, other, outputs, stored)
    assert set(result) == set(workload.operations)
    assert set(result.values()) == {reference.NO_REFERENCE}


def test_every_seed_maps_to_a_stored_reference():
    for workload in WORKLOADS.values():
        stored = reference.load(workload.name)
        config = json.loads((BENCH_DIR.parent / workload.config).read_text())
        for seed in (0, 1, SLOTS - 1, 12345):
            assert str(scenario_seed(config["seed"], seed)) in stored


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "steps_per_s", "peak_rss_mb"]
