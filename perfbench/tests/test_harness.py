"""Smoke tests of the benchmark harness at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "score": dataclasses.replace(
        workloads.WORKLOADS["score-r200"],
        name="toy-score",
        calibration_queries=12,
        eval_queries=12,
        reference_count=20,
        expected_seed=None,
        expected_accuracy={},
    ),
    "image": dataclasses.replace(
        workloads.WORKLOADS["image-builtin"],
        name="toy-image",
        calibration_queries=12,
        eval_queries=12,
        image_size=32,
    ),
}


def _declared(section):
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("kind", sorted(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_unit(kind, trace, tmp_path):
    result = bench.run_workload(TOY[kind], 3, 0.01, trace, tmp_path)
    assert result.correct, result.failures
    assert result.failed == 0 and result.attempted > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert result.units == declared
    assert set(result.metrics) == set(declared)
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_declared_workloads_match_harness():
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_layer_self_times_within_command_wall(tmp_path):
    inputs = bench.generate(TOY["score"], 5, tmp_path / "inputs")
    ws = bench.Workspace(inputs, tmp_path / "out")
    tr = tracing.Tracer()
    for command in bench.COMMANDS:
        with tr.active(), tr.segment(command):
            inv = bench.invoke(ws, command)
        assert inv.rc == 0, inv.stderr
        _, first, stop = tr.segments[-1]
        stats = tracing.segment_stats(tr, first, stop)
        layer_self = sum(stats.layer_self_ns.values())
        assert 0 < layer_self <= stats.wall_ns <= inv.seconds * 1e9 + 1e6
        assert set(stats.layer_self_ns) <= set(tracing.LAYERS)
        assert all(v >= 0 for v in stats.layer_self_ns.values())


def _snapshot():
    import switchfuse  # noqa: F401

    seen = {}
    for modname, module in sys.modules.items():
        if modname == "switchfuse" or modname.startswith("switchfuse."):
            for attr, value in vars(module).items():
                seen[(modname, attr)] = value
                if inspect.isclass(value):
                    for cattr, cvalue in vars(value).items():
                        seen[(modname, attr, cattr)] = cvalue
    return seen


def test_tracer_wraps_imported_names_and_restores_them():
    from switchfuse import calibration, datasets, descriptors, evaluation, switching

    before = _snapshot()
    original_mass = calibration.LikelihoodHistogram.__dict__["mass"]
    tr = tracing.Tracer()
    with tr.active():
        assert datasets.similarity_vector is descriptors.similarity_vector
        assert getattr(datasets.similarity_vector, "__wrapped__", None) is not None
        assert getattr(switching.raw_match_score, "__wrapped__", None) is not None
        assert getattr(evaluation.run_tripartite, "__wrapped__", None) is not None
        assert calibration.LikelihoodHistogram.__dict__["mass"] is not original_mass
        # private helpers stay unwrapped
        assert not hasattr(calibration.LikelihoodHistogram._counts, "__wrapped__")
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_spans_nest_and_self_time_subtracts_children():
    from switchfuse import calibration

    hist = calibration.LikelihoodHistogram(4, 0.0, 1.0, [1, 2, 3, 4], [4, 3, 2, 1])
    tr = tracing.Tracer()
    with tr.active(), tr.segment("probe"):
        calibration.likelihood(hist, 0.3, "match")
    names = [tr.names[i] for i in tr.name]
    assert names == [
        "bench.probe",
        "calibration.likelihood",
        "calibration.LikelihoodHistogram.mass",
        "calibration.LikelihoodHistogram.bin_index",
    ]
    assert list(tr.parent) == [-1, 0, 1, 2]
    stats = tracing.segment_stats(tr, 0, len(tr.name))
    assert stats.count["calibration.LikelihoodHistogram.mass"] == 1
    total = stats.total_ns["calibration.likelihood"]
    assert 0 <= stats.layer_self_ns["calibration"] <= total


def test_layer_metric_names_are_unique_and_valid():
    import re

    units = layers.metric_units()
    total = sum(len(m) for m in layers.SEGMENT_METRICS.values())
    assert len(units) == total <= 128
    for name, unit in units.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_probe_sampler_restores_signal_state():
    import signal
    import time

    import probe

    before = signal.getsignal(signal.SIGALRM)
    with probe.Sampler() as sampler:
        deadline = time.perf_counter() + 3.5 * probe.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        with sampler.paused():
            paused_at = len(sampler.samples)
            time.sleep(2 * probe.INTERVAL_S)
            assert len(sampler.samples) == paused_at
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2
    assert sampler.seconds == pytest.approx(sum(sampler.samples))
