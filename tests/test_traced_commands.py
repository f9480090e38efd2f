"""``calibrate``, ``run`` and ``evaluate`` under the benchmark's span tracer.

``perfbench/tracer.py`` wraps the package's layer functions by name, keys
``compute_descriptor`` spans by their technique argument and reads some
results (a loaded descriptor set's matrix, a decoded PGM file's size).
Running the commands under it here makes a renamed function or a changed
result shape that the tracer relies on fail in the tests, not only in a
traced benchmark run.  ``perfbench/layers.py`` reads the ``evaluate.reports``
metrics from the ``reports.read_predictions`` and ``reports.write_*``
spans and ``calibrate.calibration.build_store_ms`` from the
``calibration.build_store`` span, so those must exist too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from switchfuse.cli import main
from switchfuse.datasets import save_config
from switchfuse.switching import TripartiteConfig, UnitConfig
from switchfuse.synthetic import export_image_dataset, generate_image_dataset
from tests.test_cli import write_config, write_spec

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracer()


def score_inputs(d: Path):
    """(calibration manifest, eval manifest, config) of a small SFDESC
    dataset: 40 queries per split, 30 references, two techniques."""
    write_spec(d / "spec.json", [("a", 0.6), ("b", 0.5)])
    write_config(d / "config.json", [["a", "b"]])
    argv = ["synth", "--spec", d / "spec.json", "--seed", 3, "--out", d / "data"]
    assert main([str(a) for a in argv]) == 0
    data = d / "data"
    return data / "calib_manifest.json", data / "eval_manifest.json", d / "config.json"


def image_inputs(d: Path):
    """The same for a small built-in image dataset: 12 places of 32-pixel
    images per split, all three built-in techniques in one unit."""
    manifests = []
    for split, seed in (("calib", 1), ("eval", 2)):
        refs, queries = generate_image_dataset(12, seed, size=32)
        manifests.append(export_image_dataset(refs, queries, d / split, split))
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("hog", "tiny_patch", "intensity_hist")),)
    )
    save_config(config, d / "config.json")
    return manifests[0], manifests[1], d / "config.json"


# spans every dataset's commands record
REPORT_SPANS = [
    "reports.write_predictions",
    "reports.read_predictions",
    "reports.write_report_csvs",
]


@pytest.mark.parametrize(
    "make, spans",
    [
        (score_inputs, ["descriptors.load_descriptor_set", "calibration.build_store"]),
        (
            image_inputs,
            [
                "descriptors.compute_descriptor[hog]",
                "pgm.load_pgm",
                "calibration.build_store",
            ],
        ),
    ],
    ids=["sfdesc", "builtin"],
)
def test_calibrate_and_run_under_the_tracer(tmp_path, make, spans):
    calib, evaluation, config = make(tmp_path)
    store = tmp_path / "store.sfcal"
    commands = {
        "calibrate": ["calibrate", "--manifest", calib, "--config", config,
                      "--out", store],
        "run": ["run", "--manifest", evaluation, "--config", config,
                "--store", store, "--out", tmp_path / "p.csv"],
        "evaluate": ["evaluate", "--predictions", tmp_path / "p.csv",
                     "--manifest", evaluation, "--out", tmp_path / "report"],
    }
    tracer = tracing.Tracer()
    for label, argv in commands.items():
        with tracer.active(), tracer.segment(label):
            assert main([str(a) for a in argv]) == 0
    payloads = {}
    for at, name in enumerate(tracer.name):
        payloads.setdefault(tracer.names[name], []).append(tracer.a[at])
    for name in spans + REPORT_SPANS:
        assert name in payloads, f"no {name} span"
    # the payloads read a loaded set's matrix and a decoded file's size
    for name in {"descriptors.load_descriptor_set", "pgm.load_pgm"} & set(spans):
        assert min(payloads[name]) > 0.0
    for label, first, stop in tracer.segments:
        stats = tracing.segment_stats(tracer, first, stop)
        assert stats.count[f"bench.{label}"] == 1
        if label == "evaluate":  # what evaluate.reports.read_ms/write_ms sum
            assert stats.total_ns["reports.read_predictions"] > 0
            assert stats.total_ns["reports.write_report_csvs"] > 0
