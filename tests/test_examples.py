"""The experiment script under ``scripts/`` runs end to end."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from switchfuse.cli import main as cli_main
from switchfuse.datasets import load_config

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

sys.path.pop(0)

# the methods whose frozen accuracies a workload's expected seed checks
BASELINES = ["switch-fuse", "switch-only", "fuse-all"]


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        (
            "run_synthetic_experiment.py",
            ["--seed", str(workloads.ACCEPTANCE_SEED)],
            [f"{name}/{out}" for name in workloads.WORKLOADS
             for out in ("inputs/inputs.json", "store.sfcal",
                         "comparison.csv", "pr_curves.svg")],
        ),
    ],
)
def test_example_script_runs(tmp_path, script, args, outputs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, ROOT / "scripts" / script, *args, "--out", tmp_path / "out"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    for name in outputs:
        assert (tmp_path / "out" / name).is_file(), name


def test_synthetic_experiment_compares_every_method(tmp_path):
    """At the acceptance seed the script writes, for every benchmark
    workload, a comparison of every method and its PR curves; ``calibrate``
    and ``compare`` on the inputs it wrote reproduce the comparison byte for
    byte, and the frozen accuracies hold."""
    seed = workloads.ACCEPTANCE_SEED
    out = subprocess.run(
        [sys.executable, ROOT / "scripts" / "run_synthetic_experiment.py",
         "--seed", str(seed), "--out", tmp_path],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(workloads.WORKLOADS)
    for name, spec in workloads.WORKLOADS.items():
        run = tmp_path / name
        inputs = json.loads((run / "inputs" / "inputs.json").read_text())
        assert inputs["seed"] == seed
        lines = (run / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("# generated ")
        header, *rows = csv.reader(lines[1:])
        assert header == [
            "method", "accuracy", "correct_count",
            "accuracy_gain_of_switch-fuse", "correct_gain_of_switch-fuse",
        ]
        techniques = load_config(inputs["config"]).all_techniques()
        assert [row[0] for row in rows] == (
            BASELINES + [f"single:{tid}" for tid in techniques]
        ), name
        assert [float(v) for v in rows[0][3:]] == [0.0, 0.0]
        assert (run / "pr_curves.svg").is_file()
        if spec.expected_seed == seed:
            for method, accuracy, *_ in rows[:3]:
                expected = spec.expected_accuracy[method]
                assert abs(float(accuracy) - expected) <= workloads.ACCEPTANCE_TOLERANCE

        store, again = tmp_path / f"{name}.sfcal", tmp_path / f"{name}-cli"
        assert cli_main([
            "calibrate", "--manifest", inputs["calib_manifest"],
            "--config", inputs["config"], "--out", str(store),
        ]) == 0
        assert cli_main([
            "compare", "--manifest", inputs["eval_manifest"],
            "--config", inputs["config"], "--store", str(store),
            "--out", str(again), "--no-timestamp",
        ]) == 0
        # the script's file after its "# generated" line
        unstamped = (run / "comparison.csv").read_bytes().split(b"\n", 1)[1]
        assert (again / "comparison.csv").read_bytes() == unstamped, name
