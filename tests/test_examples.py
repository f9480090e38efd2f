"""The example scripts under ``scripts/`` run end to end on small inputs."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from switchfuse.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        (
            "run_synthetic_experiment.py",
            ["--queries", "60", "--references", "20"],
            ["comparison.csv", "pr_curves.svg"],
        ),
        (
            "run_image_demo.py",
            ["--places", "12"],
            ["store.sfcal", "preds.csv", "report/pr_curve.svg"],
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
    """The script's comparison holds every method, and ``calibrate`` and
    ``compare`` on the manifests and config it writes reproduce it byte for
    byte."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "run_synthetic_experiment.py"
    out = subprocess.run(
        [sys.executable, script, "--queries", "60", "--references", "20",
         "--out", tmp_path],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("# generated ")
    header, *rows = csv.reader(lines[1:])
    assert header == [
        "method", "accuracy", "correct_count",
        "accuracy_gain_of_switch-fuse", "correct_gain_of_switch-fuse",
    ]
    techniques = [f"{unit}_{i}" for unit in ("seasonal", "illumination", "day-night")
                  for i in range(3)]
    assert [row[0] for row in rows] == (
        ["switch-fuse", "switch-only", "fuse-all"]
        + [f"single:{tid}" for tid in techniques]
    )
    assert [float(v) for v in rows[0][3:]] == [0.0, 0.0]

    config = tmp_path / "config.json"
    assert cli_main([
        "calibrate", "--manifest", str(tmp_path / "calib_manifest.json"),
        "--config", str(config), "--out", str(tmp_path / "store.sfcal"),
    ]) == 0
    assert cli_main([
        "compare", "--manifest", str(tmp_path / "eval_manifest.json"),
        "--config", str(config), "--store", str(tmp_path / "store.sfcal"),
        "--out", str(tmp_path / "cli"), "--no-timestamp",
    ]) == 0
    # the script's file after its "# generated" line
    unstamped = (tmp_path / "comparison.csv").read_bytes().split(b"\n", 1)[1]
    assert (tmp_path / "cli" / "comparison.csv").read_bytes() == unstamped
