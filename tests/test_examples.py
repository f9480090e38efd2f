"""The example scripts under ``scripts/`` run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
