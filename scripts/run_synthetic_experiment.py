#!/usr/bin/env python3
"""Run the method comparison on every benchmark workload through the CLI.

For each workload of ``perfbench/workloads.py`` (today the score-mode
acceptance set ``score-r200`` and the built-in image set ``image-builtin``),
writes its inputs at ``--seed`` into ``--out/<workload>/inputs``, then runs
``switchfuse calibrate`` on the calibration split and ``switchfuse compare
--svg`` on the eval split.  Each ``--out/<workload>`` gets ``store.sfcal``,
``comparison.csv`` (switch-fuse against switch-only, fuse-all and every
single technique) and ``pr_curves.svg``::

    PYTHONPATH=src python scripts/run_synthetic_experiment.py --seed 7 --out results

Datasets of other sizes are made with ``switchfuse synth``.
"""

import argparse
import json
import sys
from pathlib import Path

from switchfuse.cli import main as cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    parser.add_argument("--out", type=Path, default=Path("synthetic_results"))
    args = parser.parse_args()
    for name, spec in workloads.WORKLOADS.items():
        out = args.out / name
        listed = workloads.generate_inputs(spec, args.seed, out / "inputs")
        inputs = json.loads(listed.read_text())
        config, store = inputs["config"], out / "store.sfcal"
        print(f"{name} at seed {args.seed}")
        for argv in (
            ["calibrate", "--manifest", inputs["calib_manifest"],
             "--config", config, "--out", store],
            ["compare", "--manifest", inputs["eval_manifest"], "--config", config,
             "--store", store, "--out", out, "--svg"],
        ):
            rc = cli([str(a) for a in argv])
            if rc != 0:
                raise SystemExit(rc)


if __name__ == "__main__":
    main()
