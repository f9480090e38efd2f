#!/usr/bin/env python3
"""Compare the output bytes of two switchfuse source trees on one dataset.

For each ``src`` root, runs ``calibrate -> run -> evaluate -> compare`` with
``--no-timestamp`` through the real CLI: one ``python -c`` driver per root,
with that root on ``PYTHONPATH``, calls ``switchfuse.cli.main`` for each
command in order and stops at the first that fails, naming it with its exit
code and stderr.  ``evaluate`` and ``compare`` also get ``--svg``, so the PR
points of every method are compared.  Then prints ``identical`` or
``differs`` for every output file (the SFCAL store, the predictions CSV, the
``evaluate`` CSVs, ``pr_curve.svg``, ``comparison.csv`` and
``pr_curves.svg``), with the first differing byte offset, and exits 1 on
any difference or failed command::

    python scripts/diff_outputs.py OLD/src NEW/src \\
        --calib-manifest calib_manifest.json \\
        --eval-manifest eval_manifest.json --config config.json

With ``--workload NAME --seed N`` instead of the three input files, each
root generates the inputs of that benchmark workload itself: this checkout's
``perfbench/workloads.py`` runs in a subprocess with the root first on the
path.  Each root's pipeline then runs on its own inputs, and every input file
(SFDESC descriptors or PGM images, manifests, ground truth, the config and
``inputs.json``) is compared too, listed under ``inputs/``::

    python scripts/diff_outputs.py OLD/src NEW/src --workload score-r200 --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


# Runs each argv of the JSON list in argv[1] through the CLI, in order; the
# first that fails ends the driver with its name, exit code and stderr.
DRIVER = """
import contextlib, io, json, sys
from switchfuse.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
"""


def run_pipeline(src: Path, args, out: Path) -> None:
    """All four commands against ``src`` in one interpreter; raises on a
    failed command."""
    common = ["--no-timestamp"]
    plots = ["--svg", *common]
    commands = [
        ["calibrate", "--manifest", args.calib_manifest, "--config", args.config,
         "--out", out / "store.sfcal"],
        ["run", "--manifest", args.eval_manifest, "--config", args.config,
         "--store", out / "store.sfcal", "--out", out / "preds.csv", *common],
        ["evaluate", "--predictions", out / "preds.csv",
         "--manifest", args.eval_manifest, "--out", out / "report", *plots],
        ["compare", "--manifest", args.eval_manifest, "--config", args.config,
         "--store", out / "store.sfcal", "--out", out / "compare", *plots],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER,
         json.dumps([[str(a) for a in argv] for argv in commands])],
        env=dict(os.environ, PYTHONPATH=str(src.resolve())),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {proc.stderr.strip()}")


ROOT = Path(__file__).resolve().parent.parent


def generate_workload(name: str, seed: int, src: Path, cwd: Path) -> dict:
    """Write the inputs of benchmark workload ``name`` at ``seed`` under
    ``cwd / "inputs"`` with ``src`` first on the path; returns its
    ``inputs.json`` with the manifest and config paths made absolute.  The
    generator runs in ``cwd`` and writes relative paths, so every root's
    ``inputs.json`` has the same bytes when their inputs do."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    if name not in workloads.WORKLOADS:
        raise RuntimeError(
            f"unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}"
        )
    code = (
        "import sys, workloads; "
        "workloads.generate_inputs(workloads.WORKLOADS[sys.argv[1]], "
        "int(sys.argv[2]), 'inputs')"
    )
    path = os.pathsep.join([str(src.resolve()), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code, name, str(seed)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: generating {name}: {proc.stderr.strip()}")
    inputs = json.loads((cwd / "inputs" / "inputs.json").read_text())
    keys = ("calib_manifest", "eval_manifest", "config")
    return {key: cwd / inputs[key] for key in keys}


def first_difference(a: bytes, b: bytes) -> int | None:
    """Offset of the first differing byte, or None when equal."""
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def compare_trees(left: Path, right: Path) -> bool:
    """Print one line per output file; True when every file is identical."""
    names = sorted(
        {p.relative_to(root) for root in (left, right) for p in root.rglob("*") if p.is_file()}
    )
    same = True
    for name in names:
        a, b = left / name, right / name
        if not (a.exists() and b.exists()):
            print(f"differs    {name}: only in {'left' if a.exists() else 'right'}")
            same = False
            continue
        offset = first_difference(a.read_bytes(), b.read_bytes())
        if offset is None:
            print(f"identical  {name}")
        else:
            print(f"differs    {name}: first difference at byte {offset}")
            same = False
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", type=Path, help="first src root")
    parser.add_argument("right", type=Path, help="second src root")
    parser.add_argument("--calib-manifest")
    parser.add_argument("--eval-manifest")
    parser.add_argument("--config")
    parser.add_argument("--workload", help="benchmark workload to generate inputs for")
    parser.add_argument("--seed", type=int, help="seed of the generated workload")
    args = parser.parse_args(argv)
    files = (args.calib_manifest, args.eval_manifest, args.config)
    if args.workload is None and args.seed is None:
        if None in files:
            parser.error(
                "give --calib-manifest, --eval-manifest and --config, "
                "or --workload and --seed"
            )
    elif args.workload is None or args.seed is None or any(files):
        parser.error("--workload and --seed go together, without input files")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "left", Path(tmp) / "right"]
        try:
            for src, out in zip((args.left, args.right), outs):
                out.mkdir()
                if args.workload is not None:
                    inputs = generate_workload(args.workload, args.seed, src, out)
                    for key, path in inputs.items():
                        setattr(args, key, path)
                run_pipeline(src, args, out)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        return 0 if compare_trees(*outs) else 1


if __name__ == "__main__":
    sys.exit(main())
