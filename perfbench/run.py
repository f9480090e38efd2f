#!/usr/bin/env python3
"""switchfuse benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload score-r200 --seed 7 --seconds 24 --trace 0

Run from the repository root.  Generates the workload's inputs from --seed
in a child process, drives the ``switchfuse`` CLI from ``src/`` in this
process, checks every output and prints a metrics table followed, as the
last line, by one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
the per-layer metrics of a traced run.  Exits 1 if any check failed and 2
if the benchmark cannot run at all (no ``src/switchfuse`` beside it).
See perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(limit: int) -> None:
    """Allow BLAS at most ``limit`` threads; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= limit:
            os.environ[var] = str(limit)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="switchfuse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "switchfuse" / "__init__.py").is_file():
        print(f"no switchfuse package under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))

    import bench

    env = bench.environment()
    result = bench.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), STATE_DIR
    )
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"env": env, "result": result.__dict__}, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in result.metrics.items():
        print(f"  {name:<55} {value:>16.6g} {result.units[name]}")
    if result.details.get("probe_s"):
        print(f"  {'probe (median)':<55} {result.details['probe_s']:>16.6g} s")
    for command, qps in result.details.get("raw_qps", {}).items():
        print(f"  {command + ' wall-time throughput (not bounded)':<55} {qps:>16.6g} queries/s")
    error_rate = result.failed / max(result.attempted, 1)
    print(f"  {'error_rate':<55} {error_rate:>16.6g} fraction")
    for failure in result.failures:
        print(f"FAILED {failure}")
    print(f"record {record}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
