#!/usr/bin/env python3
"""Paired benchmark runs of a base revision and the working tree.

Runs ``perfbench/run.py --trace 0`` on one workload in two source trees: a
``git archive`` export of ``--base`` (default ``HEAD``) and the working
tree.  Each seed is one pair; even pairs run the base first and odd pairs
the working tree, so a drift of the machine's speed over the session does
not favour one side.  Writes ``BENCH_<label>.json`` at the repository root::

    python3 scripts/bench_pairs.py --workload image-builtin --label pr-image \\
        --seeds 101-110 --seconds 20

For each side the file holds the git revision, the env line and the median
and quartiles of every end-to-end metric of ``BENCHMARK.json``, with the
per-pair values.  Beside them go each run's probe median (``probe_s``) and
each command's raw wall-time throughput (``raw_qps``, not normalised by
the probe), read from the run's ``.perfbench/results`` record, so that a
probe slowed by contention shows in the file.  Next to them go the
benchmark process's minor page faults and user and system CPU seconds
(``child_usage``), each a ``getrusage(RUSAGE_CHILDREN)`` delta around the
run divided by its attempted operations; these are informational, with no
verdict.  ``comparison`` gives, per
metric, the pairs in which the working tree was better in the metric's own direction (``wins``), the
difference of the medians, the base's interquartile range and a
``verdict``: ``better`` or ``worse`` when the working tree wins or loses at
least 90% of the pairs and the medians differ in that direction by more
than the base's interquartile range, else ``unchanged``.  Each
``*_queries_per_probe`` metric also gets ``raw_wins``, the pairs in which
the working tree's raw wall-time throughput of that command was higher,
so that a pair the probe normalisation flips shows in the file; it is
informational and changes no verdict.  After the pairs,
each side gets one traced run (``--trace 1``) on the first seed, and its
per-layer metrics, each the median over that run's repetitions, go into the
side's ``per_layer`` with its exit code, failures and probe median.  Each
``value`` is a wall time, not divided by the probe; beside every ms and µs
value goes ``per_probe``, that time divided by the traced run's probe
median (the time in probes), so two traced runs taken while the machine
ran at different speeds still compare.  A run that fails any check is
recorded with its failures and makes the script exit 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"3,7,11"`` or ``"101-110"`` (inclusive), or a mix of both.  A range
    that holds no seed, such as ``"5-3"``, is an error."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        span = range(int(first), int(last or first) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    return seeds


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


# seconds in one unit of a per-layer time metric
SECONDS_PER_UNIT = {"ms": 1e-3, "us": 1e-6}

# per-operation usage of the benchmark process: name -> (rusage field, unit)
CHILD_USAGE = {
    "minor_faults": ("ru_minflt", "faults/op"),
    "user_s": ("ru_utime", "s/op"),
    "system_s": ("ru_stime", "s/op"),
}


def run_once(
    tree: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    """One benchmark run in ``tree``, untraced unless ``trace`` is 1: its
    metrics (end-to-end or per-layer), env line and check results."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{tree}: seed {seed}: no result (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-2000:]}"
        ) from None
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    record = next((l[len("record "):] for l in lines if l.startswith("record ")), None)
    details = json.loads(Path(record).read_text())["result"]["details"] if record else {}
    ops = max(summary.get("attempted", 0), 1)
    return {
        "exit": proc.returncode,
        "env": env,
        "failures": [l[len("FAILED "):] for l in lines if l.startswith("FAILED ")],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "probe_s": details.get("probe_s"),
        "raw_qps": details.get("raw_qps", {}),
        "child_usage": {
            name: (getattr(after, field) - getattr(before, field)) / ops
            for name, (field, _) in CHILD_USAGE.items()
        },
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def layer_value(unit: str, value, probe_s) -> dict:
    """A traced run's per-layer metric, with its time in probes when it is a
    time and the run has a probe median."""
    entry = {"unit": unit, "value": value}
    if unit in SECONDS_PER_UNIT and value is not None and probe_s:
        entry["per_probe"] = value * SECONDS_PER_UNIT[unit] / probe_s
    return entry


def spread(values: list, unit: str) -> dict:
    """Median and quartiles of the values a run recorded, with every
    run's value (None where it recorded none)."""
    known = [v for v in values if v is not None]
    return {"unit": unit, **(quartiles(known) if known else {}), "values": values}


def raw_wins(doc: dict, command: str) -> int:
    """Pairs in which the working tree's raw wall-time throughput of
    ``command`` beat the base's, counting only pairs in which both runs
    recorded one."""
    base, change = (
        doc["sides"][s]["raw_qps"].get(command, {}).get("values", [])
        for s in ("base", "change")
    )
    return sum(
        b is not None and c is not None and c > b for b, c in zip(base, change)
    )


def verdict(gains: list[float], lead: float, iqr: float) -> str:
    """``better`` or ``worse`` when one side wins at least 90% of the pairs
    and leads the medians by more than the base's IQR, else ``unchanged``.
    ``gains`` are the working tree's per-pair gains and ``lead`` its median
    gain, both signed in the metric's better direction."""
    if sum(g > 0 for g in gains) >= 0.9 * len(gains) and lead > iqr:
        return "better"
    if sum(g < 0 for g in gains) >= 0.9 * len(gains) and -lead > iqr:
        return "worse"
    return "unchanged"


def summarise(
    label, workload, seconds, seeds, sides, runs, metrics, traced=None, layers=()
) -> dict:
    """The ``BENCH_<label>.json`` document.  ``traced`` holds each side's
    traced run, whose metrics are named in ``layers``, the per-layer
    metrics of ``BENCHMARK.json``."""
    doc = {
        "label": label,
        "workload": workload,
        "seconds": seconds,
        "seeds": seeds,
        "order": ["base first" if i % 2 == 0 else "change first"
                  for i in range(len(seeds))],
        "sides": {},
        "comparison": {},
    }
    for side, revision in sides.items():
        doc["sides"][side] = {
            "revision": revision,
            "env": runs[side][0]["env"],
            "failures": [f for r in runs[side] for f in r["failures"]],
            "metrics": {},
            "probe_s": spread([r.get("probe_s") for r in runs[side]], "s"),
            "raw_qps": {
                command: spread(
                    [r["raw_qps"].get(command) for r in runs[side]], "queries/s"
                )
                for command in dict.fromkeys(
                    c for r in runs[side] for c in r.get("raw_qps", {})
                )
            },
            "child_usage": {
                name: spread(
                    [r.get("child_usage", {}).get(name) for r in runs[side]], unit
                )
                for name, (_, unit) in CHILD_USAGE.items()
            },
        }
        if traced:
            run = traced[side]
            doc["sides"][side]["per_layer"] = {
                "seed": seeds[0],
                "exit": run["exit"],
                "failures": run["failures"],
                "probe_s": run.get("probe_s"),
                "metrics": {
                    m["name"]: layer_value(
                        m["unit"], run["metrics"].get(m["name"]), run.get("probe_s")
                    )
                    for m in layers
                },
            }
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in runs[side]]
            doc["sides"][side]["metrics"][m["name"]] = {
                "unit": m["unit"], **quartiles(values), "values": values,
            }
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        base, change = (doc["sides"][s]["metrics"][name] for s in ("base", "change"))
        gains = [sign * (c - b) for b, c in zip(base["values"], change["values"])]
        difference = change["median"] - base["median"]
        iqr = base["q3"] - base["q1"]
        doc["comparison"][name] = {
            "better": m["better"],
            "wins": sum(g > 0 for g in gains),
            "pairs": len(seeds),
            "median_difference": difference,
            "base_iqr": iqr,
            "verdict": verdict(gains, sign * difference, iqr),
        }
        command, per_probe, rest = name.partition("_queries_per_probe")
        if per_probe and not rest:
            doc["comparison"][name]["raw_wins"] = raw_wins(doc, command)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--base", default="HEAD", help="git revision to compare against"
    )
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, layers = benchmark["end_to_end"], benchmark["per_layer"]
    dirty = "-dirty" if git("status", "--porcelain", "--untracked-files=no") else ""
    sides = {
        "base": git("rev-parse", args.base),
        "change": git("rev-parse", "HEAD") + dirty,
    }
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.base],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        trees = {"base": base, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = run_once(trees[side], args.workload, seed, args.seconds)
                runs[side].append(run)
            b, c = (runs[s][-1]["metrics"] for s in ("base", "change"))
            print(
                f"seed {seed} ({order[0]} first): "
                + ", ".join(
                    f"{m['name']} {b[m['name']]:.4g} -> {c[m['name']]:.4g}"
                    for m in metrics
                    if m["name"].endswith("_per_probe")
                ),
                flush=True,
            )
        traced = {}
        for side in sides:
            try:
                traced[side] = run_once(
                    trees[side], args.workload, args.seeds[0], args.seconds, trace=1
                )
            except RuntimeError as exc:  # keep the pairs' results all the same
                traced[side] = {"exit": None, "failures": [str(exc)], "metrics": {}}
    doc = summarise(
        args.label, args.workload, args.seconds, args.seeds, sides, runs, metrics,
        traced, layers,
    )
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for m in metrics:
        name = m["name"]
        b, c = (doc["sides"][s]["metrics"][name] for s in ("base", "change"))
        comparison = doc["comparison"][name]
        raw = comparison.get("raw_wins")
        print(
            f"{name:<30} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
            f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
            f"wins {comparison['wins']}/{len(args.seeds)}  {comparison['verdict']}"
            + ("" if raw is None else f"  (raw wall-time wins {raw}/{len(args.seeds)})")
        )
    traced_probes = {s: doc["sides"][s]["per_layer"]["probe_s"] for s in sides}
    print(
        f"per-layer, one traced run per side on seed {args.seeds[0]} (probe "
        f"median (s): base {traced_probes['base']}, change {traced_probes['change']}):"
    )
    for m in layers:
        entries = [doc["sides"][s]["per_layer"]["metrics"][m["name"]] for s in sides]
        b, c = ("-" if e["value"] is None else f"{e['value']:.6g}" for e in entries)
        line = f"  {m['name']:<55} base {b:>10}  change {c:>10} {m['unit']}"
        if m["unit"] in SECONDS_PER_UNIT:
            b, c = (f"{e['per_probe']:.4g}" if "per_probe" in e else "-" for e in entries)
            line += f"  per probe: base {b:>8}  change {c:>8}"
        print(line)
    probes = {s: doc["sides"][s]["probe_s"].get("median") for s in sides}
    print(f"probe median (s): base {probes['base']}, change {probes['change']}")
    for name in CHILD_USAGE:
        b, c = (doc["sides"][s]["child_usage"][name].get("median") for s in sides)
        print(f"{name} per op (median): base {b}, change {c}")
    print(f"wrote {out}")
    failed = any(doc["sides"][s]["failures"] for s in sides) or any(
        r["exit"] != 0 for side in (*runs.values(), traced.values()) for r in side
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
