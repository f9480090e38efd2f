#!/usr/bin/env python3
"""Run the full method comparison on a seeded synthetic dataset.

Generates a 3-unit, 9-technique score-mode dataset with complementary
overlaps and exports its calibration and eval halves into ``--out`` the way
``switchfuse synth`` does (``calib_manifest.json``, ``eval_manifest.json``
and their SFDESC and ground-truth files), with the tripartite config as
``config.json``.  It then calibrates on the first half, evaluates
switch-fuse against the pooled switching baseline, fuse-everything and
every single technique on the second, and writes comparison CSV plus a
PR-curve SVG.  ``switchfuse calibrate`` and ``switchfuse compare`` on the
written files give the same comparison.
"""

import argparse
from pathlib import Path

from switchfuse.calibration import build_store, collect_run
from switchfuse.datasets import DatasetRuntime, load_manifest, save_config
from switchfuse.evaluation import compare_methods
from switchfuse.reports import svg_pr_plot, write_comparison_csv, write_svg
from switchfuse.switching import TripartiteConfig, UnitConfig
from switchfuse.synthetic import (
    TechniqueProfile,
    export_dataset,
    generate,
    split_calibration_eval,
)

UNIT_LABELS = ["seasonal", "illumination", "day-night"]
CORRECT_RATES = [0.45, 0.55, 0.65, 0.5, 0.6, 0.45, 0.55, 0.65, 0.5]


def make_profiles():
    profiles = []
    for u, label in enumerate(UNIT_LABELS):
        rates = CORRECT_RATES[3 * u : 3 * u + 3]
        tids = [f"{label}_{i}" for i in range(3)]
        for k, (tid, rate) in enumerate(zip(tids, rates)):
            overlaps = {}
            if k == 0:
                overlaps = {
                    tids[1]: 0.6 * rates[0] * rates[1],
                    tids[2]: 0.8 * rates[0] * rates[2],
                }
            elif k == 1:
                overlaps = {tids[2]: 0.6 * rates[1] * rates[2]}
            profiles.append(
                TechniqueProfile(tid, rate, 0.75, 0.08, 0.45, 0.08, overlaps)
            )
    return profiles


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--references", type=int, default=200)
    parser.add_argument("--out", type=Path, default=Path("synthetic_results"))
    args = parser.parse_args()

    profiles = make_profiles()
    ids = [p.technique_id for p in profiles]
    dataset = generate(profiles, args.queries, args.references, args.seed)
    calib_idx, eval_idx = split_calibration_eval(dataset, 0.5, args.seed)
    calib_manifest = export_dataset(dataset, calib_idx, args.out, "calib")
    eval_manifest = export_dataset(dataset, eval_idx, args.out, "eval")
    calib = DatasetRuntime(load_manifest(calib_manifest))
    runtime = DatasetRuntime(load_manifest(eval_manifest))
    store = build_store(collect_run(calib, ids), ids)
    config = TripartiteConfig(
        units=tuple(
            UnitConfig(label, tuple(f"{label}_{i}" for i in range(3)))
            for label in UNIT_LABELS
        )
    )
    save_config(config, args.out / "config.json")
    reports = compare_methods(runtime, config, store, runtime.ground_truth())
    for report in reports:
        print(
            f"{report.method:28s} accuracy {report.accuracy:.4f} "
            f"correct {report.correct_count}/{report.query_count}"
        )

    write_comparison_csv(reports, args.out / "comparison.csv")
    curves = [
        (r.method, r.pr_points)
        for r in reports
        if r.method in ("switch-fuse", "switch-only", "fuse-all")
    ]
    write_svg(svg_pr_plot(curves), args.out / "pr_curves.svg")
    print(f"wrote {args.out / 'comparison.csv'} and {args.out / 'pr_curves.svg'}")


if __name__ == "__main__":
    main()
