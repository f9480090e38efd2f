"""Command-line entry point.

Subcommands: ``synth``, ``calibrate``, ``run``, ``evaluate``, ``compare``.
The acceptance threshold is strict: a technique is kept only when its
posterior exceeds ``--threshold`` (default 0.5).  All randomized commands
require an explicit ``--seed``; there is no wall-clock seeding.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import calibration as cal
from . import evaluation as ev
from . import reports, synthetic
from .datasets import (
    DatasetRuntime,
    load_config,
    load_manifest,
    manifest_ground_truth,
    read_json,
)
from .errors import InvalidInputError, SwitchFuseError
from .fusion import FusionParams


def _load_runtime(args):
    manifest = load_manifest(args.manifest)
    return DatasetRuntime(manifest)


def cmd_synth(args) -> int:
    doc = read_json(args.spec)
    try:
        profiles = [
            synthetic.TechniqueProfile(
                technique_id=p["technique_id"],
                correct_rate=float(p["correct_rate"]),
                mean_m=float(p["mean_m"]),
                sd_m=float(p["sd_m"]),
                mean_mm=float(p["mean_mm"]),
                sd_mm=float(p["sd_mm"]),
                overlaps={k: float(v) for k, v in p.get("overlaps", {}).items()},
            )
            for p in doc["profiles"]
        ]
        query_count = int(doc["query_count"])
        reference_count = int(doc["reference_count"])
    except KeyError as exc:
        raise InvalidInputError(f"{args.spec}: spec missing key {exc}") from exc
    fraction = float(doc.get("calibration_fraction", 0.5))
    dataset = synthetic.generate(profiles, query_count, reference_count, args.seed)
    calib_idx, eval_idx = synthetic.split_calibration_eval(
        dataset, fraction, args.seed
    )
    out = Path(args.out)
    calib_manifest = synthetic.export_dataset(dataset, calib_idx, out, "calib")
    eval_manifest = synthetic.export_dataset(dataset, eval_idx, out, "eval")
    print(f"wrote {calib_manifest}")
    print(f"wrote {eval_manifest}")
    return 0


def cmd_calibrate(args) -> int:
    # alpha 0 leaves empty bins with zero likelihood, so one query landing in
    # such a bin would end a later run with SF-EVIDENCE
    if not args.alpha > 0:
        raise InvalidInputError(f"--alpha must be > 0, got {args.alpha}")
    runtime = _load_runtime(args)
    config = load_config(args.config, args.threshold)
    techniques = config.all_techniques()
    store = cal.build_store(
        cal.collect_run(runtime, techniques),
        techniques,
        bins=args.bins,
        alpha=args.alpha,
        min_samples=args.min_samples,
    )
    cal.save_store(store, args.out)
    for tid in techniques:
        print(f"prior[{tid}] = {store.techniques[tid].prior_match:.6f}")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    runtime = _load_runtime(args)
    config = load_config(args.config, args.threshold)
    store = cal.load_store(args.store)
    gt = runtime.ground_truth()
    report = ev.run_method(
        "switch-fuse", runtime, config, store, gt, FusionParams()
    )
    reports.write_predictions(
        report.outcomes, args.out, timestamp=not args.no_timestamp
    )
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    ground_truth = manifest_ground_truth(load_manifest(args.manifest))
    outcomes = reports.read_predictions(args.predictions)
    report = ev.with_pr_points(
        ev.score_predictions(outcomes, ground_truth, method="switch-fuse")
    )
    out_dir = Path(args.out)
    paths = reports.write_report_csvs(
        report, out_dir, timestamp=not args.no_timestamp
    )
    if args.svg:
        svg = reports.svg_pr_plot([(report.method, report.pr_points)])
        reports.write_svg(svg, out_dir / "pr_curve.svg")
    print(
        f"{report.method}: accuracy {report.accuracy:.4f} "
        f"({report.correct_count}/{report.query_count})"
    )
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    runtime = _load_runtime(args)
    config = load_config(args.config, args.threshold)
    store = cal.load_store(args.store)
    gt = runtime.ground_truth()
    methods = ["switch-fuse", "switch-only", "fuse-all"] + [
        f"single:{tid}" for tid in config.all_techniques()
    ]
    all_reports = [
        ev.run_method(m, runtime, config, store, gt, FusionParams())
        for m in methods
    ]
    comparison = ev.compare(all_reports, baseline_method="switch-fuse")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports.write_comparison_csv(
        comparison, out_dir / "comparison.csv", timestamp=not args.no_timestamp
    )
    if args.svg:
        svg = reports.svg_pr_plot([(r.method, r.pr_points) for r in all_reports])
        reports.write_svg(svg, out_dir / "pr_curves.svg")
    for row in comparison.rows:
        print(
            f"{row.method}: accuracy {row.accuracy:.4f} "
            f"correct {row.correct_count}"
        )
    print(f"wrote {out_dir / 'comparison.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchfuse",
        description="Bayesian technique switching plus similarity-vector "
        "fusion for visual place recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=True, config=True, store=False):
        if manifest:
            p.add_argument("--manifest", required=True, help="dataset manifest JSON")
        if config:
            p.add_argument("--config", required=True, help="tripartite config JSON")
        if store:
            p.add_argument("--store", required=True, help="calibration store file")
        p.add_argument(
            "--threshold",
            type=float,
            default=None,
            help="posterior acceptance threshold; strict comparison "
            "(posterior must exceed it), overrides the config value",
        )
        p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("calibrate", help="build a calibration store")
    common(p)
    p.add_argument("--out", required=True, help="output store path")
    p.add_argument("--bins", type=int, default=cal.DEFAULT_BINS)
    p.add_argument("--alpha", type=float, default=cal.DEFAULT_ALPHA)
    p.add_argument("--min-samples", type=int, default=cal.DEFAULT_MIN_SAMPLES)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("run", help="run switch-fuse over a dataset")
    common(p, store=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("evaluate", help="score a predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also emit a PR-curve SVG")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("compare", help="run all method families and compare")
    common(p, store=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SwitchFuseError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"SF-IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
