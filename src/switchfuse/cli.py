"""Command-line entry point.

Subcommands: ``synth``, ``calibrate``, ``run``, ``evaluate``, ``compare``.
The acceptance threshold is strict: a technique is kept only when its
posterior exceeds ``--threshold`` (default 0.5).  All randomized commands
require an explicit ``--seed``; there is no wall-clock seeding.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import calibration as cal
from . import evaluation as ev
from . import reports
from .datasets import (
    DatasetRuntime,
    json_integer,
    json_number,
    load_config,
    load_manifest,
    manifest_ground_truth,
    read_json,
)
from .errors import FormatError, InvalidInputError, SwitchFuseError


# numeric fields of a spec profile, in ``TechniqueProfile`` order
_PROFILE_NUMBERS = ("correct_rate", "mean_m", "sd_m", "mean_mm", "sd_mm")


def _spec_key(doc: dict, key: str, path):
    try:
        return doc[key]
    except KeyError:
        raise InvalidInputError(f"{path}: spec missing key {key!r}") from None


def _load_spec(path):
    """(profiles, query count, reference count, calibration fraction) of a
    synthetic spec JSON.  A document of the wrong shape raises
    ``FormatError`` naming the path."""
    from .synthetic import TechniqueProfile

    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: spec must be a JSON object")
    profiles = _spec_key(doc, "profiles", path)
    if not (isinstance(profiles, list) and all(isinstance(p, dict) for p in profiles)):
        raise FormatError(f"{path}: 'profiles' must be a list of objects")
    parsed = []
    for p in profiles:
        tid = _spec_key(p, "technique_id", path)
        overlaps = p.get("overlaps", {})
        if not (isinstance(tid, str) and isinstance(overlaps, dict)):
            raise FormatError(
                f"{path}: a profile needs a string 'technique_id' and an "
                "object 'overlaps'"
            )
        where = f"{path}: {tid}"
        numbers = [
            json_number(_spec_key(p, k, path), f"{where}: {k!r}")
            for k in _PROFILE_NUMBERS
        ]
        overlaps = {
            k: json_number(v, f"{where}: overlap {k!r}") for k, v in overlaps.items()
        }
        parsed.append(TechniqueProfile(tid, *numbers, overlaps=overlaps))
    counts = [
        json_integer(_spec_key(doc, k, path), f"{path}: {k!r}")
        for k in ("query_count", "reference_count")
    ]
    fraction = json_number(
        doc.get("calibration_fraction", 0.5), f"{path}: 'calibration_fraction'"
    )
    return parsed, counts[0], counts[1], fraction


def cmd_synth(args) -> int:
    if args.seed < 0:  # the generator's seed sequence takes none
        raise InvalidInputError(f"--seed must be >= 0, got {args.seed}")
    # imported here, not at module level: loading the generator, with
    # ``statistics`` and ``numpy.polynomial``, adds about 1.8 MiB of peak RSS
    # and 25 ms to a process, which only ``synth`` needs
    from . import synthetic

    profiles, query_count, reference_count, fraction = _load_spec(args.spec)
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
    if not 0 < args.alpha < math.inf:
        raise InvalidInputError(f"--alpha must be finite and > 0, got {args.alpha}")
    if args.min_samples < 1:
        raise InvalidInputError(f"--min-samples must be >= 1, got {args.min_samples}")
    runtime = DatasetRuntime(load_manifest(args.manifest))
    queries = runtime.query_count
    # each histogram has one sample per calibration query; bounding the bins
    # by that count (or the default, for small sets) keeps a huge --bins from
    # allocating its counts
    most_bins = max(queries, cal.DEFAULT_BINS)
    if not 2 <= args.bins <= most_bins:
        raise InvalidInputError(
            f"--bins must lie in 2..{most_bins}, the larger of the calibration "
            f"query count and {cal.DEFAULT_BINS}, got {args.bins}"
        )
    # the smoothing denominator adds alpha x bins: past the float range it
    # turns every smoothed mass to 0 and so every posterior undefined
    if args.alpha * args.bins == math.inf:
        raise InvalidInputError(
            f"--alpha times --bins must be finite, got {args.alpha} x {args.bins}"
        )
    # every smoothed mass is at least alpha / (queries + alpha x bins), and
    # switching multiplies two of them (a primary's mismatch mass by a pair
    # histogram's); a product that rounds to 0 leaves a later run with
    # undefined evidence wherever a query lands in two empty bins
    least_mass = args.alpha / (queries + args.alpha * args.bins)
    if least_mass * least_mass == 0.0:
        raise InvalidInputError(
            f"--alpha is too small: the product of two empty bins' smoothed "
            f"masses, (alpha / (calibration query count {queries} + alpha x "
            f"bins))^2, rounds to 0, got {args.alpha}"
        )
    if args.min_samples > queries:
        raise InvalidInputError(
            f"--min-samples must not exceed the calibration query count "
            f"{queries}, got {args.min_samples}"
        )
    techniques = load_config(args.config).all_techniques()
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
    runtime = DatasetRuntime(load_manifest(args.manifest))
    config = load_config(args.config, args.threshold)
    store = cal.load_store(args.store)
    columns = ev.run_method("switch-fuse", runtime, config, store)
    reports.write_predictions(*columns, args.out, timestamp=not args.no_timestamp)
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    ground_truth = manifest_ground_truth(load_manifest(args.manifest))
    report = ev.score_outcomes(
        *reports.read_predictions(args.predictions),
        ground_truth,
        method="switch-fuse",
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
    runtime = DatasetRuntime(load_manifest(args.manifest))
    config = load_config(args.config, args.threshold)
    store = cal.load_store(args.store)
    all_reports = ev.compare_methods(runtime, config, store, runtime.ground_truth())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports.write_comparison_csv(
        all_reports, out_dir / "comparison.csv", timestamp=not args.no_timestamp
    )
    if args.svg:
        svg = reports.svg_pr_plot([(r.method, r.pr_points) for r in all_reports])
        reports.write_svg(svg, out_dir / "pr_curves.svg")
    for r in all_reports:
        print(f"{r.method}: accuracy {r.accuracy:.4f} correct {r.correct_count}")
    print(f"wrote {out_dir / 'comparison.csv'}")
    return 0


def build_parser(words) -> argparse.ArgumentParser:
    """The ``switchfuse`` parser.  Every subcommand is listed, but only
    those named in ``words`` get their arguments:
    argparse dispatches to the subcommand its argv names, so ``main``
    passes that argv's words and builds only what it parses."""
    parser = argparse.ArgumentParser(
        prog="switchfuse",
        description="Bayesian technique switching plus similarity-vector "
        "fusion for visual place recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_line, fn):
        """The subparser of ``name`` when it gets its arguments, else None."""
        p = sub.add_parser(name, help=help_line)
        if name not in words:
            return None
        p.set_defaults(fn=fn)
        return p

    def common(p, store=False):
        p.add_argument("--manifest", required=True, help="dataset manifest JSON")
        p.add_argument("--config", required=True, help="tripartite config JSON")
        if not store:
            return
        # the commands that read a store switch, so they take the threshold
        # and write CSVs
        p.add_argument("--store", required=True, help="calibration store file")
        p.add_argument(
            "--threshold",
            type=float,
            default=None,
            help="posterior acceptance threshold; strict comparison "
            "(posterior must exceed it), overrides the config value",
        )
        p.add_argument("--no-timestamp", action="store_true")

    if p := command("synth", "generate a synthetic dataset", cmd_synth):
        p.add_argument("--spec", required=True, help="synthetic spec JSON")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True, help="output directory")

    if p := command("calibrate", "build a calibration store", cmd_calibrate):
        common(p)
        p.add_argument("--out", required=True, help="output store path")
        p.add_argument("--bins", type=int, default=cal.DEFAULT_BINS)
        p.add_argument("--alpha", type=float, default=cal.DEFAULT_ALPHA)
        p.add_argument("--min-samples", type=int, default=cal.DEFAULT_MIN_SAMPLES)

    if p := command("run", "run switch-fuse over a dataset", cmd_run):
        common(p, store=True)
        p.add_argument("--out", required=True, help="predictions CSV path")

    if p := command("evaluate", "score a predictions file", cmd_evaluate):
        p.add_argument("--predictions", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--svg", action="store_true", help="also emit a PR-curve SVG")
        p.add_argument("--no-timestamp", action="store_true")

    if p := command("compare", "run all method families and compare", cmd_compare):
        common(p, store=True)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--svg", action="store_true")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(set(argv)).parse_args(argv)
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
