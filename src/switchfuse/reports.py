"""CSV and SVG emission for predictions, evaluation reports and comparisons.

CSV dialect: comma-separated, header row, ``.`` decimal separator, LF line
endings.  An optional timestamp comment line (prefixed ``#``) precedes the
header unless suppressed; readers skip ``#`` lines.  All files are written
atomically (temp file then rename).
"""

from __future__ import annotations

import csv
import io
import os
from datetime import datetime, timezone
from pathlib import Path

from .errors import FormatError
from .evaluation import ComparisonReport, EvaluationReport, QueryOutcome


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(header, rows, timestamp: bool) -> str:
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{path}: empty CSV") from None
    return header, list(reader)


def write_predictions(outcomes, path, timestamp: bool = True) -> None:
    """One row per query with the full switching trace summary."""
    rows = []
    for o in outcomes:
        if o.decisions is not None:
            selected = "|".join(d.selected_technique for d in o.decisions)
            posteriors = "|".join(f"{d.selected_posterior:.9f}" for d in o.decisions)
            fallbacks = "|".join("1" if d.fallback_used else "0" for d in o.decisions)
        else:
            selected = posteriors = fallbacks = ""
        rows.append(
            [
                o.query_index,
                o.predicted,
                f"{o.confidence:.9f}",
                selected,
                posteriors,
                fallbacks,
            ]
        )
    header = ["query", "predicted", "confidence", "selected", "posteriors", "fallbacks"]
    _atomic_write_text(path, _csv_text(header, rows, timestamp))


def read_predictions(path) -> list[QueryOutcome]:
    header, rows = _read_csv_rows(path)
    expected = ["query", "predicted", "confidence", "selected", "posteriors", "fallbacks"]
    if header != expected:
        raise FormatError(f"{path}: unexpected predictions header {header}")
    out = []
    for number, row in enumerate(rows, start=1):
        try:
            if len(row) != len(expected):
                raise ValueError(f"{len(row)} fields, expected {len(expected)}")
            out.append(
                QueryOutcome(
                    query_index=int(row[0]),
                    predicted=int(row[1]),
                    confidence=float(row[2]),
                    correct=False,
                )
            )
        except ValueError as exc:
            raise FormatError(f"{path}: predictions row {number}: {exc}") from exc
    return out


def write_report_csvs(
    report: EvaluationReport, out_dir, timestamp: bool = True
) -> dict[str, Path]:
    """Emit summary, PR-point and per-query outcome CSVs for one report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = report.method.replace(":", "_")
    paths = {}

    summary = out_dir / f"{tag}_summary.csv"
    _atomic_write_text(
        summary,
        _csv_text(
            ["method", "accuracy", "correct_count", "query_count"],
            [[report.method, f"{report.accuracy:.9f}", report.correct_count, report.query_count]],
            timestamp,
        ),
    )
    paths["summary"] = summary

    pr = out_dir / f"{tag}_pr_points.csv"
    _atomic_write_text(
        pr,
        _csv_text(
            ["threshold", "precision", "recall"],
            [
                [f"{t:.9f}", f"{p:.9f}", f"{r:.9f}"]
                for (p, r, t) in report.pr_points
            ],
            timestamp,
        ),
    )
    paths["pr_points"] = pr

    outcomes = out_dir / f"{tag}_outcomes.csv"
    _atomic_write_text(
        outcomes,
        _csv_text(
            ["query", "predicted", "confidence", "correct"],
            [
                [o.query_index, o.predicted, f"{o.confidence:.9f}", int(o.correct)]
                for o in report.outcomes
            ],
            timestamp,
        ),
    )
    paths["outcomes"] = outcomes
    return paths


def write_comparison_csv(
    comparison: ComparisonReport, path, timestamp: bool = True
) -> None:
    rows = [
        [
            row.method,
            f"{row.accuracy:.9f}",
            row.correct_count,
            f"{row.delta_accuracy:.9f}",
            row.delta_correct,
        ]
        for row in comparison.rows
    ]
    header = [
        "method",
        "accuracy",
        "correct_count",
        f"accuracy_gain_of_{comparison.baseline_method}",
        f"correct_gain_of_{comparison.baseline_method}",
    ]
    _atomic_write_text(path, _csv_text(header, rows, timestamp))


_SVG_COLORS = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f",
]


def svg_pr_plot(curves, width: int = 520, height: int = 400) -> str:
    """Plain-text SVG line plot of one or more PR curves.

    ``curves`` is a list of (label, points) with points as
    (precision, recall, threshold).
    """
    ml, mr, mt, mb = 50, 16, 16, 40
    pw, ph = width - ml - mr, height - mt - mb

    def x(recall):
        return ml + recall * pw

    def y(precision):
        return mt + (1.0 - precision) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{x(frac):.1f}" y="{height - mb + 16}" font-size="11" '
            f'text-anchor="middle">{frac:g}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{y(frac) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{frac:g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">Recall</text>'
    )
    parts.append(
        f'<text x="14" y="{mt + ph / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {mt + ph / 2:.1f})">Precision</text>'
    )
    for i, (label, points) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join(f"{x(r):.2f},{y(p):.2f}" for (p, r, _) in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 14 * i}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(text: str, path) -> None:
    _atomic_write_text(path, text)
