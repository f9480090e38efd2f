"""CSV and SVG emission for predictions, evaluation reports and comparisons.

CSV dialect: comma-separated, header row, ``.`` decimal separator, LF line
endings.  An optional timestamp comment line (prefixed ``#``) precedes the
header unless suppressed; readers skip ``#`` lines.  All files are written
atomically (temp file then rename).
"""

from __future__ import annotations

import csv
import io
import math
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError
from .evaluation import EvaluationReport

_INT64 = range(-(2**63), 2**63)


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


def _unit_texts(unit) -> tuple[list[str], list[str], list[str]]:
    """One unit's selected technique, posterior and fallback flag as text,
    one entry per query.  Posteriors come from per-bin tables, so each
    distinct value is formatted once."""
    selected = [unit.techniques[t] for t in unit.selected.tolist()]
    distinct, at = np.unique(unit.posterior, return_inverse=True)
    texts = [f"{p:.9f}" for p in distinct.tolist()]
    posteriors = [texts[i] for i in at.tolist()]
    fallbacks = ["1" if f else "0" for f in unit.fallback.tolist()]
    return selected, posteriors, fallbacks


def write_predictions(
    report: EvaluationReport, path, timestamp: bool = True
) -> None:
    """One row per query with the full switching trace summary: each
    unit's selected technique, posterior and fallback flag, in unit order
    and joined by ``|``."""
    n = len(report.predicted)
    texts = [[""] * n] * 3  # selected, posteriors, fallbacks
    if report.decisions is not None:
        units = [_unit_texts(unit) for unit in report.decisions]
        texts = [["|".join(row) for row in zip(*column)] for column in zip(*units)]
    rows = zip(
        range(n),
        report.predicted.tolist(),
        [f"{c:.9f}" for c in report.confidence.tolist()],
        *texts,
    )
    header = ["query", "predicted", "confidence", "selected", "posteriors", "fallbacks"]
    _atomic_write_text(path, _csv_text(header, rows, timestamp))


def read_predictions(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (query, predicted, confidence) columns of a predictions CSV, in
    file order: int64, int64 and finite float64."""
    header, rows = _read_csv_rows(path)
    expected = ["query", "predicted", "confidence", "selected", "posteriors", "fallbacks"]
    if header != expected:
        raise FormatError(f"{path}: unexpected predictions header {header}")
    queries, predicted, confidence = [], [], []
    for number, row in enumerate(rows, start=1):
        try:
            if len(row) != len(expected):
                raise ValueError(f"{len(row)} fields, expected {len(expected)}")
            q, p, c = int(row[0]), int(row[1]), float(row[2])
            if q not in _INT64 or p not in _INT64:
                raise ValueError("index does not fit in 64 bits")
            if not math.isfinite(c):
                raise ValueError(f"non-finite confidence {row[2]!r}")
        except ValueError as exc:
            raise FormatError(f"{path}: predictions row {number}: {exc}") from exc
        queries.append(q)
        predicted.append(p)
        confidence.append(c)
    return (
        np.array(queries, dtype=np.int64),
        np.array(predicted, dtype=np.int64),
        np.array(confidence, dtype=np.float64),
    )


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
                [q, p, f"{c:.9f}", int(ok)]
                for q, (p, c, ok) in enumerate(
                    zip(
                        report.predicted.tolist(),
                        report.confidence.tolist(),
                        report.correct.tolist(),
                    )
                )
            ],
            timestamp,
        ),
    )
    paths["outcomes"] = outcomes
    return paths


def write_comparison_csv(reports, path, timestamp: bool = True) -> None:
    """One row per report, in list order: its accuracy and correct count,
    and switch-fuse's gain over it in both."""
    base = next((r for r in reports if r.method == "switch-fuse"), None)
    if base is None:
        raise InvalidInputError("no switch-fuse report to compare against")
    rows = [
        [
            r.method,
            f"{r.accuracy:.9f}",
            r.correct_count,
            f"{base.accuracy - r.accuracy:.9f}",
            base.correct_count - r.correct_count,
        ]
        for r in reports
    ]
    header = [
        "method",
        "accuracy",
        "correct_count",
        "accuracy_gain_of_switch-fuse",
        "correct_gain_of_switch-fuse",
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
        # the characters XML text may not hold raw; xml.sax.saxutils.escape
        # does the same but imports urllib, http and ssl (about 7 MiB)
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        coords = " ".join(f"{x(r):.2f},{y(p):.2f}" for (p, r, _) in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 14 * i}" font-size="11" '
            f'fill="{color}">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(text: str, path) -> None:
    _atomic_write_text(path, text)
