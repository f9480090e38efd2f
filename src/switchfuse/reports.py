"""CSV and SVG emission for predictions, evaluation reports and comparisons.

CSV dialect: comma-separated, header row, ``.`` decimal separator, LF line
endings.  An optional timestamp comment line (prefixed ``#``) precedes the
header unless suppressed; readers skip ``#`` lines.  Each CSV and SVG file
goes through ``files.write_atomic``, the writer of every output: a
temporary file beside the target, then a rename, with FIFOs and devices
written in place, so ``--out /dev/stdout`` works.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError
from .evaluation import EvaluationReport
from .files import write_atomic

_INT64 = range(-(2**63), 2**63)

_PREDICTIONS_HEADER = (
    "query", "predicted", "confidence", "selected", "posteriors", "fallbacks"
)


def _csv_rows(rows) -> str:
    """``rows`` as ``csv.writer`` writes them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields,
    quoted only when it must be."""
    return _csv_rows([(text, "")])[:-2]


def _rows_text(template: str, *columns) -> str:
    """One ``template`` line per row of the aligned ``columns``, formatted
    in one call: the whole body is a single ``%`` of a repeated
    template."""
    rows = len(columns[0])
    return (template * rows) % tuple(chain.from_iterable(zip(*columns)))


def _write_csv(path, header, body: str, timestamp: bool) -> None:
    """Write the optional timestamp comment, ``header`` (plain names, no
    quoting needed) and ``body``, CSV rows already formatted."""
    stamp = f"# generated {datetime.now(timezone.utc).isoformat()}\n" if timestamp else ""
    write_atomic(path, stamp, ",".join(header), "\n", body)


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        try:
            lines = [ln for ln in fh if not ln.startswith("#")]
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    reader = csv.reader(lines)
    try:
        header = next(reader)
        return header, list(reader)
    except StopIteration:
        raise FormatError(f"{path}: empty CSV") from None
    except csv.Error as exc:  # a field over the module's size limit, say
        raise FormatError(f"{path}: malformed CSV: {exc}") from exc


def _posterior_texts(posterior: np.ndarray) -> list[str]:
    """Every posterior as ``%.9f`` text.  Posteriors come from per-bin
    tables, so each distinct value is formatted once."""
    distinct, at = np.unique(posterior, return_inverse=True)
    texts = np.array(["%.9f" % p for p in distinct.tolist()], object)
    return texts[at].tolist()


def _selected_texts(units) -> list[str]:
    """Each query's selected technique per unit, joined by ``|`` in unit
    order, as a CSV field; each distinct combination is joined and quoted
    once."""
    picks = list(zip(*[unit.selected.tolist() for unit in units]))
    texts = {
        pick: _csv_field("|".join(u.techniques[t] for u, t in zip(units, pick)))
        for pick in set(picks)
    }
    return list(map(texts.__getitem__, picks))


def write_predictions(
    predicted: np.ndarray, confidence: np.ndarray, units, path, timestamp: bool = True
) -> None:
    """One row per query of ``run_method``'s columns, with the full
    switching trace summary when ``units`` holds one ``BlockDecisions``
    per unit: each unit's selected technique, posterior and fallback flag,
    in unit order and joined by ``|``."""
    columns = [range(len(predicted)), predicted.tolist(), confidence.tolist()]
    template = "%d,%d,%.9f,,,\n"
    if units is not None:
        unit_count = len(units)
        template = (
            "%d,%d,%.9f,%s," + "|".join(["%s"] * unit_count)
            + "," + "|".join(["%d"] * unit_count) + "\n"
        )
        columns.append(_selected_texts(units))
        columns += [_posterior_texts(unit.posterior) for unit in units]
        columns += [unit.fallback.astype(np.uint8).tolist() for unit in units]
    _write_csv(path, _PREDICTIONS_HEADER, _rows_text(template, *columns), timestamp)


def _row_fault(row) -> str | None:
    """Why one predictions row is unreadable, or None: its field count,
    then its query, predicted and confidence texts, then the index range,
    then finiteness."""
    if len(row) != len(_PREDICTIONS_HEADER):
        return f"{len(row)} fields, expected {len(_PREDICTIONS_HEADER)}"
    try:
        q, p, c = int(row[0]), int(row[1]), float(row[2])
    except ValueError as exc:
        return str(exc)
    if q not in _INT64 or p not in _INT64:
        return "index does not fit in 64 bits"
    if not math.isfinite(c):
        return f"non-finite confidence {row[2]!r}"
    return None


def read_predictions(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (query, predicted, confidence) columns of a predictions CSV, in
    file order: int64, int64 and finite float64.

    Each column is parsed whole by ``int`` or ``float``, so a field reads
    as those read it, and NumPy checks the int64 range and finiteness.  A
    file that fails is scanned row by row to name its first bad row.
    """
    header, rows = _read_csv_rows(path)
    if header != list(_PREDICTIONS_HEADER):
        raise FormatError(f"{path}: unexpected predictions header {header}")
    n = len(rows)
    if set(map(len, rows)) <= {len(_PREDICTIONS_HEADER)}:
        texts = islice(zip(*rows), 3) if n else [()] * 3
        try:
            columns = tuple(
                np.fromiter(map(parse, column), dtype, n)
                for column, parse, dtype in zip(
                    texts, (int, int, float), (np.int64, np.int64, np.float64)
                )
            )
        except (ValueError, OverflowError):  # OverflowError: past int64
            pass
        else:
            if np.isfinite(columns[2]).all():
                return columns
    number, fault = next(
        (i, f) for i, f in enumerate(map(_row_fault, rows), start=1) if f
    )
    raise FormatError(f"{path}: predictions row {number}: {fault}")


def write_report_csvs(
    report: EvaluationReport, out_dir, timestamp: bool = True
) -> dict[str, Path]:
    """Emit summary, PR-point and per-query outcome CSVs for one report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = report.method.replace(":", "_")
    paths = {
        "summary": out_dir / f"{tag}_summary.csv",
        "pr_points": out_dir / f"{tag}_pr_points.csv",
        "outcomes": out_dir / f"{tag}_outcomes.csv",
    }
    summary = [
        report.method,
        f"{report.accuracy:.9f}",
        report.correct_count,
        report.query_count,
    ]
    _write_csv(
        paths["summary"],
        ["method", "accuracy", "correct_count", "query_count"],
        _csv_rows([summary]),
        timestamp,
    )
    precision, recall, threshold = zip(*report.pr_points)
    _write_csv(
        paths["pr_points"],
        ["threshold", "precision", "recall"],
        _rows_text("%.9f,%.9f,%.9f\n", threshold, precision, recall),
        timestamp,
    )
    _write_csv(
        paths["outcomes"],
        ["query", "predicted", "confidence", "correct"],
        _rows_text(
            "%d,%d,%.9f,%d\n",
            range(report.query_count),
            report.predicted.tolist(),
            report.confidence.tolist(),
            report.correct.astype(np.uint8).tolist(),
        ),
        timestamp,
    )
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
    _write_csv(path, header, _csv_rows(rows), timestamp)


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
    write_atomic(path, text)
