import csv
import io
from datetime import datetime
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchfuse.calibration import build_store, collect_run
from switchfuse.errors import FormatError, InvalidInputError
from switchfuse.evaluation import EvaluationReport
from switchfuse.reports import (
    read_predictions,
    svg_pr_plot,
    write_comparison_csv,
    write_predictions,
    write_report_csvs,
)
from switchfuse.switching import BlockDecisions, TripartiteConfig, UnitConfig
from switchfuse.synthetic import TechniqueProfile, generate, split_calibration_eval

from . import oracle
from .exported import exported_runtime, scored_run
from .test_evaluation import query_outcomes

# technique ids that csv.writer must quote (or, for "|", that the joined
# fields share with their separator)
AWKWARD_IDS = ("a,b", 'q"t', "p|q", "n\nl")


def unit_columns(techniques, decisions) -> BlockDecisions:
    """One unit's (technique, posterior, fallback) per query as columns."""
    names, posteriors, fallbacks = zip(*decisions)
    return BlockDecisions(
        techniques,
        np.array([techniques.index(t) for t in names]),
        np.array(posteriors),
        np.array(fallbacks),
        np.zeros(len(decisions), dtype=np.int64),
    )


def oracle_predictions_text(outcomes) -> str:
    """The predictions CSV formatted row by row, with no shared strings."""
    rows = []
    for o in outcomes:
        if o.decisions is not None:
            selected = "|".join(d.selected_technique for d in o.decisions)
            posteriors = "|".join(f"{d.selected_posterior:.9f}" for d in o.decisions)
            fallbacks = "|".join("1" if d.fallback_used else "0" for d in o.decisions)
        else:
            selected = posteriors = fallbacks = ""
        rows.append(
            [o.query_index, o.predicted, f"{o.confidence:.9f}", selected, posteriors, fallbacks]
        )
    return oracle.csv_text(oracle.PREDICTIONS_HEADER, rows)


def test_predictions_match_row_formatting_with_shared_decisions(tmp_path):
    predicted = np.array([3, 1, 0, 2, 2, 4, 1, 0])
    confidence = np.array([0.25, -0.125, 1.0, 0.5, 0.5, 2 / 3, 0.0, 1.5])
    path = tmp_path / "p.csv"
    for t0, t1, t2, _ in (("t0", "t1", "t2", None), AWKWARD_IDS):
        a = (t0, 0.5, False)
        b = (t1, 1 / 3, True)
        c = (t2, 1e-10, False)
        d = (t1, 0.75, False)  # b's technique, other values
        e = (t1, 0.5, False)  # a's posterior under another technique
        units = (
            unit_columns((t0, t2), [a, a, a, a, a, c, a, a]),
            unit_columns((t1, t2), [b, b, c, b, e, c, d, (t2, 2 / 3, True)]),
            unit_columns((AWKWARD_IDS[3],), [(AWKWARD_IDS[3], 0.25, False)] * 8),
        )
        report = EvaluationReport("m", predicted, confidence, np.zeros(8, dtype=bool))
        for decisions in (units, units[:2], None):
            write_predictions(predicted, confidence, decisions, path, timestamp=False)
            assert path.read_text() == oracle_predictions_text(
                query_outcomes(report, decisions)
            )
            # quoted ids, one holding a newline, do not shift the columns
            assert [col.tolist() for col in read_predictions(path)] == [
                col.tolist() for col in oracle.read_predictions(path)
            ]


def profile(tid, rate):
    return TechniqueProfile(tid, rate, 0.75, 0.08, 0.45, 0.08)


@pytest.mark.parametrize("threshold", [0.5, 0.9])
def test_switch_fuse_predictions_match_row_formatting(tmp_path, threshold):
    techniques = ("a", "b", "c", "d")
    ds = generate(
        [profile(t, r) for t, r in zip(techniques, (0.6, 0.5, 0.55, 0.45))],
        300, 25, seed=41,
    )
    calib_idx, eval_idx = split_calibration_eval(ds, 0.5, seed=41)
    calib = exported_runtime(ds, calib_idx, tmp_path, "calib")
    store = build_store(collect_run(calib, techniques), techniques)
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "d", "a"))),
        posterior_threshold=threshold,
    )
    runtime = exported_runtime(ds, eval_idx, tmp_path, "eval")
    report, decisions = scored_run("switch-fuse", runtime, config, store)
    path = tmp_path / "p.csv"
    write_predictions(report.predicted, report.confidence, decisions, path, timestamp=False)
    assert path.read_text() == oracle_predictions_text(query_outcomes(report, decisions))
    assert read_predictions(path)[0].tolist() == list(
        range(len(eval_idx))
    )


def test_comparison_needs_a_switch_fuse_report(tmp_path):
    report = EvaluationReport(
        "single:a", np.array([0]), np.array([0.5]), np.array([True])
    )
    with pytest.raises(InvalidInputError, match="switch-fuse") as info:
        write_comparison_csv([report], tmp_path / "c.csv", timestamp=False)
    assert info.value.code == "SF-INPUT"
    assert not (tmp_path / "c.csv").exists()


def awkward_reports():
    """A switch-fuse report and one per awkward technique id, with
    repeated, negative-zero and tied confidences."""
    rng = np.random.default_rng(3)
    reports = []
    for method in ("switch-fuse", *(f"single:{t}" for t in AWKWARD_IDS)):
        confidence = rng.choice([0.5, -0.0, 0.0, 1 / 3, 2.5e-10, 7.0], size=9)
        predicted = rng.integers(0, 5, size=9)
        correct = rng.random(9) < 0.6
        reports.append(EvaluationReport(method, predicted, confidence, correct))
    return reports


def oracle_report_texts(report) -> dict[str, str]:
    """``write_report_csvs``'s files formatted row by row."""
    summary = [[report.method, f"{report.accuracy:.9f}", report.correct_count,
                report.query_count]]
    points = [[f"{t:.9f}", f"{p:.9f}", f"{r:.9f}"] for p, r, t in report.pr_points]
    outcomes = [
        [q, p, f"{c:.9f}", int(ok)]
        for q, (p, c, ok) in enumerate(
            zip(report.predicted.tolist(), report.confidence.tolist(),
                report.correct.tolist())
        )
    ]
    return {
        "summary": oracle.csv_text(
            ["method", "accuracy", "correct_count", "query_count"], summary
        ),
        "pr_points": oracle.csv_text(["threshold", "precision", "recall"], points),
        "outcomes": oracle.csv_text(
            ["query", "predicted", "confidence", "correct"], outcomes
        ),
    }


def oracle_comparison_text(reports) -> str:
    base = reports[0]
    rows = [
        [r.method, f"{r.accuracy:.9f}", r.correct_count,
         f"{base.accuracy - r.accuracy:.9f}", base.correct_count - r.correct_count]
        for r in reports
    ]
    header = ["method", "accuracy", "correct_count",
              "accuracy_gain_of_switch-fuse", "correct_gain_of_switch-fuse"]
    return oracle.csv_text(header, rows)


def test_report_and_comparison_csvs_match_row_formatting(tmp_path):
    reports = awkward_reports()
    for i, report in enumerate(reports):
        paths = write_report_csvs(report, tmp_path / str(i), timestamp=False)
        texts = {key: path.read_text() for key, path in paths.items()}
        assert texts == oracle_report_texts(report)
    write_comparison_csv(reports, tmp_path / "c.csv", timestamp=False)
    assert (tmp_path / "c.csv").read_text() == oracle_comparison_text(reports)


def test_timestamp_is_one_comment_line_before_the_untimed_bytes(tmp_path):
    """Every writer's timestamped file is ``# generated <ISO-8601>`` and
    then exactly the bytes it writes without the timestamp."""
    reports = awkward_reports()
    units = (unit_columns(AWKWARD_IDS[:2], [(AWKWARD_IDS[0], 0.5, True)] * 9),)
    switching = (reports[0].predicted, reports[0].confidence, units)

    def written(stamp: bool) -> dict[str, bytes]:
        out = tmp_path / str(stamp)
        out.mkdir()
        write_predictions(*switching, out / "p.csv", timestamp=stamp)
        write_comparison_csv(reports, out / "c.csv", timestamp=stamp)
        write_report_csvs(reports[1], out, timestamp=stamp)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    plain, stamped = written(False), written(True)
    assert stamped.keys() == plain.keys() and len(plain) == 5
    for name, blob in stamped.items():
        first, rest = blob.split(b"\n", 1)
        assert rest == plain[name], name
        prefix = b"# generated "
        assert first.startswith(prefix), name
        when = datetime.fromisoformat(first[len(prefix):].decode())
        assert when.utcoffset() is not None


# field texts of a predictions row: what int() or float() reads in ways a
# digit-only parser would not, and what they reject or the checks refuse
ODD_INDEX_TEXTS = ["+7", " 7 ", "1_000", "\u0663", "-0", "007", str(2**63 - 1),
                   str(-(2**63))]
BAD_INDEX_TEXTS = [str(2**63), str(-(2**63) - 1), "nan", "inf", "1e3", "7.0", "",
                   "x", "0x10"]
ODD_CONFIDENCE_TEXTS = ["-0.0", " 1.5 ", "1_0.5", "\u0663.\u0665", "1e-320", "7"]
BAD_CONFIDENCE_TEXTS = ["1e999", "-inf", "NaN", "infinity", "0x1p3", "", "1__0"]
OTHER_TEXTS = ["", "t0|t1", 'a,"b"', "x\ny", "0|1", "#c"]


def _row(index, confidence, other=st.sampled_from(OTHER_TEXTS)):
    return st.tuples(index, index, confidence, other, other, other).map(list)


predictions_rows = st.lists(
    st.one_of(
        # readable rows, often, so that whole files parse too
        _row(
            st.one_of(st.integers(-3, 2**63 - 1).map(str), st.sampled_from(ODD_INDEX_TEXTS)),
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.sampled_from(ODD_CONFIDENCE_TEXTS),
            ),
        ),
        _row(
            st.sampled_from(ODD_INDEX_TEXTS + BAD_INDEX_TEXTS),
            st.sampled_from(ODD_CONFIDENCE_TEXTS + BAD_CONFIDENCE_TEXTS + BAD_INDEX_TEXTS),
        ),
        # short and long rows
        st.lists(st.sampled_from(ODD_INDEX_TEXTS + OTHER_TEXTS), max_size=9),
    ),
    max_size=6,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("predictions")


def _read_outcome(read, path):
    """The columns as (dtype, bytes) pairs, or the FormatError message."""
    try:
        return [(col.dtype.str, col.tobytes()) for col in read(path)]
    except FormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=predictions_rows)
@example(  # every odd but readable text in one file that parses
    rows=[[q, p, c, "", "", ""] for q, p, c in zip(
        ODD_INDEX_TEXTS, reversed(ODD_INDEX_TEXTS), ODD_CONFIDENCE_TEXTS * 2
    )]
)
def test_columnar_reader_matches_the_per_row_reader(fuzz_dir, rows):
    path = fuzz_dir / "p.csv"
    path.write_text(oracle.csv_text(oracle.PREDICTIONS_HEADER, rows))
    assert _read_outcome(read_predictions, path) == _read_outcome(
        oracle.read_predictions, path
    )


def test_svg_labels_are_escaped():
    label = "a&b<c>"
    points = [(1.0, 0.5, 0.9), (0.5, 1.0, 0.1)]
    doc = minidom.parseString(svg_pr_plot([(label, points), ("plain", points)]))
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert label in texts and "plain" in texts
