import csv
import io
from xml.dom import minidom

import numpy as np
import pytest

from switchfuse.calibration import build_store, collect_run
from switchfuse.errors import InvalidInputError
from switchfuse.evaluation import EvaluationReport, run_method
from switchfuse.reports import (
    read_predictions,
    svg_pr_plot,
    write_comparison_csv,
    write_predictions,
)
from switchfuse.switching import BlockDecisions, TripartiteConfig, UnitConfig
from switchfuse.synthetic import (
    SubsetRuntime,
    TechniqueProfile,
    generate,
    split_calibration_eval,
)

from .test_evaluation import query_outcomes


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["query", "predicted", "confidence", "selected", "posteriors", "fallbacks"]
    )
    for o in outcomes:
        if o.decisions is not None:
            selected = "|".join(d.selected_technique for d in o.decisions)
            posteriors = "|".join(f"{d.selected_posterior:.9f}" for d in o.decisions)
            fallbacks = "|".join("1" if d.fallback_used else "0" for d in o.decisions)
        else:
            selected = posteriors = fallbacks = ""
        writer.writerow(
            [o.query_index, o.predicted, f"{o.confidence:.9f}", selected, posteriors, fallbacks]
        )
    return buf.getvalue()


def test_predictions_match_row_formatting_with_shared_decisions(tmp_path):
    a = ("t0", 0.5, False)
    b = ("t1", 1 / 3, True)
    c = ("t2", 1e-10, False)
    d = ("t1", 0.75, False)  # b's technique, other values
    e = ("t1", 0.5, False)  # a's posterior under another technique
    units = (
        unit_columns(("t0", "t2"), [a, a, a, a, a, c, a, a]),
        unit_columns(("t1", "t2"), [b, b, c, b, e, c, d, ("t2", 2 / 3, True)]),
    )
    predicted = np.array([3, 1, 0, 2, 2, 4, 1, 0])
    confidence = np.array([0.25, -0.125, 1.0, 0.5, 0.5, 2 / 3, 0.0, 1.5])
    path = tmp_path / "p.csv"
    for decisions in (units, None):
        report = EvaluationReport(
            "m", predicted, confidence, np.zeros(8, dtype=bool), decisions
        )
        write_predictions(report, path, timestamp=False)
        assert path.read_text() == oracle_predictions_text(query_outcomes(report))


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
    store = build_store(collect_run(SubsetRuntime(ds, calib_idx), techniques), techniques)
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "d", "a"))),
        posterior_threshold=threshold,
    )
    runtime = SubsetRuntime(ds, eval_idx)
    report = run_method("switch-fuse", runtime, config, store, runtime.ground_truth())
    path = tmp_path / "p.csv"
    write_predictions(report, path, timestamp=False)
    assert path.read_text() == oracle_predictions_text(query_outcomes(report))
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


def test_svg_labels_are_escaped():
    label = "a&b<c>"
    points = [(1.0, 0.5, 0.9), (0.5, 1.0, 0.1)]
    doc = minidom.parseString(svg_pr_plot([(label, points), ("plain", points)]))
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert label in texts and "plain" in texts
