import csv
import io

import pytest

from switchfuse.calibration import build_store
from switchfuse.evaluation import Outcomes, QueryOutcome, run_method
from switchfuse.reports import read_predictions, write_predictions
from switchfuse.switching import TripartiteConfig, UnitConfig, UnitDecision
from switchfuse.synthetic import (
    SubsetRuntime,
    TechniqueProfile,
    calibration_run,
    generate,
    split_calibration_eval,
)

from .test_evaluation import query_outcomes


def as_columns(outcomes) -> Outcomes:
    """Per-query objects (queries 0..n-1, in order) as one ``Outcomes``."""
    return Outcomes(
        [o.predicted for o in outcomes],
        [o.confidence for o in outcomes],
        [o.correct for o in outcomes],
        tuple(o.decisions for o in outcomes),
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
    a = UnitDecision("u0", "t0", 0.5, False)
    b = UnitDecision("u1", "t1", 1 / 3, True)
    b_copy = UnitDecision("u1", "t1", 1 / 3, True)  # equal, not shared
    c = UnitDecision("u1", "t2", 1e-10, False)
    d = UnitDecision("u1", "t1", 0.75, False)  # b's technique, other values
    outcomes = [
        QueryOutcome(0, 3, 0.25, False, (a, b)),
        QueryOutcome(1, 1, -0.125, False, (a, b_copy)),
        QueryOutcome(2, 0, 1.0, False, (a, c)),
        QueryOutcome(3, 2, 0.5, False, (a, b)),
        QueryOutcome(4, 2, 0.5, False, None),
        QueryOutcome(5, 4, 2 / 3, False, (c,)),
        QueryOutcome(6, 1, 0.0, False, (a, d)),
        QueryOutcome(7, 0, 1.5, False, ()),
    ]
    path = tmp_path / "p.csv"
    write_predictions(as_columns(outcomes), path, timestamp=False)
    assert path.read_text() == oracle_predictions_text(outcomes)


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
    store = build_store(calibration_run(ds, calib_idx), list(techniques))
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "d", "a"))),
        posterior_threshold=threshold,
    )
    runtime = SubsetRuntime(ds, eval_idx)
    report = run_method("switch-fuse", runtime, config, store, runtime.ground_truth())
    path = tmp_path / "p.csv"
    write_predictions(report.outcomes, path, timestamp=False)
    assert path.read_text() == oracle_predictions_text(query_outcomes(report.outcomes))
    assert read_predictions(path)[0].tolist() == list(
        range(len(eval_idx))
    )
