import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from switchfuse import (
    GroundTruth,
    QueryOutcome,
    TripartiteConfig,
    UnitConfig,
    compare,
    pr_curve,
    run_method,
    score_predictions,
)
from switchfuse.calibration import build_store
from switchfuse.errors import InvalidInputError
from switchfuse.synthetic import (
    SubsetRuntime,
    TechniqueProfile,
    calibration_run,
    generate,
)


def outcome(q, predicted, confidence, correct):
    return QueryOutcome(q, predicted, confidence, correct)


class TestScorePredictions:
    def test_ratio(self):
        gt = GroundTruth.from_sets([{0}, {1}, {2}, {3}], 4)
        outs = [
            outcome(0, 0, 0.9, False),
            outcome(1, 1, 0.9, False),
            outcome(2, 2, 0.9, False),
            outcome(3, 0, 0.9, False),
        ]
        rep = score_predictions(outs, gt, "m")
        assert rep.accuracy == pytest.approx(0.75)
        assert rep.correct_count == 3

    def test_zero_correct(self):
        gt = GroundTruth.from_sets([{0}, {0}], 2)
        outs = [outcome(0, 1, 0.5, False), outcome(1, 1, 0.5, False)]
        rep = score_predictions(outs, gt)
        assert rep.accuracy == 0.0

    def test_window_tolerance(self):
        gt = GroundTruth.from_window(query_count=3, reference_count=10, k=1)
        outs = [
            outcome(0, 1, 0.5, False),  # within +1
            outcome(1, 0, 0.5, False),  # within -1
            outcome(2, 4, 0.5, False),  # outside
        ]
        rep = score_predictions(outs, gt)
        assert [o.correct for o in rep.outcomes] == [True, True, False]

    def test_missing_outcome(self):
        gt = GroundTruth.from_sets([{0}, {0}], 2)
        with pytest.raises(InvalidInputError):
            score_predictions([outcome(0, 0, 0.5, False)], gt)

    @pytest.mark.parametrize("indices", [(0, 0), (1, 1), (0, 2), (-1, 0)])
    def test_query_indices_must_cover_each_query_once(self, indices):
        gt = GroundTruth.from_sets([{0}, {0}], 2)
        outs = [outcome(q, 0, 0.5, False) for q in indices]
        with pytest.raises(InvalidInputError):
            score_predictions(outs, gt)


class TestPrCurve:
    def test_perfect_matcher(self):
        outs = [outcome(q, q, 0.5 + q * 0.1, True) for q in range(4)]
        points = pr_curve(outs)
        assert all(p == 1.0 for p, _, _ in points)
        assert points[-1][1] == 1.0

    def test_two_query_enumeration(self):
        outs = [outcome(0, 0, 0.9, True), outcome(1, 2, 0.5, False)]
        points = pr_curve(outs)
        assert points == [(1.0, 0.5, 0.9), (0.5, 0.5, 0.5)]

    def test_single_wrong_query(self):
        points = pr_curve([outcome(0, 1, 0.4, False)])
        assert points == [(0.0, 0.0, 0.4)]

    def test_duplicate_confidences_merged(self):
        outs = [
            outcome(0, 0, 0.5, True),
            outcome(1, 0, 0.5, False),
            outcome(2, 0, 0.2, True),
        ]
        points = pr_curve(outs)
        assert len(points) == 2
        assert points[0] == (0.5, 1 / 3, 0.5)

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_recall_nonincreasing_in_threshold(self, raw):
        outs = [outcome(i, 0, c, ok) for i, (c, ok) in enumerate(raw)]
        points = pr_curve(outs)
        # points are emitted in descending threshold order
        thresholds = [t for _, _, t in points]
        assert thresholds == sorted(thresholds, reverse=True)
        recalls = [r for _, r, _ in points]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_lowest_threshold_recall_is_accuracy(self, raw):
        outs = [outcome(i, 0, c, ok) for i, (c, ok) in enumerate(raw)]
        points = pr_curve(outs)
        accuracy = sum(ok for _, ok in raw) / len(raw)
        assert points[-1][1] == pytest.approx(accuracy)


def small_synthetic():
    ids = ["a", "b", "c", "d"]
    profiles = [
        TechniqueProfile(tid, rate, 0.75, 0.08, 0.45, 0.08)
        for tid, rate in zip(ids, [0.5, 0.6, 0.55, 0.45])
    ]
    ds = generate(profiles, 200, 40, seed=99)
    calib_idx = np.arange(0, 100)
    eval_idx = np.arange(100, 200)
    store = build_store(calibration_run(ds, calib_idx), ids)
    runtime = SubsetRuntime(ds, eval_idx)
    return ds, store, runtime


class TestRunMethod:
    def test_collapse_case_single_unit_single_technique(self):
        ds, store, runtime = small_synthetic()
        config = TripartiteConfig(units=(UnitConfig("u", ("a",)),))
        gt = runtime.ground_truth()
        preds = {}
        for method in ("switch-fuse", "switch-only", "fuse-all", "single:a"):
            rep = run_method(method, runtime, config, store, gt)
            preds[method] = [o.predicted for o in rep.outcomes]
        assert (
            preds["switch-fuse"]
            == preds["switch-only"]
            == preds["fuse-all"]
            == preds["single:a"]
        )

    def test_fuse_all_ignores_switching(self):
        ds, store, runtime = small_synthetic()
        config = TripartiteConfig(
            units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "d")))
        )
        gt = runtime.ground_truth()
        rep = run_method("fuse-all", runtime, config, None, gt)
        assert rep.query_count == runtime.query_count

    def test_single_matches_raw_argmax(self):
        ds, store, runtime = small_synthetic()
        config = TripartiteConfig(units=(UnitConfig("u", ("a", "b")),))
        gt = runtime.ground_truth()
        rep = run_method("single:b", runtime, config, None, gt)
        for o in rep.outcomes:
            row = runtime.similarity(o.query_index, "b").scores
            assert o.predicted == int(np.argmax(row))

    def test_unknown_method(self):
        ds, store, runtime = small_synthetic()
        config = TripartiteConfig(units=(UnitConfig("u", ("a",)),))
        with pytest.raises(InvalidInputError):
            run_method("borda", runtime, config, store, runtime.ground_truth())
        with pytest.raises(InvalidInputError):
            run_method(
                "single:zzz", runtime, config, store, runtime.ground_truth()
            )

    def test_deterministic(self):
        ds, store, runtime = small_synthetic()
        config = TripartiteConfig(
            units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "d")))
        )
        gt = runtime.ground_truth()
        r1 = run_method("switch-fuse", runtime, config, store, gt)
        r2 = run_method("switch-fuse", runtime, config, store, gt)
        assert [o.predicted for o in r1.outcomes] == [
            o.predicted for o in r2.outcomes
        ]
        assert r1.pr_points == r2.pr_points

    def test_switch_fuse_requires_store(self):
        ds, store, runtime = small_synthetic()
        config = TripartiteConfig(units=(UnitConfig("u", ("a",)),))
        with pytest.raises(InvalidInputError):
            run_method("switch-fuse", runtime, config, None, runtime.ground_truth())


def test_compare_deltas():
    gt = GroundTruth.from_sets([{0}, {1}], 2)
    good = score_predictions(
        [outcome(0, 0, 0.9, False), outcome(1, 1, 0.9, False)], gt, "switch-fuse"
    )
    bad = score_predictions(
        [outcome(0, 1, 0.9, False), outcome(1, 0, 0.9, False)], gt, "single:x"
    )
    report = compare([good, bad])
    rows = {r.method: r for r in report.rows}
    assert rows["switch-fuse"].delta_accuracy == 0.0
    assert rows["single:x"].delta_accuracy == pytest.approx(1.0)
    assert rows["single:x"].delta_correct == 2


def test_ground_truth_validation():
    with pytest.raises(InvalidInputError):
        GroundTruth.from_sets([set()], 4)
    with pytest.raises(InvalidInputError):
        GroundTruth.from_sets([{5}], 4)
