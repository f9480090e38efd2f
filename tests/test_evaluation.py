import csv
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from switchfuse import (
    GroundTruth,
    TripartiteConfig,
    UnitConfig,
    compare_methods,
    pr_points,
    run_method,
    score_outcomes,
)
from switchfuse import datasets, evaluation
from switchfuse.calibration import build_store, collect_run
from switchfuse.errors import InvalidInputError
from switchfuse.reports import write_comparison_csv
from switchfuse.synthetic import SyntheticDataset, TechniqueProfile, generate
from tests.exported import exported_runtime, scored_run, similarity_rows
from tests.oracle import (
    QueryOutcome,
    UnitDecision,
    best_match,
    bin_index,
    fuse,
    is_correct,
    normalize,
    pr_curve,
    raw_match_score,
    run_tripartite,
    score_predictions,
    select_technique,
    similarity,
)


def outcome(q, predicted, confidence, correct):
    return QueryOutcome(q, predicted, confidence, correct)


def query_decisions(decisions, query_count) -> list:
    """Each query's ``UnitDecision`` tuple, in unit order, expanded from
    ``run_method``'s ``BlockDecisions`` columns (which carry no unit
    label); None for every query when the method does not switch."""
    if decisions is None:
        return [None] * query_count
    units = [
        [
            UnitDecision("", unit.techniques[t], posterior, fallback)
            for t, posterior, fallback in zip(
                unit.selected.tolist(),
                unit.posterior.tolist(),
                unit.fallback.tolist(),
            )
        ]
        for unit in decisions
    ]
    return list(zip(*units))


def query_outcomes(report, decisions=None) -> list[QueryOutcome]:
    """An ``EvaluationReport``'s rows, with ``run_method``'s decisions, as
    the oracle's per-query objects."""
    decisions = query_decisions(decisions, report.query_count)
    return [
        QueryOutcome(q, p, c, ok, d)
        for q, (p, c, ok, d) in enumerate(
            zip(
                report.predicted.tolist(),
                report.confidence.tolist(),
                report.correct.tolist(),
                decisions,
            )
        )
    ]


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


def score_columns(outs, gt):
    return score_outcomes(
        [o.query_index for o in outs],
        [o.predicted for o in outs],
        [o.confidence for o in outs],
        gt,
    )


class TestScoreOutcomes:
    @pytest.mark.parametrize("indices", [(0, 0), (1, 1), (0, 2), (-1, 0), (0,)])
    def test_query_indices_must_cover_each_query_once(self, indices):
        gt = GroundTruth.from_sets([{0}, {0}], 2)
        outs = [outcome(q, 0, 0.5, False) for q in indices]
        with pytest.raises(InvalidInputError):
            score_columns(outs, gt)

    @pytest.mark.parametrize("predicted", [-5, 3, 10**9])
    def test_predicted_reference_must_be_in_range(self, predicted):
        gt = GroundTruth.from_sets([{0}, {2}], 3)
        outs = [outcome(0, 0, 0.5, False), outcome(1, predicted, 0.5, False)]
        with pytest.raises(InvalidInputError, match=f"query 1.*{predicted}"):
            score_columns(outs, gt)

    def test_rows_come_back_in_query_order(self):
        gt = GroundTruth.from_sets([{0}, {1}, {2}], 3)
        outs = [outcome(2, 2, 0.1, False), outcome(0, 1, 0.3, False),
                outcome(1, 1, 0.2, False)]
        rep = score_columns(outs, gt)
        assert rep.predicted.tolist() == [1, 1, 2]
        assert rep.confidence.tolist() == [0.3, 0.2, 0.1]
        assert rep.correct.tolist() == [False, True, True]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_confidence_rejected_when_built(self, bad):
        # the PR points are swept on first read; the report is refused a
        # confidence the sweep could not rank when it is built
        gt = GroundTruth.from_sets([{0}, {1}], 2)
        with pytest.raises(InvalidInputError, match="finite"):
            score_outcomes([0, 1], [0, 1], [0.5, bad], gt)

    @pytest.mark.parametrize("truth", ["window", "explicit"])
    @given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 40))
    def test_matches_score_predictions(self, truth, seed, queries):
        rng = np.random.default_rng(seed)
        refs = int(rng.integers(1, 12))
        if truth == "window":
            gt = GroundTruth.from_window(queries, max(refs, queries), k=1)
        else:
            gt = GroundTruth.from_sets(
                [set(rng.choice(refs, int(rng.integers(1, refs + 1))).tolist())
                 for _ in range(queries)],
                refs,
            )
        order = rng.permutation(queries).tolist()
        predicted = rng.integers(0, gt.reference_count, queries).tolist()
        confidence = rng.choice([0.0, -0.0, 0.25, 0.5, 0.75], queries).tolist()
        outs = [outcome(q, p, c, False) for q, p, c in zip(order, predicted, confidence)]
        want = score_predictions(outs, gt, "m")
        got = score_columns(outs, gt)
        assert (got.accuracy, got.correct_count, got.query_count) == (
            want.accuracy, want.correct_count, want.query_count
        )
        assert got.predicted.tolist() == [o.predicted for o in want.outcomes]
        assert repr(got.confidence.tolist()) == repr(
            [o.confidence for o in want.outcomes]
        )
        assert got.correct.tolist() == [o.correct for o in want.outcomes]
        assert repr(got.pr_points) == repr(tuple(pr_curve(want.outcomes)))

    def test_ground_truth_correct_matches_is_correct(self):
        gt = GroundTruth.from_sets([{0, 2}, {1}, {4}], 5)
        predicted = [2, 4, 4]
        assert gt.correct(predicted).tolist() == [
            is_correct(gt, q, p) for q, p in enumerate(predicted)
        ]
        # 6 and -3 land on other queries' accepted keys unless range-checked
        assert gt.correct([6, -3, 10**12]).tolist() == [False, False, False]
        with pytest.raises(InvalidInputError):
            gt.correct([0, 1])

    @given(
        st.lists(st.sets(st.integers(0, 6), min_size=1), min_size=1, max_size=12),
        st.data(),
    )
    def test_ground_truth_correct_over_sorted_keys(self, sets, data):
        gt = GroundTruth.from_sets(sets, 7)
        assert np.all(np.diff(gt.keys) > 0)
        predicted = data.draw(
            st.lists(st.integers(-9, 16), min_size=len(sets), max_size=len(sets))
        )
        assert gt.correct(predicted).tolist() == [
            is_correct(gt, q, p) for q, p in enumerate(predicted)
        ]

    def test_ground_truth_without_keys_accepts_nothing(self):
        gt = GroundTruth(np.zeros(0, dtype=np.int64), 3, 5)
        assert gt.correct([0, 4, 9]).tolist() == [False, False, False]


confidences = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(-2, 2, allow_nan=False)
)


class TestPrPoints:
    @given(
        st.lists(st.tuples(confidences, st.booleans()), min_size=1, max_size=50),
        st.sampled_from([None, True, False]),  # mixed, all correct, all wrong
    )
    @example([(1.0, True), (1.0, False), (0.5, True)], None)  # tie at the top
    @example([(0.0, True), (-0.0, False), (-0.0, True), (0.0, False)], None)
    @example([(-0.0, False), (0.0, True)], None)
    @example([(0.3, True)], None)
    def test_equals_pr_curve_oracle(self, raw, flag):
        if flag is not None:
            raw = [(c, flag) for c, _ in raw]
        outs = [outcome(i, 0, c, ok) for i, (c, ok) in enumerate(raw)]
        got = pr_points([c for c, _ in raw], [ok for _, ok in raw])
        # repr tells -0.0 from 0.0, which the threshold column prints
        assert repr(got) == repr(pr_curve(outs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_confidence_rejected(self, bad):
        outs = [outcome(0, 0, 0.5, True), outcome(1, 0, bad, False)]
        with pytest.raises(InvalidInputError):
            pr_curve(outs)
        with pytest.raises(InvalidInputError):
            pr_points([0.5, bad], [True, False])

    def test_empty_or_misaligned_rejected(self):
        with pytest.raises(InvalidInputError):
            pr_points([], [])
        with pytest.raises(InvalidInputError):
            pr_points([0.5, 0.25], [True])


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


def small_synthetic(directory):
    ids = ["a", "b", "c", "d"]
    profiles = [
        TechniqueProfile(tid, rate, 0.75, 0.08, 0.45, 0.08)
        for tid, rate in zip(ids, [0.5, 0.6, 0.55, 0.45])
    ]
    ds = generate(profiles, 200, 40, seed=99)
    calib = exported_runtime(ds, np.arange(0, 100), directory, "calib")
    store = build_store(collect_run(calib, ids), ids)
    runtime = exported_runtime(ds, np.arange(100, 200), directory, "eval")
    return store, runtime


class TestRunMethod:
    def test_collapse_case_single_unit_single_technique(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(units=(UnitConfig("u", ("a",)),))
        preds = {}
        for method in ("switch-fuse", "switch-only", "fuse-all", "single:a"):
            predicted, _, _ = run_method(method, runtime, config, store)
            preds[method] = predicted.tolist()
        assert (
            preds["switch-fuse"]
            == preds["switch-only"]
            == preds["fuse-all"]
            == preds["single:a"]
        )

    def test_fuse_all_ignores_switching(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(
            units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "d")))
        )
        rep, _ = scored_run("fuse-all", runtime, config, None)
        assert rep.query_count == runtime.query_count

    def test_single_matches_raw_argmax(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(units=(UnitConfig("u", ("a", "b")),))
        best, _, _ = run_method("single:b", runtime, config, None)
        for q, predicted in enumerate(best.tolist()):
            row = similarity_rows(runtime, "b", [q])[0]
            assert predicted == int(np.argmax(row))

    def test_unknown_method(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(units=(UnitConfig("u", ("a",)),))
        with pytest.raises(InvalidInputError):
            run_method("borda", runtime, config, store)
        with pytest.raises(InvalidInputError):
            run_method("single:zzz", runtime, config, store)

    def test_deterministic(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(
            units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "d")))
        )
        r1, _ = scored_run("switch-fuse", runtime, config, store)
        r2, _ = scored_run("switch-fuse", runtime, config, store)
        assert r1.predicted.tolist() == r2.predicted.tolist()
        assert r1.pr_points == r2.pr_points

    def test_switch_fuse_requires_store(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(units=(UnitConfig("u", ("a",)),))
        with pytest.raises(InvalidInputError):
            run_method("switch-fuse", runtime, config, None)

    def test_compare_methods_runs_every_family_in_order(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(
            units=(UnitConfig("u0", ("c", "a")), UnitConfig("u1", ("d", "c", "b")))
        )
        gt = runtime.ground_truth()
        reports = compare_methods(runtime, config, store, gt)
        methods = ["switch-fuse", "switch-only", "fuse-all"]
        methods += ["single:c", "single:a", "single:d", "single:b"]
        assert [r.method for r in reports] == methods
        for report in reports:
            predicted, confidence, decisions = run_method(
                report.method, runtime, config, store
            )
            assert report.predicted.tolist() == predicted.tolist()
            assert report.confidence.tolist() == confidence.tolist()
            assert (decisions is None) == (report.method != "switch-fuse")

    def test_compare_reports_derive_their_pr_points(self, tmp_path):
        store, runtime = small_synthetic(tmp_path)
        config = TripartiteConfig(
            units=(UnitConfig("u0", ("c", "a")), UnitConfig("u1", ("d", "b")))
        )
        reports = compare_methods(runtime, config, store, runtime.ground_truth())
        for r in reports:
            assert r.pr_points == tuple(pr_points(r.confidence, r.correct))


def scalar_outcome(method, runtime, config, store, q):
    """One query through the per-query oracle functions: (predicted,
    confidence, per-unit (technique, posterior, fallback) or None)."""

    def sim(tid):
        return similarity(runtime, q, tid)

    if method == "switch-fuse":
        selected = run_tripartite(config, sim, store)
        fused = fuse(
            normalize(selected.similarity_cache[tid])
            for tid in selected.selected_ids()
        )
        idx, conf = best_match(fused)
        units = [
            (d.selected_technique, d.selected_posterior, d.fallback_used)
            for d in selected.decisions
        ]
        return idx, conf, units
    if method == "switch-only":
        pool = SimpleNamespace(
            label="pooled", techniques=tuple(config.all_techniques())
        )
        decision = select_technique(
            pool,
            lambda tid: raw_match_score(sim(tid)),
            store,
            config.posterior_threshold,
        )
        ms = raw_match_score(sim(decision.selected_technique))
        return ms.best_index, ms.value, None
    if method == "fuse-all":
        fused = fuse(normalize(sim(tid)) for tid in config.all_techniques())
        return (*best_match(fused), None)
    ms = raw_match_score(sim(method.split(":", 1)[1]))
    return ms.best_index, ms.value, None


@pytest.mark.parametrize("threshold", [0.5, 0.75])
def test_every_method_matches_scalar_oracle(threshold, tmp_path):
    store, runtime = small_synthetic(tmp_path)
    config = TripartiteConfig(
        units=(
            UnitConfig("u0", ("a", "b")),
            UnitConfig("u1", ("c", "d", "a")),
            UnitConfig("u2", ("b",)),
        ),
        posterior_threshold=threshold,
    )
    gt = runtime.ground_truth()
    methods = ["switch-fuse", "switch-only", "fuse-all"] + [
        f"single:{t}" for t in "abcd"
    ]
    fallbacks = 0
    for method in methods:
        report, decisions = scored_run(method, runtime, config, store, gt)
        assert report.pr_points == tuple(pr_curve(query_outcomes(report)))
        for o in query_outcomes(report, decisions):
            idx, conf, units = scalar_outcome(
                method, runtime, config, store, o.query_index
            )
            assert (o.predicted, o.confidence) == (idx, conf), method
            if units is None:
                assert o.decisions is None
                continue
            got = [
                (d.selected_technique, d.selected_posterior, d.fallback_used)
                for d in o.decisions
            ]
            assert got == units
            fallbacks += sum(f for _, _, f in units)
    assert fallbacks > 0


def test_compare_deltas(tmp_path):
    gt = GroundTruth.from_sets([{0}, {1}], 2)
    good = score_predictions(
        [outcome(0, 0, 0.9, False), outcome(1, 1, 0.9, False)], gt, "switch-fuse"
    )
    bad = score_predictions(
        [outcome(0, 1, 0.9, False), outcome(1, 0, 0.9, False)], gt, "single:x"
    )
    write_comparison_csv([good, bad], tmp_path / "c.csv", timestamp=False)
    with open(tmp_path / "c.csv", newline="") as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}
    assert float(rows["switch-fuse"]["accuracy_gain_of_switch-fuse"]) == 0.0
    assert float(rows["single:x"]["accuracy_gain_of_switch-fuse"]) == pytest.approx(1.0)
    assert int(rows["single:x"]["correct_gain_of_switch-fuse"]) == 2


def test_ground_truth_from_sets_keeps_the_given_sets():
    sets = [{3, 1}, {0}, {4, 2, 1}, {np.int64(2)}]
    gt = GroundTruth.from_sets(sets, 5)
    assert gt.accepted == tuple(frozenset(int(r) for r in s) for s in sets)
    assert all(type(ref) is int for s in gt.accepted for ref in s)


def test_ground_truth_validation():
    with pytest.raises(InvalidInputError):
        GroundTruth.from_sets([set()], 4)
    with pytest.raises(InvalidInputError):
        GroundTruth.from_sets([{5}], 4)


@pytest.mark.parametrize(
    "sets, message",
    [
        ([{0}, {1}, set(), {9}], "query 2 has no acceptable reference"),
        ([{0}, {1, 9}, set()], "query 1 references out of range"),
        ([{0}, {-1}], "query 1 references out of range"),
        ([{0}, {1}, {2**70}], "query 2 references out of range"),
        ([{0}, {-(2**70)}, set()], "query 1 references out of range"),
    ],
)
def test_ground_truth_names_the_first_bad_query(sets, message):
    """The array checks name the query a per-query loop stops at."""
    for i, refs in enumerate(sets):
        if not refs or any(r < 0 or r >= 4 for r in refs):
            assert message.startswith(f"query {i} ")
            break
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        GroundTruth.from_sets(sets, 4)


def rows_kernel(queries, refs, ref_norms=None, out=None):
    """A similarity kernel for exported descriptors that hold their rows
    themselves: the rows minus the padding coordinate, written into ``out``
    when it is given, as ``similarity_block`` writes."""
    block = np.array(queries[:, :-1], np.float64)
    if out is None:
        return block
    out[...] = block
    return out


def test_signed_zero_maxima_match_scalar_oracle(tmp_path, monkeypatch):
    """Rows whose maximum 0.0 is held as both -0.0 and +0.0, in either
    order: the match score is the value at the first maximum, so its bin,
    the decisions and the raw-score confidences (sign included) equal the
    scalar oracle's."""
    rng = np.random.default_rng(5)
    ids, q, r = ("a", "b"), 60, 6
    sims = {}
    for tid in ids:
        rows = rng.uniform(-1, 1, (q, r))
        rows[::3] = -rng.uniform(0.1, 1, (q // 3, r))
        rows[0::6, 1], rows[0::6, 4] = -0.0, 0.0
        rows[3::6, 1], rows[3::6, 4] = 0.0, -0.0
        sims[tid] = rows
    ds = SyntheticDataset(sims, rng.integers(0, r, q))
    # the exported descriptors hold the rows themselves
    monkeypatch.setattr(datasets, "similarity_block", rows_kernel)
    runtime = exported_runtime(ds, np.arange(q), tmp_path)
    store = build_store(collect_run(runtime, ids), ids, bins=4)

    signs = set()
    for tid in ids:
        hist = store.technique(tid).histogram
        best, score = runtime.matches(tid, np.arange(q))
        bins = hist.bin_indices(score)
        for i in range(q):
            want = raw_match_score(similarity(runtime, i, tid))
            assert best[i] == want.best_index
            assert score[i : i + 1].tobytes() == np.float64(want.value).tobytes()
            assert bins[i] == bin_index(hist, want.value)
            if want.value == 0.0:
                signs.add(math.copysign(1.0, want.value))
    assert signs == {-1.0, 1.0}

    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("b", "a")))
    )
    gt = runtime.ground_truth()
    for method in ["switch-fuse", "switch-only", "single:a", "single:b"]:
        report, decisions = scored_run(method, runtime, config, store, gt)
        for o in query_outcomes(report, decisions):
            idx, conf, units = scalar_outcome(
                method, runtime, config, store, o.query_index
            )
            assert o.predicted == idx, method
            assert math.copysign(1.0, o.confidence) == math.copysign(1.0, conf)
            assert o.confidence == conf, method
            if units is not None:
                got = [
                    (d.selected_technique, d.selected_posterior, d.fallback_used)
                    for d in o.decisions
                ]
                assert got == units


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 3, 10**30])
@pytest.mark.parametrize(
    "queries, refs", [(0, 3), (1, 1), (5, 5), (6, 3), (4, 9), (3, 0)]
)
def test_window_ground_truth_matches_per_query_sets(queries, refs, k):
    """The window's keys give the same acceptable sets, and fail the same
    way, as one ``range`` per query."""
    sets = []
    for i in range(queries):
        lo, hi = max(0, i - k), min(refs - 1, i + k)
        if hi < lo:
            sets = None
            break
        sets.append(frozenset(range(lo, hi + 1)))
    if sets is None:
        with pytest.raises(InvalidInputError, match="^window ground truth out of range"):
            GroundTruth.from_window(queries, refs, k)
        return
    gt = GroundTruth.from_window(queries, refs, k)
    assert gt.query_count == queries and gt.reference_count == refs
    assert gt.accepted == tuple(sets)
    assert all(type(ref) is int for s in gt.accepted for ref in s)
    predicted = np.minimum(np.arange(queries) + 1, refs)
    assert gt.correct(predicted).tolist() == [
        int(p) in s for p, s in zip(predicted, sets)
    ]


def _row_runtime(directory, monkeypatch, sims) -> datasets.DatasetRuntime:
    """A runtime whose similarity rows are ``sims`` (technique -> Q×R rows)
    divided by the export's one positive scale: the exported descriptors
    hold the rows themselves, so a kernel that returns them (minus the
    padding coordinate) serves them."""
    monkeypatch.setattr(datasets, "similarity_block", rows_kernel)
    q = len(next(iter(sims.values())))
    ds = SyntheticDataset(sims, np.zeros(q, dtype=np.int64))
    return exported_runtime(ds, np.arange(q), directory)


def assert_fusion_matches_oracle(runtime, picks) -> None:
    """``_best_fused`` gives every query the oracle's fused best match, its
    confidence bit for bit; the oracle reads each row after fusion scored
    it."""
    predicted, confidence = evaluation._best_fused(runtime, picks)
    for q in range(runtime.query_count):
        fused = fuse(
            normalize(similarity(runtime, q, pool[choice[q]]))
            for pool, choice in picks
        )
        idx, conf = best_match(fused)
        assert predicted[q] == idx, q
        assert confidence[q : q + 1].tobytes() == np.float64(conf).tobytes(), q


@pytest.mark.parametrize("q", [1, 127, 128, 129, 300])
def test_tiled_fusion_matches_per_query_oracle(q, tmp_path, monkeypatch):
    """Query counts below, at and past one tile and over several tiles, with
    switch-fuse's mixed pools and fuse-all's one-technique contributors."""
    rng = np.random.default_rng(q)
    sims = {tid: rng.uniform(-1, 1, (q, 9)) for tid in "abcd"}
    runtime = _row_runtime(tmp_path, monkeypatch, sims)
    everyone = np.zeros(q, dtype=np.int64)
    assert_fusion_matches_oracle(
        runtime,
        [
            (("a", "b", "c"), rng.integers(0, 3, q)),
            (("c", "d"), rng.integers(0, 2, q)),
            (("b",), everyone),
        ],
    )
    assert_fusion_matches_oracle(runtime, [((tid,), everyone) for tid in "abcd"])


def test_tiled_fusion_skips_pool_techniques_no_query_picks(tmp_path, monkeypatch):
    """A pool technique that no query picks is never scored, and fusion
    never asks the runtime for its rows."""
    rng = np.random.default_rng(4)
    q = 200
    sims = {tid: rng.uniform(-1, 1, (q, 7)) for tid in "abc"}
    runtime = _row_runtime(tmp_path, monkeypatch, sims)
    picks = [
        (("a", "c", "b"), rng.integers(0, 2, q) * 2),  # never "c"
        (("b", "c"), np.zeros(q, dtype=np.int64)),
    ]
    assert_fusion_matches_oracle(runtime, picks)
    assert "c" not in runtime._slot  # no request ever named it


def test_tiled_fusion_reads_a_tile_from_two_fragments(tmp_path, monkeypatch):
    """Rows of one technique scored in two requests sit in two runs of its
    row buffer, interleaved within each tile."""
    rng = np.random.default_rng(5)
    q = 300
    sims = {tid: rng.uniform(-1, 1, (q, 8)) for tid in "ab"}
    runtime = _row_runtime(tmp_path, monkeypatch, sims)
    first = np.arange(1, q, 3)
    runtime.score(["a"], first)
    picks = [
        (("a",), np.zeros(q, dtype=np.int64)),
        (("b", "a"), rng.integers(0, 2, q)),
    ]
    assert_fusion_matches_oracle(runtime, picks)
    slot = runtime._slot["a"]
    assert slot[first].tolist() == list(range(q // 3))
    assert np.delete(slot, first).tolist() == list(range(q // 3, q))


def test_tiled_fusion_constant_and_signed_zero_rows(tmp_path, monkeypatch):
    """Constant rows, constant rows of mixed -0.0 and +0.0 and rows whose
    minimum or maximum is a signed zero fuse as the oracle does, the sign
    of a zero confidence included."""
    rng = np.random.default_rng(6)
    q, r = 140, 6
    sims = {}
    for tid in "ab":
        rows = rng.uniform(-1, 1, (q, r))
        rows[0::7] = 0.25
        rows[1::7] = [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0]
        rows[2::7] = rng.uniform(0.1, 1, (q // 7, r))
        rows[2::7, 1], rows[2::7, 4] = -0.0, 0.0
        rows[3::7] = -rng.uniform(0.1, 1, (q // 7, r))
        rows[3::7, 0], rows[3::7, 5] = 0.0, -0.0
        rows[4::7] = -0.0
        sims[tid] = rows
    sims["b"][5::7] = 0.0
    runtime = _row_runtime(tmp_path, monkeypatch, sims)
    picks = [
        (("a", "b"), rng.integers(0, 2, q)),
        (("b", "a"), rng.integers(0, 2, q)),
    ]
    assert_fusion_matches_oracle(runtime, picks)
    _, confidence = evaluation._best_fused(runtime, picks)
    assert np.any(confidence == 0.0)


def test_fusion_allocates_tiles_not_query_blocks(tmp_path, monkeypatch):
    """With every row scored, fusing Q = 1000 queries against R = 200
    references allocates less than one Q×R float64 block at its peak."""
    rng = np.random.default_rng(7)
    q, r = 1000, 200
    sims = {tid: rng.uniform(-1, 1, (q, r)) for tid in "abc"}
    runtime = _row_runtime(tmp_path, monkeypatch, sims)
    runtime.score("abc", range(q))
    picks = [
        (("a", "b"), rng.integers(0, 2, q)),
        (("c",), np.zeros(q, dtype=np.int64)),
    ]
    tracemalloc.start()
    try:
        evaluation._best_fused(runtime, picks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q * r * 8
