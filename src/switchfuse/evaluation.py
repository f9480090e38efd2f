"""Scoring, PR curves and the baseline comparison harness.

``run_method`` drives four method families over a dataset runtime: the full
switch-then-fuse pipeline, a pooled switch-only baseline, fuse-everything,
and single-technique matching.  Every family handles all queries at once,
reading whole blocks of similarity rows from the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationStore
from .errors import InvalidInputError
from .fusion import FusionParams, best_matches, normalize_rows
from .switching import (
    SwitchingTables,
    TripartiteConfig,
    UnitDecision,
    select_block,
)


@dataclass(frozen=True)
class GroundTruth:
    """Acceptable reference indices per query."""

    accepted: tuple[frozenset[int], ...]
    reference_count: int

    def __post_init__(self):
        for i, refs in enumerate(self.accepted):
            if not refs:
                raise InvalidInputError(f"query {i} has no acceptable reference")
            if any(r < 0 or r >= self.reference_count for r in refs):
                raise InvalidInputError(f"query {i} references out of range")

    @property
    def query_count(self) -> int:
        return len(self.accepted)

    def is_correct(self, query: int, predicted: int) -> bool:
        return predicted in self.accepted[query]

    @classmethod
    def from_sets(cls, sets, reference_count: int) -> "GroundTruth":
        return cls(
            accepted=tuple(frozenset(s) for s in sets),
            reference_count=reference_count,
        )

    @classmethod
    def from_window(
        cls, query_count: int, reference_count: int, k: int = 1
    ) -> "GroundTruth":
        """Aligned-traverse ground truth: query i accepts references i±k."""
        sets = []
        for i in range(query_count):
            lo = max(0, i - k)
            hi = min(reference_count - 1, i + k)
            if hi < lo:
                raise InvalidInputError("window ground truth out of range")
            sets.append(frozenset(range(lo, hi + 1)))
        return cls(accepted=tuple(sets), reference_count=reference_count)


@dataclass(frozen=True)
class QueryOutcome:
    query_index: int
    predicted: int
    confidence: float
    correct: bool
    decisions: tuple[UnitDecision, ...] | None = None  # switch-fuse, unit order


@dataclass(frozen=True)
class EvaluationReport:
    method: str
    accuracy: float
    correct_count: int
    query_count: int
    outcomes: tuple[QueryOutcome, ...]
    pr_points: tuple[tuple[float, float, float], ...] = ()  # (precision, recall, threshold)


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    accuracy: float
    correct_count: int
    delta_accuracy: float
    delta_correct: int


@dataclass(frozen=True)
class ComparisonReport:
    baseline_method: str
    rows: tuple[ComparisonRow, ...]


def score_predictions(outcomes, ground_truth: GroundTruth, method: str = "") -> EvaluationReport:
    """Assemble accuracy and correct-match counts from raw outcomes."""
    outcomes = tuple(sorted(outcomes, key=lambda o: o.query_index))
    if len(outcomes) != ground_truth.query_count:
        raise InvalidInputError(
            f"{len(outcomes)} outcomes for {ground_truth.query_count} queries"
        )
    if [o.query_index for o in outcomes] != list(range(len(outcomes))):
        raise InvalidInputError(
            f"outcome query indices must be 0..{len(outcomes) - 1}, each once"
        )
    rescored = tuple(
        QueryOutcome(
            query_index=o.query_index,
            predicted=o.predicted,
            confidence=o.confidence,
            correct=ground_truth.is_correct(o.query_index, o.predicted),
            decisions=o.decisions,
        )
        for o in outcomes
    )
    correct = sum(o.correct for o in rescored)
    return EvaluationReport(
        method=method,
        accuracy=correct / len(rescored),
        correct_count=correct,
        query_count=len(rescored),
        outcomes=rescored,
    )


def pr_curve(outcomes) -> list[tuple[float, float, float]]:
    """Precision/recall points swept over distinct confidences, descending.

    At each threshold t the attempted set is every outcome with confidence
    >= t; precision over an empty attempted set is defined as 1.0.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise InvalidInputError("no outcomes to sweep")
    total = len(outcomes)
    ranked = sorted(outcomes, key=lambda o: -o.confidence)
    points = []
    attempted = 0
    correct = 0
    i = 0
    while i < len(ranked):
        t = ranked[i].confidence
        while i < len(ranked) and ranked[i].confidence == t:
            attempted += 1
            correct += ranked[i].correct
            i += 1
        precision = correct / attempted if attempted else 1.0
        recall = correct / total
        points.append((precision, recall, t))
    return points


def with_pr_points(report: EvaluationReport) -> EvaluationReport:
    pts = tuple(pr_curve(report.outcomes))
    return EvaluationReport(
        method=report.method,
        accuracy=report.accuracy,
        correct_count=report.correct_count,
        query_count=report.query_count,
        outcomes=report.outcomes,
        pr_points=pts,
    )


def _unit_decisions(unit, block) -> list[UnitDecision]:
    """Per-query decisions of one unit.  Posteriors come from per-bin
    tables, so decisions repeat; equal ones share one immutable object."""
    made: dict[tuple, UnitDecision] = {}
    out = []
    for key in zip(
        block.selected.tolist(), block.posterior.tolist(), block.fallback.tolist()
    ):
        decision = made.get(key)
        if decision is None:
            t, posterior, fallback = key
            decision = made[key] = UnitDecision(
                unit.label, unit.techniques[t], posterior, fallback
            )
        out.append(decision)
    return out


def _picked_rows(runtime, pool, choice):
    """(queries, their similarity rows) for each technique of ``pool``
    that some query picked; ``choice`` holds each query's index into it."""
    for i, tid in enumerate(pool):
        queries = np.flatnonzero(choice == i)
        if len(queries):
            yield queries, runtime.similarity_rows(tid, queries)


def _best_raw(runtime, pool, choice):
    """Each query's best reference and score under its picked technique."""
    predicted = np.empty(len(choice), dtype=np.int64)
    confidence = np.empty(len(choice))
    for queries, rows in _picked_rows(runtime, pool, choice):
        predicted[queries], confidence[queries] = best_matches(rows, 1)
    return predicted, confidence


def _best_fused(runtime, picks, params: FusionParams):
    """Min-max normalise and sum each query's picked similarity rows, one
    contributor at a time in order, then take the best reference.

    ``picks`` holds one (technique pool, per-query index into it) pair per
    contributor; only one technique's rows are held normalised at a time.
    """
    total = np.zeros((runtime.query_count, runtime.reference_count))
    for pool, choice in picks:
        for queries, rows in _picked_rows(runtime, pool, choice):
            total[queries] += normalize_rows(rows, params)
    return best_matches(total, len(picks))


def run_method(
    method: str,
    runtime,
    config: TripartiteConfig,
    store: CalibrationStore | None,
    ground_truth: GroundTruth,
    params: FusionParams = FusionParams(),
) -> EvaluationReport:
    """Evaluate one method family over every query of a dataset runtime.

    ``method`` is ``switch-fuse``, ``switch-only``, ``fuse-all`` or
    ``single:<technique_id>``.  The runtime provides ``query_count``,
    ``reference_count`` and ``similarity_rows(technique_id, queries)``.
    Switch-only runs one unit pooling every configured technique, first
    unit's primary leading, exempt from the eight-technique unit cap.
    """
    n = runtime.query_count
    everyone = np.zeros(n, dtype=np.int64)  # every query picks pool entry 0
    decisions = [None] * n
    if method in ("switch-fuse", "switch-only"):
        if store is None:
            raise InvalidInputError(f"{method} requires a calibration store")
        tables = SwitchingTables(store)

        def match_scores(tid, queries):
            return runtime.similarity_rows(tid, queries).max(axis=1)

        pools = (
            [unit.techniques for unit in config.units]
            if method == "switch-fuse"
            else [tuple(config.all_techniques())]
        )
        blocks = [
            select_block(pool, match_scores, tables, config.posterior_threshold, n)
            for pool in pools
        ]
    if method == "switch-fuse":
        predicted, confidence = _best_fused(
            runtime, [(b.techniques, b.selected) for b in blocks], params
        )
        decisions = list(
            zip(*(_unit_decisions(u, b) for u, b in zip(config.units, blocks)))
        )
    elif method == "switch-only":
        predicted, confidence = _best_raw(
            runtime, blocks[0].techniques, blocks[0].selected
        )
    elif method == "fuse-all":
        predicted, confidence = _best_fused(
            runtime, [((tid,), everyone) for tid in config.all_techniques()], params
        )
    elif method.startswith("single:"):
        tid = method.split(":", 1)[1]
        if tid not in config.all_techniques():
            raise InvalidInputError(f"technique {tid!r} not in configuration")
        predicted, confidence = _best_raw(runtime, (tid,), everyone)
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    outcomes = [
        QueryOutcome(q, p, c, False, d)
        for q, (p, c, d) in enumerate(
            zip(predicted.tolist(), confidence.tolist(), decisions)
        )
    ]
    report = score_predictions(outcomes, ground_truth, method=method)
    return with_pr_points(report)


def compare(reports, baseline_method: str = "switch-fuse") -> ComparisonReport:
    """Accuracy/correct-count deltas of every report versus the baseline."""
    by_method = {r.method: r for r in reports}
    if baseline_method not in by_method:
        raise InvalidInputError(f"no report for baseline {baseline_method!r}")
    base = by_method[baseline_method]
    rows = tuple(
        ComparisonRow(
            method=r.method,
            accuracy=r.accuracy,
            correct_count=r.correct_count,
            delta_accuracy=base.accuracy - r.accuracy,
            delta_correct=base.correct_count - r.correct_count,
        )
        for r in reports
    )
    return ComparisonReport(baseline_method=baseline_method, rows=rows)
