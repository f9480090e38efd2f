"""Scoring, PR curves and the baseline comparison harness.

``run_method`` drives four method families over a dataset runtime: the full
switch-then-fuse pipeline, a pooled switch-only baseline, fuse-everything,
and single-technique matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationStore
from .descriptors import raw_match_score
from .errors import InvalidInputError
from .fusion import FusionParams, best_match, fuse, normalize
from .switching import (
    SelectedTechniques,
    SimilarityCache,
    TripartiteConfig,
    UnitConfig,
    run_tripartite,
    select_technique,
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
    decisions: SelectedTechniques | None = None


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


def _switch_fuse_outcome(query, runtime, config, store, params):
    selected = run_tripartite(
        config, lambda tid: runtime.similarity(query, tid), store
    )
    normalized = [
        normalize(selected.similarity_cache[tid], params)
        for tid in selected.selected_ids()
    ]
    idx, conf = best_match(fuse(normalized, params))
    return idx, conf, selected


@dataclass(frozen=True)
class _PooledUnit:
    # SwitchHit-style pool: union of all unit techniques, first unit's
    # primary leading, otherwise first-appearance order; exempt from the
    # per-unit size cap that applies to configured units
    label: str
    techniques: tuple[str, ...]


def _pooled_unit(config: TripartiteConfig) -> _PooledUnit:
    return _PooledUnit(label="pooled", techniques=tuple(config.all_techniques()))


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
    ``single:<technique_id>``.  The runtime provides ``query_count`` and
    ``similarity(query_index, technique_id)``.
    """
    outcomes = []
    if method == "switch-fuse":
        if store is None:
            raise InvalidInputError("switch-fuse requires a calibration store")
        for q in range(runtime.query_count):
            idx, conf, selected = _switch_fuse_outcome(
                q, runtime, config, store, params
            )
            outcomes.append(QueryOutcome(q, idx, conf, False, selected))
    elif method == "switch-only":
        if store is None:
            raise InvalidInputError("switch-only requires a calibration store")
        pool = _pooled_unit(config)
        for q in range(runtime.query_count):
            cache = SimilarityCache(lambda tid, q=q: runtime.similarity(q, tid))
            decision = select_technique(
                pool,
                lambda tid: raw_match_score(cache.get(tid)),
                store,
                config.posterior_threshold,
            )
            ms = raw_match_score(cache.get(decision.selected_technique))
            outcomes.append(QueryOutcome(q, ms.best_index, ms.value, False))
    elif method == "fuse-all":
        techniques = config.all_techniques()
        for q in range(runtime.query_count):
            normalized = [
                normalize(runtime.similarity(q, tid), params) for tid in techniques
            ]
            idx, conf = best_match(fuse(normalized, params))
            outcomes.append(QueryOutcome(q, idx, conf, False))
    elif method.startswith("single:"):
        tid = method.split(":", 1)[1]
        if tid not in config.all_techniques():
            raise InvalidInputError(f"technique {tid!r} not in configuration")
        for q in range(runtime.query_count):
            ms = raw_match_score(runtime.similarity(q, tid))
            outcomes.append(QueryOutcome(q, ms.best_index, ms.value, False))
    else:
        raise InvalidInputError(f"unknown method {method!r}")
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
