"""Prediction, scoring, PR curves and the baseline comparison harness.

``run_method`` predicts with one of four method families over a dataset
runtime, reading no ground truth: the full switch-then-fuse pipeline, a
pooled switch-only baseline, fuse-everything, and single-technique
matching.  ``score_outcomes``, the one scorer, turns its columns into an
``EvaluationReport``; ``compare_methods`` runs and scores every family in
comparison order.  Every family handles all queries at once.  Switching and
the raw-score baselines read the runtime's best-match columns
(``matches``); only fusion reads similarity rows, a tile at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .calibration import CalibrationStore
from .errors import InvalidInputError
from .fusion import best_matches, normalize_rows
from .switching import BlockDecisions, TripartiteConfig, select_block


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Acceptable reference indices per query, held as one key
    ``query * reference_count + reference`` per accepted pair, sorted (so
    in query order).  Build one with ``from_sets`` or ``from_window``."""

    keys: np.ndarray  # int64
    query_count: int
    reference_count: int

    @cached_property
    def accepted(self) -> tuple[frozenset[int], ...]:
        """One frozenset of acceptable references per query, built from the
        keys on first read."""
        owner, refs = np.divmod(self.keys, self.reference_count)
        ends = np.searchsorted(owner, np.arange(self.query_count), "right")
        refs = refs.tolist()
        starts = [0, *ends[:-1].tolist()]
        return tuple(frozenset(refs[a:b]) for a, b in zip(starts, ends.tolist()))

    def correct(self, predicted) -> np.ndarray:
        """Whether each query's prediction is an accepted reference:
        ``predicted[i]`` is query i's predicted reference.  Out-of-range
        references are never correct."""
        predicted = np.asarray(predicted, dtype=np.int64)
        if predicted.shape != (self.query_count,):
            raise InvalidInputError(
                f"{predicted.shape} predictions for {self.query_count} queries"
            )
        if not len(self.keys):
            return np.zeros(self.query_count, dtype=bool)
        in_range = (predicted >= 0) & (predicted < self.reference_count)
        keys = np.arange(self.query_count) * self.reference_count + predicted
        at = np.searchsorted(self.keys, keys)
        return in_range & (self.keys.take(at, mode="clip") == keys)

    @classmethod
    def from_sets(cls, sets, reference_count: int) -> "GroundTruth":
        """Ground truth from one collection (a set or a list; a repeated
        reference counts once) of acceptable references per query."""
        sets = list(sets)
        n, r = len(sets), reference_count
        counts = np.fromiter(map(len, sets), np.int64, n)
        try:
            refs = np.fromiter(chain.from_iterable(sets), np.int64, counts.sum())
        except OverflowError:  # a reference past int64 is out of range anyway
            flat = chain.from_iterable(sets)
            refs = np.array([min(max(ref, -1), r) for ref in flat], dtype=np.int64)
        owner = np.repeat(np.arange(n, dtype=np.int64), counts)
        outside = np.zeros(n, dtype=bool)
        outside[owner[(refs < 0) | (refs >= r)]] = True
        bad = outside | (counts == 0)
        if bad.any():  # the first bad query fails, as a per-query loop would
            i = int(np.argmax(bad))
            if outside[i]:
                raise InvalidInputError(f"query {i} references out of range")
            raise InvalidInputError(f"query {i} has no acceptable reference")
        return cls(np.unique(owner * r + refs), n, r)

    @classmethod
    def from_window(
        cls, query_count: int, reference_count: int, k: int = 1
    ) -> "GroundTruth":
        """Aligned-traverse ground truth: query i accepts references i±k."""
        # a window wider than both lists accepts what one that spans them
        # does, and every negative window is empty
        k = max(min(k, query_count + reference_count), -1)
        queries = np.arange(query_count, dtype=np.int64)
        lo = np.maximum(queries - k, 0)
        counts = np.minimum(queries + k, reference_count - 1) - lo + 1
        if len(counts) and counts.min() < 1:
            raise InvalidInputError("window ground truth out of range")
        owner = np.repeat(queries, counts)
        # each query's references run up from its lo
        step = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        keys = owner * reference_count + lo[owner] + step
        return cls(keys, len(queries), reference_count)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """One method's scored per-query records as parallel columns, row i
    being query i.  Its PR points are swept over them on first read."""

    method: str
    predicted: np.ndarray  # int64
    confidence: np.ndarray  # float64
    correct: np.ndarray  # bool

    @cached_property
    def pr_points(self) -> tuple[tuple[float, float, float], ...]:
        """(precision, recall, threshold) points that the function
        ``pr_points`` sweeps over the confidence and correct columns."""
        return tuple(pr_points(self.confidence, self.correct))

    @property
    def query_count(self) -> int:
        return len(self.correct)

    @property
    def correct_count(self) -> int:
        return int(self.correct.sum())

    @property
    def accuracy(self) -> float:
        return self.correct_count / self.query_count


def pr_points(confidence, correct) -> list[tuple[float, float, float]]:
    """Precision/recall points swept over distinct confidences, descending.

    At each threshold t the attempted set is every row with confidence
    >= t.  Rank by descending confidence (stable), count hits cumulatively,
    and close a point at the last row of each run of equal confidences,
    with the run's first confidence as its threshold.
    """
    confidence = np.asarray(confidence, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidence.ndim != 1 or correct.shape != confidence.shape:
        raise InvalidInputError("confidence and correct must be aligned 1-D columns")
    if not len(confidence):
        raise InvalidInputError("no outcomes to sweep")
    if not np.all(np.isfinite(confidence)):
        raise InvalidInputError("confidences must be finite")
    order = np.argsort(-confidence, kind="stable")
    ranked = confidence[order]
    hits = np.cumsum(correct[order])
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    first = np.append(0, last[:-1] + 1)
    hits = hits[last]
    return list(
        zip(
            (hits / (last + 1)).tolist(),
            (hits / len(ranked)).tolist(),
            ranked[first].tolist(),
        )
    )


def score_outcomes(
    queries,
    predicted,
    confidence,
    ground_truth: GroundTruth,
    method: str = "",
) -> EvaluationReport:
    """Score per-query columns: row j is query ``queries[j]``'s prediction.

    The query indices must be exactly 0..Q-1, each once, and every predicted
    reference must lie in 0..R-1, and every confidence must be finite, as
    the PR sweep needs.  The report holds the rows in query order, with
    their correctness.
    """
    queries = np.asarray(queries, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    confidence = np.asarray(confidence, dtype=np.float64)
    count = ground_truth.query_count
    if not queries.shape == predicted.shape == confidence.shape == (count,):
        raise InvalidInputError(f"{len(queries)} outcomes for {count} queries")
    order = np.argsort(queries, kind="stable")
    if not np.array_equal(queries[order], np.arange(count)):
        raise InvalidInputError(
            f"outcome query indices must be 0..{count - 1}, each once"
        )
    predicted = predicted[order]
    outside = (predicted < 0) | (predicted >= ground_truth.reference_count)
    if outside.any():
        q = int(np.argmax(outside))
        raise InvalidInputError(
            f"query {q}: predicted reference {predicted[q]} outside "
            f"0..{ground_truth.reference_count - 1}"
        )
    if not count:
        raise InvalidInputError("no outcomes to sweep")
    confidence = confidence[order]
    if not np.all(np.isfinite(confidence)):
        raise InvalidInputError("confidences must be finite")
    correct = ground_truth.correct(predicted)
    return EvaluationReport(method, predicted, confidence, correct)


def _picked(pool, choice):
    """(technique, the queries that picked it) for each technique of
    ``pool`` some query picked; ``choice`` holds each query's index into
    it."""
    for i, tid in enumerate(pool):
        queries = np.flatnonzero(choice == i)
        if len(queries):
            yield tid, queries


def _best_raw(runtime, pool, choice):
    """Each query's best reference and match score under its picked
    technique."""
    predicted = np.empty(len(choice), dtype=np.int64)
    confidence = np.empty(len(choice))
    for tid, queries in _picked(pool, choice):
        predicted[queries], confidence[queries] = runtime.matches(tid, queries)
    return predicted, confidence


# queries fused at a time: fusion's two buffers of this many rows stay in
# cache and take no fresh pages per call; on R = 200, 32-row tiles ran
# slower than whole-Q buffers, and 128 and 256 fastest
_FUSE_TILE = 128


def _best_fused(runtime, picks):
    """Min-max normalise and sum each query's picked similarity rows, one
    contributor at a time in order, then take the best reference.

    ``picks`` holds one (technique pool, per-query index into it) pair per
    contributor.  Each contributor's picked rows are scored once; then the
    queries go in tiles of ``_FUSE_TILE``.  For each tile, every
    contributor's picked rows are copied from the runtime into one tile
    buffer, normalised there in place and added to the tile's total, so
    every sum keeps its contributor order and no buffer grows with Q.
    """
    n = runtime.query_count
    contributors = [list(_picked(pool, choice)) for pool, choice in picks]
    for tid, queries in chain.from_iterable(contributors):
        runtime.score([tid], queries)
    total = np.empty((min(n, _FUSE_TILE), runtime.reference_count))
    unit = np.empty_like(total)
    predicted = np.empty(n, dtype=np.int64)
    confidence = np.empty(n)
    for lo in range(0, n, _FUSE_TILE):
        hi = min(lo + _FUSE_TILE, n)
        tile_total, tile_unit = total[: hi - lo], unit[: hi - lo]
        tile_total.fill(0.0)
        for picked in contributors:
            for tid, queries in picked:
                a, b = np.searchsorted(queries, (lo, hi)).tolist()
                if b - a == hi - lo:  # every query of the tile picked tid
                    runtime.copy_rows(tid, queries[a:b], tile_unit)
                elif b > a:
                    runtime.copy_rows(tid, queries[a:b], tile_unit, queries[a:b] - lo)
            normalize_rows(tile_unit, out=tile_unit)
            tile_total += tile_unit
        predicted[lo:hi], confidence[lo:hi] = best_matches(tile_total, len(picks))
    return predicted, confidence


def run_method(
    method: str,
    runtime,
    config: TripartiteConfig,
    store: CalibrationStore | None,
) -> tuple[np.ndarray, np.ndarray, tuple[BlockDecisions, ...] | None]:
    """Predict with one method family for every query of a dataset runtime,
    reading no ground truth: the columns (predicted, confidence, decisions),
    row i being query i.  ``decisions`` holds one ``BlockDecisions`` per
    unit, in unit order, for switch-fuse, and is None for the other methods.

    ``method`` is ``switch-fuse``, ``switch-only``, ``fuse-all`` or
    ``single:<technique_id>``.  The runtime is a ``DatasetRuntime``: it
    provides ``query_count``, ``reference_count``, ``score``,
    ``copy_rows``, which fusion reads rows with, and
    ``matches(technique_id, queries)``, each query's (best reference,
    match score).
    Switch-only runs one unit pooling every configured technique, first
    unit's primary leading, exempt from the eight-technique unit cap.
    """
    n = runtime.query_count
    everyone = np.zeros(n, dtype=np.int64)  # every query picks pool entry 0
    if method in ("switch-fuse", "switch-only"):
        if store is None:
            raise InvalidInputError(f"{method} requires a calibration store")

        def match_scores(tid, queries):
            return runtime.matches(tid, queries)[1]

        pools = (
            [unit.techniques for unit in config.units]
            if method == "switch-fuse"
            else [tuple(config.all_techniques())]
        )
        # every query visits every pool's primary, so one call scores them
        # all and the runtime shares their image decodes; each primary's
        # calibration is looked up first, as select_block would before
        # scoring it
        primaries = [pool[0] for pool in pools]
        for tid in primaries:
            store.technique(tid)
        runtime.score(primaries, range(n))
        blocks = [
            select_block(pool, match_scores, store, config.posterior_threshold, n)
            for pool in pools
        ]
    if method == "switch-fuse":
        predicted, confidence = _best_fused(
            runtime, [(b.techniques, b.selected) for b in blocks]
        )
        # the blocks hold their rows in query order, as the columns do
        return predicted, confidence, tuple(blocks)
    if method == "switch-only":
        predicted, confidence = _best_raw(
            runtime, blocks[0].techniques, blocks[0].selected
        )
    elif method == "fuse-all":
        predicted, confidence = _best_fused(
            runtime, [((tid,), everyone) for tid in config.all_techniques()]
        )
    elif method.startswith("single:"):
        tid = method.split(":", 1)[1]
        if tid not in config.all_techniques():
            raise InvalidInputError(f"technique {tid!r} not in configuration")
        predicted, confidence = _best_raw(runtime, (tid,), everyone)
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    return predicted, confidence, None


def compare_methods(
    runtime,
    config: TripartiteConfig,
    store: CalibrationStore,
    ground_truth: GroundTruth,
) -> list[EvaluationReport]:
    """Every method family's report over one runtime, in comparison order:
    switch-fuse, switch-only, fuse-all, then ``single:<technique_id>`` in
    ``config.all_techniques()`` order.

    Fuse-all reads every row and the single-technique methods every best
    match, so one ``runtime.score`` call scores every technique's whole
    block before any method runs.
    """
    techniques = config.all_techniques()
    runtime.score(techniques, range(runtime.query_count))
    methods = ["switch-fuse", "switch-only", "fuse-all"]
    methods += [f"single:{tid}" for tid in techniques]
    queries = np.arange(runtime.query_count)
    reports = []
    for m in methods:
        predicted, confidence, _ = run_method(m, runtime, config, store)
        reports.append(score_outcomes(queries, predicted, confidence, ground_truth, m))
    return reports
