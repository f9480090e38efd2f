"""Posterior computation, complementarity scoring and the per-unit
switching loop that picks one technique per unit of the configured model.

``select_block`` runs one unit's loop for a whole block of queries, reading
posteriors and complementarity terms from per-bin tables that
``SwitchingTables`` compiles from the calibration store on first use.
``select_technique`` and ``run_tripartite`` are the per-query scalar forms of
the same loop; they serve as the oracle the block loop is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import (
    MATCH,
    MISMATCH,
    CalibrationStore,
    MassTable,
    PairCalibration,
    TechniqueCalibration,
)
from .descriptors import MatchScore, SimilarityVector, raw_match_score
from .errors import InvalidInputError, UndefinedEvidenceError


@dataclass(frozen=True)
class UnitConfig:
    """One unit: an ordered technique pool, first entry is the primary."""

    label: str
    techniques: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.techniques) <= 8):
            raise InvalidInputError(
                f"unit {self.label!r} must hold 1..8 techniques"
            )
        if len(set(self.techniques)) != len(self.techniques):
            raise InvalidInputError(f"unit {self.label!r} repeats a technique")
        object.__setattr__(self, "techniques", tuple(self.techniques))


@dataclass(frozen=True)
class TripartiteConfig:
    """Ordered units of the switching model (three by default, 1..8 allowed)."""

    units: tuple[UnitConfig, ...]
    posterior_threshold: float = 0.5

    def __post_init__(self):
        if not (1 <= len(self.units) <= 8):
            raise InvalidInputError("configuration must hold 1..8 units")
        if not (0.0 < self.posterior_threshold < 1.0):
            raise InvalidInputError("posterior threshold must lie in (0, 1)")
        object.__setattr__(self, "units", tuple(self.units))

    def all_techniques(self) -> list[str]:
        """Distinct techniques in first-appearance order."""
        seen: list[str] = []
        for unit in self.units:
            for tid in unit.techniques:
                if tid not in seen:
                    seen.append(tid)
        return seen


@dataclass(frozen=True)
class ComplementarityScore:
    """Likelihood-ratio score ranking candidate techniques; positive but
    unbounded, used only for ordering."""

    primary_id: str
    candidate_id: str
    value: float


@dataclass(frozen=True)
class TraceStep:
    technique_id: str
    posterior: float
    complementarities: tuple[ComplementarityScore, ...] = ()


@dataclass(frozen=True)
class UnitDecision:
    unit_label: str
    selected_technique: str
    selected_posterior: float
    fallback_used: bool
    trace: tuple[TraceStep, ...] = ()  # filled by the scalar loop only


@dataclass(frozen=True)
class SelectedTechniques:
    """One decision per unit plus every similarity vector computed on the way."""

    decisions: tuple[UnitDecision, ...]
    similarity_cache: dict[str, SimilarityVector]

    def selected_ids(self) -> list[str]:
        """Selected techniques in unit order; duplicates kept."""
        return [d.selected_technique for d in self.decisions]


def posterior_match(prior: float, lik_m: float, lik_mm: float) -> float:
    """Posterior probability of a correct match given the score evidence."""
    if not (0.0 < prior < 1.0):
        raise InvalidInputError("prior must lie strictly in (0, 1)")
    if lik_m < 0 or lik_mm < 0:
        raise InvalidInputError("likelihoods must be nonnegative")
    num = prior * lik_m
    den = num + (1.0 - prior) * lik_mm
    if not den > 0.0:  # zero, or NaN from an unsmoothed empty histogram
        raise UndefinedEvidenceError("both likelihood terms are zero")
    return num / den


def complementarity(
    pair_ab: PairCalibration,
    self_calib: TechniqueCalibration,
    score: float,
) -> ComplementarityScore:
    """Ratio favouring candidate B when the current technique scores
    ``score``: own-match times B-match likelihood over the mismatch pair."""
    p_m_a = self_calib.histogram.mass(score, MATCH)
    p_mm_a = self_calib.histogram.mass(score, MISMATCH)
    p_m_b = pair_ab.histogram.mass(score, MATCH)
    p_mm_b = pair_ab.histogram.mass(score, MISMATCH)
    num = p_m_a * p_m_b
    den = p_mm_a * p_mm_b
    # NaN terms come from an unsmoothed histogram with no counts
    if not den > 0.0 or num != num:
        raise UndefinedEvidenceError("zero mismatch likelihood product")
    return ComplementarityScore(
        primary_id=self_calib.technique_id,
        candidate_id=pair_ab.candidate_id,
        value=num / den,
    )


def technique_posterior(
    calib: TechniqueCalibration, score: float
) -> float:
    lm = calib.histogram.mass(score, MATCH)
    lmm = calib.histogram.mass(score, MISMATCH)
    return posterior_match(calib.prior_match, lm, lmm)


def select_technique(
    unit: UnitConfig,
    match_score_of,
    store: CalibrationStore,
    threshold: float = 0.5,
) -> UnitDecision:
    """Run the dynamic switching loop for one unit.

    ``match_score_of(technique_id)`` returns that technique's MatchScore for
    the current query.  Starting from the primary, a technique is accepted
    when its posterior strictly exceeds ``threshold``; otherwise the loop
    hops to the unvisited candidate with the highest complementarity from
    the current technique.  If the pool is exhausted the highest-posterior
    visited technique is selected with ``fallback_used`` set.  Ties break to
    the earlier position in the unit's configured order.
    """
    order = {tid: i for i, tid in enumerate(unit.techniques)}
    visited: set[str] = set()
    trace: list[TraceStep] = []
    current = unit.techniques[0]
    while True:
        visited.add(current)
        calib = store.technique(current)
        score = match_score_of(current).value
        post = technique_posterior(calib, score)
        if post > threshold:
            trace.append(TraceStep(current, post))
            return UnitDecision(
                unit_label=unit.label,
                selected_technique=current,
                selected_posterior=post,
                fallback_used=False,
                trace=tuple(trace),
            )
        remaining = [t for t in unit.techniques if t not in visited]
        comps = tuple(
            complementarity(store.pair(current, cand), calib, score)
            for cand in remaining
        )
        trace.append(TraceStep(current, post, comps))
        if not remaining:
            best = max(trace, key=lambda s: (s.posterior, -order[s.technique_id]))
            return UnitDecision(
                unit_label=unit.label,
                selected_technique=best.technique_id,
                selected_posterior=best.posterior,
                fallback_used=True,
                trace=tuple(trace),
            )
        best_comp = max(comps, key=lambda c: (c.value, -order[c.candidate_id]))
        current = best_comp.candidate_id


@dataclass(frozen=True)
class PosteriorTable:
    """A technique's masses and its posterior of a correct match per score
    bin; NaN marks a bin whose evidence is undefined."""

    masses: MassTable
    posterior: np.ndarray


def _posterior_table(calib: TechniqueCalibration) -> PosteriorTable:
    prior = calib.prior_match
    if not (0.0 < prior < 1.0):
        raise InvalidInputError(
            f"{calib.technique_id}: prior must lie strictly in (0, 1)"
        )
    masses = MassTable.of(calib.histogram)
    if np.any(masses.matched < 0) or np.any(masses.mismatched < 0):
        raise InvalidInputError(
            f"{calib.technique_id}: likelihoods must be nonnegative"
        )
    # the expressions of posterior_match, one bin per element
    num = prior * masses.matched
    den = num + (1.0 - prior) * masses.mismatched
    with np.errstate(divide="ignore", invalid="ignore"):
        posterior = np.where(den > 0.0, num / den, np.nan)
    return PosteriorTable(masses, posterior)


class SwitchingTables:
    """Per-bin lookup tables of a calibration store, each compiled on the
    first use of its technique or ordered pair."""

    def __init__(self, store: CalibrationStore):
        self.store = store
        self._techniques: dict[str, PosteriorTable] = {}
        self._pairs: dict[tuple[str, str], MassTable] = {}

    def technique(self, technique_id: str) -> PosteriorTable:
        table = self._techniques.get(technique_id)
        if table is None:
            table = _posterior_table(self.store.technique(technique_id))
            self._techniques[technique_id] = table
        return table

    def pair(self, primary_id: str, candidate_id: str) -> MassTable:
        key = (primary_id, candidate_id)
        table = self._pairs.get(key)
        if table is None:
            table = MassTable.of(self.store.pair(*key).histogram)
            self._pairs[key] = table
        return table


@dataclass(frozen=True)
class BlockDecisions:
    """One unit's decisions for a block of queries, one entry per query."""

    techniques: tuple[str, ...]
    selected: np.ndarray  # int64 index into ``techniques``
    posterior: np.ndarray  # float64, posterior of the selected technique
    fallback: np.ndarray  # bool
    hops: np.ndarray  # int64, techniques visited minus one


def select_block(
    techniques,
    match_scores,
    tables: SwitchingTables,
    threshold: float,
    query_count: int,
) -> BlockDecisions:
    """Run one unit's switching loop for queries 0..query_count-1 at once.

    ``techniques`` is the ordered pool, primary first; unlike a configured
    unit it may hold more than eight (the pooled switch-only baseline).
    ``match_scores(technique_id, queries)`` returns the maximum similarity
    of each listed query and is asked only for queries that visit the
    technique.  Each pass moves every undecided query one technique along,
    so a pool of k techniques takes at most k passes.  Acceptance, hops,
    fallback, tie-breaks and errors are those of ``select_technique``,
    which this reproduces decision for decision and bit for bit.
    """
    techniques = tuple(techniques)
    k = len(techniques)
    selected = np.zeros(query_count, dtype=np.int64)
    posterior = np.zeros(query_count)
    fallback = np.zeros(query_count, dtype=bool)
    hops = np.zeros(query_count, dtype=np.int64)
    current = np.zeros(query_count, dtype=np.int64)
    visited = np.zeros((query_count, k), dtype=bool)
    best_posterior = np.full(query_count, -np.inf)
    best_at = np.zeros(query_count, dtype=np.int64)
    undecided = np.arange(query_count)
    while len(undecided):
        moved = []
        at = current[undecided]
        for t in np.unique(at).tolist():
            group = undecided[at == t]
            tid = techniques[t]
            table = tables.technique(tid)
            scores = match_scores(tid, group)
            bins = table.masses.histogram.bin_indices(scores)
            post = table.posterior[bins]
            undefined = np.isnan(post)
            if undefined.any():
                raise UndefinedEvidenceError(
                    f"query {group[undefined.argmax()]}: {tid}: both "
                    "likelihood terms are zero"
                )
            accept = post > threshold
            selected[group[accept]] = t
            posterior[group[accept]] = post[accept]

            keep = ~accept
            group, post, bins, scores = group[keep], post[keep], bins[keep], scores[keep]
            held = best_posterior[group]
            better = (post > held) | ((post == held) & (t < best_at[group]))
            best_posterior[group[better]] = post[better]
            best_at[group[better]] = t
            visited[group, t] = True
            open_ = ~visited[group]
            exhausted = ~open_.any(axis=1)
            done = group[exhausted]
            selected[done] = best_at[done]
            posterior[done] = best_posterior[done]
            fallback[done] = True

            keep = ~exhausted
            group, bins, scores, open_ = group[keep], bins[keep], scores[keep], open_[keep]
            if not len(group):
                continue
            # complementarity from tid to every open candidate; -inf elsewhere
            comp = np.full(open_.shape, -np.inf)
            p_m_a = table.masses.matched[bins]
            p_mm_a = table.masses.mismatched[bins]
            for c in np.flatnonzero(open_.any(axis=0)).tolist():
                rows = open_[:, c]
                pair = tables.pair(tid, techniques[c])
                pair_bins = pair.histogram.bin_indices(scores[rows])
                num = p_m_a[rows] * pair.matched[pair_bins]
                den = p_mm_a[rows] * pair.mismatched[pair_bins]
                bad = ~(den > 0.0) | np.isnan(num)
                if bad.any():
                    raise UndefinedEvidenceError(
                        f"query {group[rows][bad.argmax()]}: ({tid}, "
                        f"{techniques[c]}): zero mismatch likelihood product"
                    )
                comp[rows, c] = num / den
            current[group] = comp.argmax(axis=1)
            hops[group] += 1
            moved.append(group)
        undecided = np.concatenate(moved) if moved else undecided[:0]
    return BlockDecisions(techniques, selected, posterior, fallback, hops)


def run_tripartite(
    config: TripartiteConfig,
    similarity_fn,
    store: CalibrationStore,
) -> SelectedTechniques:
    """Evaluate every unit independently for one query.

    ``similarity_fn(technique_id)`` returns the query's SimilarityVector for
    that technique; it is invoked at most once per technique across all
    units via a shared cache.  Units selecting the same technique keep their
    duplicates in the output.
    """
    cache: dict[str, SimilarityVector] = {}

    def match_score_of(tid: str) -> MatchScore:
        if tid not in cache:
            cache[tid] = similarity_fn(tid)
        return raw_match_score(cache[tid])

    decisions = tuple(
        select_technique(unit, match_score_of, store, config.posterior_threshold)
        for unit in config.units
    )
    return SelectedTechniques(decisions=decisions, similarity_cache=cache)
