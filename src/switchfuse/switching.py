"""Posterior computation, complementarity scoring and the per-unit
switching loop that picks one technique per unit of the configured model.

``select_block`` runs one unit's loop for a whole block of queries, reading
posteriors and complementarity terms from the per-bin tables each record of
the calibration store compiles on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationStore
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
    store: CalibrationStore,
    threshold: float,
    query_count: int,
) -> BlockDecisions:
    """Run one unit's switching loop for queries 0..query_count-1 at once.

    ``techniques`` is the ordered pool, primary first; unlike a configured
    unit it may hold more than eight (the pooled switch-only baseline).
    ``match_scores(technique_id, queries)`` returns the match score of
    each listed query, the value at the first maximum of its similarity
    row, and is asked only for queries that visit the technique.
    Posteriors and complementarity terms are read per score bin from the
    tables of ``store``'s records, each compiled on first use and kept by
    the record.  Starting from the primary, a technique is accepted when
    its posterior strictly exceeds ``threshold``; otherwise the query hops
    to the unvisited candidate with the highest complementarity from the
    current technique.  A query that exhausts the pool takes its
    highest-posterior visited technique, with ``fallback`` set.  Ties break
    to the earlier position in the pool.  Each pass moves every undecided
    query one technique along, so a pool of k techniques takes at most k
    passes.
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
            calib = store.technique(tid)
            scores = match_scores(tid, group)
            bins = calib.histogram.bin_indices(scores)
            post = calib.posterior[bins]
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
            p_m_a = calib.histogram.matched_masses[bins]
            p_mm_a = calib.histogram.mismatched_masses[bins]
            for c in np.flatnonzero(open_.any(axis=0)).tolist():
                rows = open_[:, c]
                pair = store.pair(tid, techniques[c])
                pair_bins = pair.bin_indices(scores[rows])
                num = p_m_a[rows] * pair.matched_masses[pair_bins]
                den = p_mm_a[rows] * pair.mismatched_masses[pair_bins]
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

