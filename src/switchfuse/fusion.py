"""Min-max normalization of similarity vectors and summation fusion.

``normalize_rows`` and ``best_matches`` work on blocks of rows, one query
per row; ``normalize``, ``fuse`` and ``best_match`` are their per-query
forms, kept as the oracle the block forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import SimilarityVector
from .errors import InvalidInputError


@dataclass(frozen=True)
class FusionParams:
    epsilon: float = 0.001

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise InvalidInputError("epsilon must lie in (0, 0.5)")


@dataclass(frozen=True)
class NormalizedVector:
    technique_id: str
    values: np.ndarray


@dataclass(frozen=True)
class FusedVector:
    values: np.ndarray
    contributing: tuple[str, ...]


def normalize(sim: SimilarityVector, params: FusionParams = FusionParams()) -> NormalizedVector:
    """Rescale scores to [-epsilon, 1 - epsilon].

    A constant vector carries no ranking information and maps to all zeros,
    contributing nothing to the fused argmax.
    """
    scores = sim.scores
    if len(scores) == 0:
        raise InvalidInputError("empty similarity vector")
    lo = scores.min()
    hi = scores.max()
    if hi == lo:
        values = np.zeros_like(scores)
    else:
        values = (scores - lo) / (hi - lo) - params.epsilon
    return NormalizedVector(technique_id=sim.technique_id, values=values)


def fuse(vectors, params: FusionParams = FusionParams()) -> FusedVector:
    """Elementwise sum of normalized vectors (1..8 contributors)."""
    vectors = list(vectors)
    if not vectors:
        raise InvalidInputError("fusion needs at least one vector")
    length = len(vectors[0].values)
    for v in vectors:
        if len(v.values) != length:
            raise InvalidInputError("fused vectors must share length")
    total = np.zeros(length)
    for v in vectors:
        total = total + v.values
    return FusedVector(values=total, contributing=tuple(v.technique_id for v in vectors))


def best_match(fused: FusedVector) -> tuple[int, float]:
    """Argmax of the fused vector (lowest index on ties) and a confidence
    rescaled by contributor count so thresholds compare across queries."""
    if len(fused.values) == 0:
        raise InvalidInputError("empty fused vector")
    idx = int(np.argmax(fused.values))
    confidence = float(fused.values[idx]) / len(fused.contributing)
    return idx, confidence


def normalize_rows(rows: np.ndarray, params: FusionParams = FusionParams()) -> np.ndarray:
    """``normalize`` applied to every row of a 2-D block, bit for bit; a
    constant row maps to all zeros."""
    lo = rows.min(axis=1, keepdims=True)
    span = rows.max(axis=1, keepdims=True) - lo
    constant = span == 0.0
    values = (rows - lo) / np.where(constant, 1.0, span) - params.epsilon
    values[constant[:, 0]] = 0.0
    return values


def best_matches(fused: np.ndarray, contributors: int) -> tuple[np.ndarray, np.ndarray]:
    """``best_match`` of every row of a fused block: the argmax (lowest index
    on ties) and its value divided by the contributor count."""
    idx = fused.argmax(axis=1)
    return idx, fused[np.arange(len(fused)), idx] / contributors
