"""Min-max normalization of similarity rows and summation fusion.

``normalize_rows`` and ``best_matches`` work on blocks of rows, one query
per row.
"""

from __future__ import annotations

import numpy as np

# normalised rows span [-EPSILON, 1 - EPSILON]
EPSILON = 0.001


def normalize_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rescale every row of a 2-D block to [-EPSILON, 1 - EPSILON], into
    ``out`` (an array of the block's shape) when given, else a new array.

    A constant row carries no ranking information and maps to all zeros,
    contributing nothing to the fused argmax.
    """
    lo = rows.min(axis=1, keepdims=True)
    span = rows.max(axis=1, keepdims=True) - lo
    constant = span == 0.0
    values = np.subtract(rows, lo, out=out)
    values /= np.where(constant, 1.0, span)
    values -= EPSILON
    values[constant[:, 0]] = 0.0
    return values


def best_matches(fused: np.ndarray, contributors: int) -> tuple[np.ndarray, np.ndarray]:
    """The argmax of every row of a fused block (lowest index on ties) and
    its value divided by the contributor count, so that confidences compare
    across queries."""
    idx = fused.argmax(axis=1)
    return idx, fused[np.arange(len(fused)), idx] / contributors
