"""Priors and binned score likelihoods estimated from labeled calibration runs.

A technique's calibration holds its empirical prior of correct match plus a
histogram of match scores split by outcome; pair calibrations hold the same
histogram shape but split the primary technique's score by whether a candidate
technique matched the same query.  Smoothing is Laplace with configurable
alpha, applied lazily at lookup time so stored counts stay exact integers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    FormatError,
    IncompleteCalibrationError,
    InsufficientDataError,
    InvalidInputError,
)
from .files import write_atomic

DEFAULT_BINS = 20
DEFAULT_ALPHA = 1.0
DEFAULT_MIN_SAMPLES = 10
PRIOR_CLAMP = (0.01, 0.99)

SFCAL_MAGIC = b"SFCAL1\0\0"


@dataclass(frozen=True)
class LikelihoodHistogram:
    """Equal-width score histogram with per-hypothesis counts."""

    bin_count: int
    lo: float
    hi: float
    counts_matched: np.ndarray  # int64, length bin_count
    counts_mismatched: np.ndarray
    smoothing_alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.bin_count < 2:
            raise InvalidInputError("bin_count must be at least 2")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInputError("histogram range must be finite")
        if not self.hi > self.lo:
            raise InvalidInputError("histogram range must have hi > lo")
        if not 0.0 <= self.smoothing_alpha < math.inf:  # NaN fails both
            raise InvalidInputError("smoothing_alpha must be finite and >= 0")
        for name in ("counts_matched", "counts_mismatched"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.shape != (self.bin_count,):
                raise InvalidInputError(f"{name} must have length bin_count")
            # argmin, unlike min, runs no Python code; a store loads
            # hundreds of histograms
            if arr[arr.argmin()] < 0:
                raise InvalidInputError(f"{name} must be >= 0")
            object.__setattr__(self, name, arr)

    def bin_indices(self, scores: np.ndarray) -> np.ndarray:
        """Bin of every score in a finite float64 array; scores outside
        [lo, hi] clamp to the edge bins."""
        return _bin_indices(scores, self.lo, self.hi, self.bin_count)

    @cached_property
    def matched_masses(self) -> np.ndarray:
        """Smoothed mass of every bin under a correct match, compiled on
        first read: ``matched_masses[h.bin_indices(s)]`` is the match
        likelihood of every score ``s``.  Sums to 1 when alpha > 0 or
        counts > 0."""
        return self._smoothed(self.counts_matched)

    @cached_property
    def mismatched_masses(self) -> np.ndarray:
        """``matched_masses`` under a wrong match."""
        return self._smoothed(self.counts_mismatched)

    def _smoothed(self, counts: np.ndarray) -> np.ndarray:
        a = self.smoothing_alpha
        # an unsmoothed histogram without counts gives NaN masses, which
        # the switching loop reports as undefined evidence
        with np.errstate(invalid="ignore"):
            return (counts + a) / (counts.sum() + a * self.bin_count)


def _bin_indices(scores: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """Equal-width bin over [lo, hi] of every finite score, clamped to
    0..bins-1."""
    with np.errstate(over="ignore"):
        # dividing by the span, not the bin width, keeps subnormal spans
        # from overflowing; a score at or below lo gives a quotient <= 0
        # and one at or above hi a quotient >= B - 1 (or inf), so the
        # clip is the edge clamp
        quotient = bins * (scores - lo) / (hi - lo)
    return np.clip(quotient, 0, bins - 1).astype(np.int64)


@dataclass(frozen=True)
class TechniqueCalibration:
    technique_id: str
    prior_match: float
    histogram: LikelihoodHistogram
    sample_count: int

    def __post_init__(self):
        if not 0.0 < self.prior_match < 1.0:  # NaN fails both
            raise InvalidInputError(
                f"{self.technique_id}: prior must lie strictly in (0, 1)"
            )

    @cached_property
    def posterior(self) -> np.ndarray:
        """Posterior of a correct match in every score bin, by Bayes' rule,
        compiled on first read; NaN marks a bin whose evidence is
        undefined."""
        prior = self.prior_match
        num = prior * self.histogram.matched_masses
        den = num + (1.0 - prior) * self.histogram.mismatched_masses
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0.0, num / den, np.nan)


def _score_range(technique_id: str, scores: np.ndarray) -> tuple[float, float]:
    """The scores' range widened by 1% per side, or by 0.5 around one value;
    a range that rounds to empty or overflows float64 cannot be binned."""
    lo, hi = float(scores.min()), float(scores.max())
    pad = 0.5 if hi == lo else 0.01 * (hi - lo)
    if not 0.0 < (hi + pad) - (lo - pad) < math.inf:
        raise InvalidInputError(
            f"{technique_id}: calibration scores from {lo} to {hi} cannot be binned"
        )
    return lo - pad, hi + pad


def _offsets(flags: np.ndarray, bins: int) -> np.ndarray:
    """``(2·k + mismatched)·bins`` of every outcome of the (K, Q) flags: the
    first code of the histogram half that outcome counts in."""
    return (2 * np.arange(len(flags))[:, None] + ~flags) * bins


def _histograms(
    technique_id: str,
    scores: np.ndarray,
    offsets: np.ndarray,
    bins: int,
    alpha: float,
) -> list[LikelihoodHistogram]:
    """One histogram of ``scores`` per row of the (K, Q) ``_offsets`` of K
    outcome columns, all over the scores' range, from one binning and one
    count: score ``i`` under row ``k`` counts at ``offsets[k, i] + bin``."""
    lo, hi = _score_range(technique_id, scores)
    codes = offsets + _bin_indices(scores, lo, hi, bins)
    counts = np.bincount(codes.ravel(), minlength=2 * len(offsets) * bins)
    return [
        LikelihoodHistogram(
            bin_count=bins,
            lo=lo,
            hi=hi,
            counts_matched=matched,
            counts_mismatched=mismatched,
            smoothing_alpha=alpha,
        )
        for matched, mismatched in counts.reshape(len(offsets), 2, bins)
    ]


def _check_samples(scores, flags, min_samples):
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags)
    if scores.ndim != 1 or flags.shape != scores.shape:
        raise InvalidInputError(
            f"scores {scores.shape} and flags {flags.shape} must be aligned 1-D arrays"
        )
    if flags.size and flags.dtype != bool:
        raise InvalidInputError(f"correct flags must be boolean, not {flags.dtype}")
    if len(scores) < min_samples:
        raise InsufficientDataError(
            f"{len(scores)} samples, need at least {min_samples}"
        )
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError("calibration scores must be finite")
    return scores, flags


@dataclass
class CalibrationStore:
    """Complete calibration for every technique and ordered pair in use.

    ``pairs[(primary, candidate)]`` histograms the primary technique's
    score split by the candidate's outcome.
    """

    techniques: dict[str, TechniqueCalibration] = field(default_factory=dict)
    pairs: dict[tuple[str, str], LikelihoodHistogram] = field(default_factory=dict)

    def technique(self, technique_id: str) -> TechniqueCalibration:
        try:
            return self.techniques[technique_id]
        except KeyError:
            raise IncompleteCalibrationError(
                f"no calibration for technique {technique_id!r}"
            ) from None

    def pair(self, primary_id: str, candidate_id: str) -> LikelihoodHistogram:
        try:
            return self.pairs[(primary_id, candidate_id)]
        except KeyError:
            raise IncompleteCalibrationError(
                f"no pair calibration for ({primary_id!r}, {candidate_id!r})"
            ) from None


def build_store(
    run: dict[str, tuple[np.ndarray, np.ndarray]],
    technique_ids,
    bins: int = DEFAULT_BINS,
    alpha: float = DEFAULT_ALPHA,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> CalibrationStore:
    """Build a full store from a calibration run.

    ``run`` maps technique id to its (scores, correct) columns, one row per
    query, index-aligned across techniques.  Pair calibrations are built for
    every ordered pair of techniques so any pool composition (per-unit or
    pooled baselines) finds its pair data: pair (a, b) histograms a's scores
    split by b's outcome.  Every column is checked before ``bins``, and
    ``bins`` before any score range; a non-empty correct column must be
    boolean.
    """
    store = CalibrationStore()
    technique_ids = list(technique_ids)
    for tid in technique_ids:
        if tid not in run:
            raise IncompleteCalibrationError(f"run is missing technique {tid!r}")
    lengths = {len(column) for tid in technique_ids for column in run[tid]}
    if len(lengths) > 1:
        raise InvalidInputError("per-technique sample columns must be aligned")
    columns = [_check_samples(*run[tid], min_samples) for tid in technique_ids]
    if bins < 2:
        raise InvalidInputError("bin_count must be at least 2")
    # ndmin keeps an empty id list 2-D
    offsets = _offsets(
        np.array([flags for _, flags in columns], dtype=bool, ndmin=2), bins
    )
    for k, (primary, (scores, flags)) in enumerate(zip(technique_ids, columns)):
        # row k is the primary's own histogram, row j its pair with j
        hists = _histograms(primary, scores, offsets, bins, alpha)
        store.techniques[primary] = TechniqueCalibration(
            technique_id=primary,
            prior_match=float(np.clip(flags.mean(), *PRIOR_CLAMP)),
            histogram=hists[k],
            sample_count=len(flags),
        )
        for candidate, hist in zip(technique_ids, hists):
            if candidate != primary:
                store.pairs[(primary, candidate)] = hist
    return store


def collect_run(runtime, technique_ids) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-technique (match scores, correct) columns over every query of a
    runtime, in query order: the runtime's ``best_matches`` (the value at
    the first maximum of each query's similarity row), which keep no row,
    and whether the runtime's ground truth accepts that reference.  The
    result feeds ``build_store``."""
    truth = runtime.ground_truth()
    return {
        tid: (scores, truth.correct(best))
        for tid, (best, scores) in runtime.best_matches(technique_ids).items()
    }


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(blob: bytes, pos: int) -> tuple[str, int]:
    (n,) = struct.unpack_from("<H", blob, pos)
    pos += 2
    return blob[pos : pos + n].decode("utf-8"), pos + n


def _pack_hist(h: LikelihoodHistogram) -> bytes:
    out = struct.pack("<Iddd", h.bin_count, h.lo, h.hi, h.smoothing_alpha)
    out += h.counts_matched.astype("<i8").tobytes()
    out += h.counts_mismatched.astype("<i8").tobytes()
    return out


def _unpack_hist(blob: bytes, pos: int) -> tuple[LikelihoodHistogram, int]:
    bins, lo, hi, alpha = struct.unpack_from("<Iddd", blob, pos)
    pos += 28
    # read-only views of the matched, then the mismatched counts
    counts = np.frombuffer(blob, dtype="<i8", count=2 * bins, offset=pos)
    matched, mismatched = counts[:bins], counts[bins:]
    pos += 16 * bins
    hist = LikelihoodHistogram(
        bin_count=bins,
        lo=lo,
        hi=hi,
        counts_matched=matched,
        counts_mismatched=mismatched,
        smoothing_alpha=alpha,
    )
    return hist, pos


def save_store(store: CalibrationStore, path) -> None:
    """Write the SFCAL1 binary layout (little-endian)."""
    parts = [SFCAL_MAGIC, struct.pack("<I", len(store.techniques))]
    for tid in sorted(store.techniques):
        tc = store.techniques[tid]
        parts.append(_pack_str(tid))
        parts.append(struct.pack("<dI", tc.prior_match, tc.sample_count))
        parts.append(_pack_hist(tc.histogram))
    parts.append(struct.pack("<I", len(store.pairs)))
    for a, b in sorted(store.pairs):
        parts.append(_pack_str(a))
        parts.append(_pack_str(b))
        parts.append(_pack_hist(store.pairs[(a, b)]))
    write_atomic(path, *parts)


def load_store(path) -> CalibrationStore:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != SFCAL_MAGIC:
        raise FormatError(f"{path}: not an SFCAL1 calibration store")
    try:
        pos = 8
        (n_tech,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        store = CalibrationStore()
        for _ in range(n_tech):
            tid, pos = _unpack_str(blob, pos)
            if tid in store.techniques:
                raise FormatError(f"{path}: technique {tid!r} stored twice")
            prior, count = struct.unpack_from("<dI", blob, pos)
            pos += 12
            hist, pos = _unpack_hist(blob, pos)
            store.techniques[tid] = TechniqueCalibration(
                technique_id=tid,
                prior_match=prior,
                histogram=hist,
                sample_count=count,
            )
        (n_pairs,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        for _ in range(n_pairs):
            a, pos = _unpack_str(blob, pos)
            b, pos = _unpack_str(blob, pos)
            if (a, b) in store.pairs:
                raise FormatError(f"{path}: pair ({a!r}, {b!r}) stored twice")
            store.pairs[(a, b)], pos = _unpack_hist(blob, pos)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated calibration store") from exc
    except InvalidInputError as exc:  # a prior or histogram field out of range
        raise FormatError(f"{path}: {exc}") from exc
    if pos != len(blob):
        raise FormatError(f"{path}: trailing bytes in calibration store")
    return store
