"""Priors and binned score likelihoods estimated from labeled calibration runs.

A technique's calibration holds its empirical prior of correct match plus a
histogram of match scores split by outcome; pair calibrations hold the same
histogram shape but split the primary technique's score by whether a candidate
technique matched the same query.  Smoothing is Laplace with configurable
alpha, applied lazily at lookup time so stored counts stay exact integers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FormatError,
    IncompleteCalibrationError,
    InsufficientDataError,
    InvalidInputError,
)

DEFAULT_BINS = 20
DEFAULT_ALPHA = 1.0
DEFAULT_MIN_SAMPLES = 10
PRIOR_CLAMP = (0.01, 0.99)

SFCAL_MAGIC = b"SFCAL1\0\0"

MATCH = "match"
MISMATCH = "mismatch"


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
        if not self.hi > self.lo:
            raise InvalidInputError("histogram range must have hi > lo")
        if self.smoothing_alpha < 0:
            raise InvalidInputError("smoothing_alpha must be >= 0")
        for name in ("counts_matched", "counts_mismatched"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.shape != (self.bin_count,):
                raise InvalidInputError(f"{name} must have length bin_count")
            object.__setattr__(self, name, arr)

    def bin_index(self, score: float) -> int:
        """Bin containing ``score``; out-of-range scores clamp to edge bins."""
        if not np.isfinite(score):
            raise InvalidInputError("score must be finite")
        if score <= self.lo:
            return 0
        if score >= self.hi:
            return self.bin_count - 1
        # divide by the span, not the bin width, so subnormal spans cannot
        # overflow the quotient
        idx = int(self.bin_count * (score - self.lo) / (self.hi - self.lo))
        return min(max(idx, 0), self.bin_count - 1)

    def bin_indices(self, scores: np.ndarray) -> np.ndarray:
        """``bin_index`` of every score in a finite float64 array."""
        with np.errstate(over="ignore"):
            # the expression of ``bin_index``; a score at or below lo gives
            # a quotient <= 0 and one at or above hi a quotient >= B - 1
            # (or inf), so clipping reproduces its edge clamps
            quotient = self.bin_count * (scores - self.lo) / (self.hi - self.lo)
        return np.clip(quotient, 0, self.bin_count - 1).astype(np.int64)

    def mass(self, score: float, hypothesis: str) -> float:
        """Smoothed probability of the bin containing ``score``."""
        counts = self._counts(hypothesis)
        idx = self.bin_index(score)
        total = int(counts.sum())
        a = self.smoothing_alpha
        return (counts[idx] + a) / (total + a * self.bin_count)

    def masses(self, hypothesis: str) -> np.ndarray:
        """Smoothed mass of every bin; sums to 1 when alpha > 0 or counts > 0.

        Entry ``i`` equals ``mass`` of a score in bin ``i`` bit for bit."""
        counts = self._counts(hypothesis)
        a = self.smoothing_alpha
        return (counts + a) / (counts.sum() + a * self.bin_count)

    def _counts(self, hypothesis: str) -> np.ndarray:
        if hypothesis == MATCH:
            return self.counts_matched
        if hypothesis == MISMATCH:
            return self.counts_mismatched
        raise InvalidInputError(f"unknown hypothesis {hypothesis!r}")


@dataclass(frozen=True)
class MassTable:
    """A histogram compiled for block lookups: its binning and both smoothed
    mass vectors, so ``matched[h.bin_indices(s)]`` equals ``h.mass(s, MATCH)``."""

    histogram: LikelihoodHistogram
    matched: np.ndarray
    mismatched: np.ndarray

    @classmethod
    def of(cls, hist: LikelihoodHistogram) -> "MassTable":
        # an unsmoothed histogram without counts gives NaN masses, which
        # the switching loop reports as undefined evidence
        with np.errstate(invalid="ignore"):
            return cls(hist, hist.masses(MATCH), hist.masses(MISMATCH))


@dataclass(frozen=True)
class TechniqueCalibration:
    technique_id: str
    prior_match: float
    histogram: LikelihoodHistogram
    sample_count: int


@dataclass(frozen=True)
class PairCalibration:
    """Histogram of the primary technique's score split by a candidate's
    outcome; the (primary, candidate) pair is ordered."""

    primary_id: str
    candidate_id: str
    histogram: LikelihoodHistogram


def _score_range(scores: np.ndarray) -> tuple[float, float]:
    lo, hi = float(scores.min()), float(scores.max())
    if hi == lo:
        return lo - 0.5, hi + 0.5
    span = hi - lo
    return lo - 0.01 * span, hi + 0.01 * span


def _build_histogram(
    scores: np.ndarray,
    flags: np.ndarray,
    bins: int,
    alpha: float,
) -> LikelihoodHistogram:
    lo, hi = _score_range(scores)
    idx = np.clip(
        np.floor(bins * (scores - lo) / (hi - lo)).astype(int), 0, bins - 1
    )
    matched = np.bincount(idx[flags], minlength=bins)
    mismatched = np.bincount(idx[~flags], minlength=bins)
    return LikelihoodHistogram(
        bin_count=bins,
        lo=lo,
        hi=hi,
        counts_matched=matched,
        counts_mismatched=mismatched,
        smoothing_alpha=alpha,
    )


def _check_samples(samples, min_samples):
    if len(samples) < min_samples:
        raise InsufficientDataError(
            f"{len(samples)} samples, need at least {min_samples}"
        )
    scores = np.asarray([s for s, _ in samples], dtype=np.float64)
    flags = np.asarray([bool(m) for _, m in samples])
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError("calibration scores must be finite")
    return scores, flags


def calibrate_technique(
    samples,
    technique_id: str = "",
    bins: int = DEFAULT_BINS,
    alpha: float = DEFAULT_ALPHA,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> TechniqueCalibration:
    """Estimate a technique's prior and likelihood histogram.

    ``samples`` is a sequence of (score, matched) observations.  The prior is
    the matched frequency clamped to [0.01, 0.99]; the histogram spans the
    observed score range widened by 1% per side.
    """
    scores, flags = _check_samples(samples, min_samples)
    prior = float(np.clip(flags.mean(), *PRIOR_CLAMP))
    hist = _build_histogram(scores, flags, bins, alpha)
    return TechniqueCalibration(
        technique_id=technique_id,
        prior_match=prior,
        histogram=hist,
        sample_count=len(samples),
    )


def calibrate_pair(
    samples,
    primary_id: str,
    candidate_id: str,
    bins: int = DEFAULT_BINS,
    alpha: float = DEFAULT_ALPHA,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> PairCalibration:
    """Histogram the primary's scores split by the candidate's outcome.

    ``samples`` is a sequence of (primary_score, candidate_matched).
    """
    scores, flags = _check_samples(samples, min_samples)
    hist = _build_histogram(scores, flags, bins, alpha)
    return PairCalibration(
        primary_id=primary_id, candidate_id=candidate_id, histogram=hist
    )


@dataclass
class CalibrationStore:
    """Complete calibration for every technique and ordered pair in use."""

    techniques: dict[str, TechniqueCalibration] = field(default_factory=dict)
    pairs: dict[tuple[str, str], PairCalibration] = field(default_factory=dict)

    def technique(self, technique_id: str) -> TechniqueCalibration:
        try:
            return self.techniques[technique_id]
        except KeyError:
            raise IncompleteCalibrationError(
                f"no calibration for technique {technique_id!r}"
            ) from None

    def pair(self, primary_id: str, candidate_id: str) -> PairCalibration:
        try:
            return self.pairs[(primary_id, candidate_id)]
        except KeyError:
            raise IncompleteCalibrationError(
                f"no pair calibration for ({primary_id!r}, {candidate_id!r})"
            ) from None


def build_store(
    run: dict[str, list[tuple[float, bool]]],
    technique_ids,
    bins: int = DEFAULT_BINS,
    alpha: float = DEFAULT_ALPHA,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> CalibrationStore:
    """Build a full store from a calibration run.

    ``run`` maps technique id to its per-query (score, correct) observations,
    index-aligned across techniques.  Pair calibrations are built for every
    ordered pair of techniques so any pool composition (per-unit or pooled
    baselines) finds its pair data.
    """
    store = CalibrationStore()
    technique_ids = list(technique_ids)
    for tid in technique_ids:
        if tid not in run:
            raise IncompleteCalibrationError(f"run is missing technique {tid!r}")
    lengths = {len(run[tid]) for tid in technique_ids}
    if len(lengths) > 1:
        raise InvalidInputError("per-technique sample lists must be aligned")
    for tid in technique_ids:
        store.techniques[tid] = calibrate_technique(
            run[tid], tid, bins=bins, alpha=alpha, min_samples=min_samples
        )
    for a in technique_ids:
        for b in technique_ids:
            if a == b:
                continue
            paired = [
                (score_a, matched_b)
                for (score_a, _), (_, matched_b) in zip(run[a], run[b])
            ]
            store.pairs[(a, b)] = calibrate_pair(
                paired, a, b, bins=bins, alpha=alpha, min_samples=min_samples
            )
    return store


def collect_run(runtime, technique_ids) -> dict[str, list[tuple[float, bool]]]:
    """Per-technique (match score, correct) observations over every query of
    a runtime, in query order: the maximum of the query's similarity row
    (first maximum on ties) and whether the runtime's ground truth accepts
    that reference.  The result feeds ``build_store``."""
    truth = runtime.ground_truth()
    queries = np.arange(runtime.query_count)
    run = {}
    for tid in technique_ids:
        rows = runtime.similarity_rows(tid, queries)
        best = rows.argmax(axis=1)
        scores = rows[queries, best]
        run[tid] = [
            (score, truth.is_correct(q, ref))
            for q, (score, ref) in enumerate(zip(scores.tolist(), best.tolist()))
        ]
    return run


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
    matched = np.frombuffer(blob, dtype="<i8", count=bins, offset=pos).copy()
    pos += 8 * bins
    mismatched = np.frombuffer(blob, dtype="<i8", count=bins, offset=pos).copy()
    pos += 8 * bins
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
    for key in sorted(store.pairs):
        pc = store.pairs[key]
        parts.append(_pack_str(pc.primary_id))
        parts.append(_pack_str(pc.candidate_id))
        parts.append(_pack_hist(pc.histogram))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


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
            hist, pos = _unpack_hist(blob, pos)
            store.pairs[(a, b)] = PairCalibration(
                primary_id=a, candidate_id=b, histogram=hist
            )
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated calibration store") from exc
    if pos != len(blob):
        raise FormatError(f"{path}: trailing bytes in calibration store")
    return store
