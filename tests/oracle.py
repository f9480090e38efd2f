"""Per-query reference forms of the product's block code.

Each function here handles one query (or one score) at a time, the way the
method is stated: cosine similarity of one descriptor, the built-in
descriptors as their earlier straightforward array forms (``np.ix_``
gathers, ``np.add.at`` votes, ``np.histogram``), a calibration store built
one histogram at a time, a histogram mass of one score, one unit's
switching loop with its trace, min-max fusion of one query's vectors, and
scoring and the PR sweep over per-query records.  The
tests hold the block code to these forms decision for decision and bit for
bit.  The report files have their row-at-a-time forms too: ``csv.writer``
rows and a predictions reader that parses and checks one row at a time.
It lives with the tests, outside the installed package, and imports no
block function.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from switchfuse.calibration import (
    CalibrationStore,
    LikelihoodHistogram,
    TechniqueCalibration,
)
from switchfuse.descriptors import DescriptorSet
from switchfuse.errors import (
    FormatError,
    IncompleteCalibrationError,
    InsufficientDataError,
    InvalidInputError,
    UndefinedEvidenceError,
)
from switchfuse.evaluation import GroundTruth
from switchfuse.fusion import EPSILON
from switchfuse.switching import TripartiteConfig, UnitConfig
from tests.exported import similarity_rows

MATCH = "match"
MISMATCH = "mismatch"


# -- similarity -------------------------------------------------------------


@dataclass(frozen=True)
class SimilarityVector:
    """Scores of one query against every reference image."""

    technique_id: str
    scores: np.ndarray

    def __post_init__(self):
        sc = np.asarray(self.scores, dtype=np.float64)
        if sc.ndim != 1:
            raise InvalidInputError("similarity scores must be 1-D")
        if not np.all(np.isfinite(sc)):
            raise InvalidInputError("similarity scores must be finite")
        object.__setattr__(self, "scores", sc)

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class MatchScore:
    """Maximum similarity and the reference index attaining it."""

    value: float
    best_index: int


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors, 0 if either is zero.  Each vector is first
    divided by its largest magnitude, so that squaring tiny entries cannot
    underflow the norm (|a| below about 1e-154 otherwise loses precision)."""
    scale_a = np.max(np.abs(a), initial=0.0)
    scale_b = np.max(np.abs(b), initial=0.0)
    if scale_a == 0.0 or scale_b == 0.0:
        return 0.0
    a = a / scale_a
    b = b / scale_b
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def similarity_vector(query, refs: DescriptorSet) -> SimilarityVector:
    """Cosine similarity of one 1-D query descriptor against every reference
    row."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (refs.dim,):
        raise InvalidInputError(
            f"query shape {query.shape} != reference dim {refs.dim}"
        )
    qn = np.linalg.norm(query)
    if qn == 0.0:
        return SimilarityVector(refs.technique_id, np.zeros(refs.count))
    matrix = np.asarray(refs.matrix, dtype=np.float64)
    rn = np.linalg.norm(matrix, axis=1)
    dots = matrix @ query
    scores = np.where(rn > 0.0, dots / (np.where(rn > 0.0, rn, 1.0) * qn), 0.0)
    return SimilarityVector(refs.technique_id, scores)


def raw_match_score(sim: SimilarityVector) -> MatchScore:
    """Maximum of the similarity vector; ties go to the lowest index."""
    if len(sim) == 0:
        raise InvalidInputError("empty similarity vector")
    idx = int(np.argmax(sim.scores))  # np.argmax returns the first maximum
    return MatchScore(value=float(sim.scores[idx]), best_index=idx)


def similarity(runtime, query_index: int, technique_id: str) -> SimilarityVector:
    """One query's similarity row of a runtime."""
    return SimilarityVector(
        technique_id, similarity_rows(runtime, technique_id, [query_index])[0]
    )


# -- descriptors ------------------------------------------------------------


def oracle_resize(img, out_h, out_w):
    in_h, in_w = img.shape
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bot = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy[:, 0])[:, None] + bot * fy[:, 0][:, None]


def oracle_gradients(img):
    padded = np.pad(img, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    return gx, gy


def oracle_hog(img):
    gx, gy = oracle_gradients(oracle_resize(img, 64, 64))
    mag = np.hypot(gx, gy)
    theta = np.degrees(np.arctan2(gy, gx)) % 180.0
    pos = theta / (180.0 / 9) - 0.5
    k0 = np.floor(pos).astype(int)
    frac = pos - k0
    k0 = k0 % 9
    k1 = (k0 + 1) % 9
    hist = np.zeros((8, 8, 9))
    cy = np.arange(64) // 8
    cell_y = np.repeat(cy, 64).reshape(64, 64)
    cell_x = cell_y.T
    np.add.at(hist, (cell_y, cell_x, k0), mag * (1.0 - frac))
    np.add.at(hist, (cell_y, cell_x, k1), mag * frac)
    out = np.empty((7, 7, 36))
    for by in range(7):
        for bx in range(7):
            block = hist[by : by + 2, bx : bx + 2].ravel()
            norm = np.linalg.norm(block)
            out[by, bx] = block / norm if norm > 0 else 0.0
    return out.ravel()


def oracle_intensity_hist(img):
    counts, _ = np.histogram(img.ravel(), bins=64, range=(0.0, 1.0))
    return counts / img.size


def oracle_tiny_patch(img):
    patch = oracle_resize(img, 16, 16).ravel()
    patch = patch - patch.mean()
    norm = np.linalg.norm(patch)
    return patch / norm if norm > 0 else np.zeros_like(patch)


# -- calibration lookups ----------------------------------------------------


def bin_index(hist: LikelihoodHistogram, score: float) -> int:
    """Bin containing ``score``; out-of-range scores clamp to edge bins."""
    if not np.isfinite(score):
        raise InvalidInputError("score must be finite")
    if score <= hist.lo:
        return 0
    if score >= hist.hi:
        return hist.bin_count - 1
    # divide by the span, not the bin width, so subnormal spans cannot
    # overflow the quotient
    idx = int(hist.bin_count * (score - hist.lo) / (hist.hi - hist.lo))
    return min(max(idx, 0), hist.bin_count - 1)


def mass(hist: LikelihoodHistogram, score: float, hypothesis: str) -> float:
    """Smoothed probability of the bin containing ``score``."""
    if hypothesis not in (MATCH, MISMATCH):
        raise InvalidInputError(f"unknown hypothesis {hypothesis!r}")
    counts = hist.counts_matched if hypothesis == MATCH else hist.counts_mismatched
    idx = bin_index(hist, score)
    total = int(counts.sum())
    a = hist.smoothing_alpha
    return (counts[idx] + a) / (total + a * hist.bin_count)


# -- calibration store ------------------------------------------------------


def score_range(scores: np.ndarray, technique_id: str) -> tuple[float, float]:
    """The scores' range widened by 1% per side, or by 0.5 per side around
    one value; a widened range that is empty or wider than float64 holds
    cannot be binned."""
    lo, hi = float(scores.min()), float(scores.max())
    if hi == lo:
        wide_lo, wide_hi = lo - 0.5, hi + 0.5
    else:
        span = hi - lo
        wide_lo, wide_hi = lo - 0.01 * span, hi + 0.01 * span
    if not (wide_hi > wide_lo and math.isfinite(wide_hi - wide_lo)):
        raise InvalidInputError(
            f"{technique_id}: calibration scores from {lo} to {hi} cannot be binned"
        )
    return wide_lo, wide_hi


def bin_indices(scores: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        quotient = bins * (scores - lo) / (hi - lo)
    return np.clip(quotient, 0, bins - 1).astype(np.int64)


def build_histogram(
    scores, flags, bins: int, alpha: float, technique_id: str
) -> LikelihoodHistogram:
    """One histogram of a technique's scores: its own range, binning and two
    masked counts."""
    lo, hi = score_range(scores, technique_id)
    idx = bin_indices(scores, lo, hi, bins)
    return LikelihoodHistogram(
        bin_count=bins,
        lo=lo,
        hi=hi,
        counts_matched=np.bincount(idx[flags], minlength=bins),
        counts_mismatched=np.bincount(idx[~flags], minlength=bins),
        smoothing_alpha=alpha,
    )


def check_samples(scores, flags, min_samples):
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


def build_store(run, technique_ids, bins=20, alpha=1.0, min_samples=10):
    """The store built record by record: every technique's columns checked,
    then ``bins``, then every technique histogrammed on its own, then every
    ordered pair of distinct ids checked and histogrammed on its own."""
    store = CalibrationStore()
    technique_ids = list(technique_ids)
    for tid in technique_ids:
        if tid not in run:
            raise IncompleteCalibrationError(f"run is missing technique {tid!r}")
    lengths = {len(column) for tid in technique_ids for column in run[tid]}
    if len(lengths) > 1:
        raise InvalidInputError("per-technique sample columns must be aligned")
    columns = {tid: check_samples(*run[tid], min_samples) for tid in technique_ids}
    if bins < 2:
        raise InvalidInputError("bin_count must be at least 2")
    for tid in technique_ids:
        scores, flags = columns[tid]
        prior = float(np.clip(flags.mean(), 0.01, 0.99))
        store.techniques[tid] = TechniqueCalibration(
            technique_id=tid,
            prior_match=prior,
            histogram=build_histogram(scores, flags, bins, alpha, tid),
            sample_count=len(scores),
        )
    for a in technique_ids:
        for b in technique_ids:
            if a != b:
                scores, flags = check_samples(run[a][0], run[b][1], min_samples)
                store.pairs[(a, b)] = build_histogram(scores, flags, bins, alpha, a)
    return store


# -- switching --------------------------------------------------------------


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
    trace: tuple[TraceStep, ...] = ()


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
    pair_ab: LikelihoodHistogram,
    candidate_id: str,
    self_calib: TechniqueCalibration,
    score: float,
) -> ComplementarityScore:
    """Ratio favouring candidate B (``candidate_id``, whose pair histogram
    with the current technique is ``pair_ab``) when the current technique
    scores ``score``: own-match times B-match likelihood over the mismatch
    pair."""
    p_m_a = mass(self_calib.histogram, score, MATCH)
    p_mm_a = mass(self_calib.histogram, score, MISMATCH)
    p_m_b = mass(pair_ab, score, MATCH)
    p_mm_b = mass(pair_ab, score, MISMATCH)
    num = p_m_a * p_m_b
    den = p_mm_a * p_mm_b
    # NaN terms come from an unsmoothed histogram with no counts
    if not den > 0.0 or num != num:
        raise UndefinedEvidenceError("zero mismatch likelihood product")
    return ComplementarityScore(
        primary_id=self_calib.technique_id,
        candidate_id=candidate_id,
        value=num / den,
    )


def technique_posterior(calib: TechniqueCalibration, score: float) -> float:
    lm = mass(calib.histogram, score, MATCH)
    lmm = mass(calib.histogram, score, MISMATCH)
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
            complementarity(store.pair(current, cand), cand, calib, score)
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


# -- fusion -----------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedVector:
    technique_id: str
    values: np.ndarray


@dataclass(frozen=True)
class FusedVector:
    values: np.ndarray
    contributing: tuple[str, ...]


def normalize(sim: SimilarityVector) -> NormalizedVector:
    """Rescale scores to [-EPSILON, 1 - EPSILON].

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
        values = (scores - lo) / (hi - lo) - EPSILON
    return NormalizedVector(technique_id=sim.technique_id, values=values)


def fuse(vectors) -> FusedVector:
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


# -- scoring ----------------------------------------------------------------


def is_correct(ground_truth: GroundTruth, query: int, predicted: int) -> bool:
    return predicted in ground_truth.accepted[query]


@dataclass(frozen=True)
class QueryOutcome:
    query_index: int
    predicted: int
    confidence: float
    correct: bool
    decisions: tuple[UnitDecision, ...] | None = None  # switch-fuse, unit order


@dataclass(frozen=True)
class QueryReport:
    """Accuracy and correct-match count over per-query records."""

    method: str
    accuracy: float
    correct_count: int
    query_count: int
    outcomes: tuple[QueryOutcome, ...]


def score_predictions(outcomes, ground_truth: GroundTruth, method: str = "") -> QueryReport:
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
            correct=is_correct(ground_truth, o.query_index, o.predicted),
            decisions=o.decisions,
        )
        for o in outcomes
    )
    correct = sum(o.correct for o in rescored)
    return QueryReport(
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
    if not all(math.isfinite(o.confidence) for o in outcomes):
        raise InvalidInputError("confidences must be finite")
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


# -- report files -----------------------------------------------------------


PREDICTIONS_HEADER = [
    "query", "predicted", "confidence", "selected", "posteriors", "fallbacks"
]
_INT64 = range(-(2**63), 2**63)


def csv_text(header, rows) -> str:
    """``header`` and then ``rows``, each written as one ``csv.writer`` row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_predictions(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (query, predicted, confidence) columns of a predictions CSV,
    parsed and checked one row at a time: the field count, then ``int``,
    ``int`` and ``float`` of the first three fields, then the int64 range,
    then finiteness.  The file is UTF-8 text whatever the locale, and a
    line that starts with ``#`` is a comment only where a record starts,
    not inside a quoted field.  The first bad row raises ``FormatError``."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    between_records = True

    def lines():
        nonlocal between_records
        for line in io.StringIO(text, newline=""):
            if between_records and line.startswith("#"):
                continue
            between_records = False
            yield line

    records = []
    try:
        for record in csv.reader(lines()):
            records.append(record)
            between_records = True
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV: {exc}") from exc
    if not records:
        raise FormatError(f"{path}: empty CSV")
    header = records.pop(0)
    if header != PREDICTIONS_HEADER:
        raise FormatError(f"{path}: unexpected predictions header {header}")
    queries, predicted, confidence = [], [], []
    for number, row in enumerate(records, start=1):
        try:
            if len(row) != len(PREDICTIONS_HEADER):
                raise ValueError(f"{len(row)} fields, expected {len(PREDICTIONS_HEADER)}")
            q, p, c = int(row[0]), int(row[1]), float(row[2])
            if q not in _INT64 or p not in _INT64:
                raise ValueError("index does not fit in 64 bits")
            if not math.isfinite(c):
                raise ValueError(f"non-finite confidence {row[2]!r}")
        except ValueError as exc:
            raise FormatError(f"{path}: predictions row {number}: {exc}") from exc
        queries.append(q)
        predicted.append(p)
        confidence.append(c)
    return (
        np.array(queries, dtype=np.int64),
        np.array(predicted, dtype=np.int64),
        np.array(confidence, dtype=np.float64),
    )
