import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfuse import (
    CalibrationStore,
    LikelihoodHistogram,
    TechniqueCalibration,
    build_store,
    load_store,
    save_store,
)
from switchfuse.calibration import SFCAL_MAGIC, collect_run
from switchfuse.errors import (
    FormatError,
    IncompleteCalibrationError,
    InsufficientDataError,
    InvalidInputError,
    SwitchFuseError,
)
from switchfuse.synthetic import SyntheticDataset, TechniqueProfile, generate
from tests import oracle
from tests.exported import exported_runtime
from tests.oracle import (
    MATCH,
    MISMATCH,
    is_correct,
    mass,
    raw_match_score,
    similarity,
)


def columns(samples):
    """(score, flag) tuples as the (scores, flags) arrays the API takes."""
    return (
        np.array([s for s, _ in samples], dtype=np.float64),
        np.array([bool(m) for _, m in samples]),
    )


def technique(samples, **kwargs) -> TechniqueCalibration:
    """The calibration ``build_store`` makes of a one-technique run."""
    return build_store({"t": columns(samples)}, ["t"], **kwargs).techniques["t"]


def pair(samples, **kwargs) -> LikelihoodHistogram:
    """The (p, c) histogram ``build_store`` makes of a two-technique run in
    which technique p scores each sample's score and technique c has each
    sample's outcome: p's scores split by c's outcomes."""
    scores, flags = columns(samples)
    run = {"p": (scores, flags), "c": (np.zeros_like(scores), flags)}
    return build_store(run, ["p", "c"], **kwargs).pairs[("p", "c")]


samples_strategy = st.lists(
    st.tuples(st.floats(-1, 1, allow_nan=False), st.booleans()),
    min_size=10,
    max_size=60,
)


def uniform_hist(bins=20, alpha=1.0):
    return LikelihoodHistogram(
        bin_count=bins,
        lo=0.0,
        hi=1.0,
        counts_matched=np.zeros(bins, dtype=np.int64),
        counts_mismatched=np.zeros(bins, dtype=np.int64),
        smoothing_alpha=alpha,
    )


def test_prior_frequency():
    samples = [(0.5, True)] * 7 + [(0.4, False)] * 3
    calib = technique(samples)
    assert calib.prior_match == pytest.approx(0.7)
    assert calib.sample_count == 10


def test_prior_clamped():
    calib = technique([(0.5, True)] * 10)
    assert calib.prior_match == 0.99
    calib = technique([(0.5, False)] * 10)
    assert calib.prior_match == 0.01


def test_laplace_smoothing_hand_value():
    # 0.1 mismatched x5, 0.9 matched x5, 2 bins, alpha 1
    samples = [(0.1, False)] * 5 + [(0.9, True)] * 5
    calib = technique(samples, bins=2, alpha=1.0)
    hi_bin_mass = mass(calib.histogram, 0.9, MATCH)
    assert hi_bin_mass == pytest.approx(6.0 / 7.0)
    assert mass(calib.histogram, 0.1, MATCH) == pytest.approx(1.0 / 7.0)


def test_too_few_samples():
    with pytest.raises(InsufficientDataError):
        technique([(0.5, True)] * 9)


def test_degenerate_range_fallback():
    calib = technique([(0.3, True)] * 10)
    assert calib.histogram.lo == pytest.approx(-0.2)
    assert calib.histogram.hi == pytest.approx(0.8)


def test_pair_all_candidate_matched_uniform_mismatch_side():
    masses = pair([(0.5, True)] * 12, bins=4, alpha=1.0).mismatched_masses
    assert np.allclose(masses, 0.25)


def test_pair_symmetric_samples():
    samples = [(0.2, True), (0.2, False), (0.8, True), (0.8, False)] * 3
    hist = pair(samples, bins=2)
    assert np.allclose(hist.matched_masses, hist.mismatched_masses)


def test_pair_hand_values():
    # 0.2 with candidate mismatched x4, 0.8 with candidate matched x4
    samples = [(0.2, False)] * 4 + [(0.8, True)] * 4
    hist = pair(samples, bins=2, alpha=1.0, min_samples=8)
    assert mass(hist, 0.8, MATCH) == pytest.approx(5.0 / 6.0)
    assert mass(hist, 0.8, MISMATCH) == pytest.approx(1.0 / 6.0)


def test_likelihood_uniform_when_empty():
    hist = uniform_hist(bins=20)
    for score in (-5.0, 0.0, 0.33, 2.0):
        assert mass(hist, score, MATCH) == pytest.approx(1.0 / 20.0)


def test_likelihood_edge_clamping():
    hist = LikelihoodHistogram(
        bin_count=2,
        lo=0.0,
        hi=1.0,
        counts_matched=np.array([3, 1]),
        counts_mismatched=np.zeros(2, dtype=np.int64),
    )
    assert mass(hist, -10.0, MATCH) == mass(hist, 0.0, MATCH)
    assert mass(hist, 10.0, MATCH) == mass(hist, 1.0, MATCH)


def test_likelihood_hand_value():
    hist = LikelihoodHistogram(
        bin_count=2,
        lo=0.0,
        hi=1.0,
        counts_matched=np.array([3, 1]),
        counts_mismatched=np.zeros(2, dtype=np.int64),
    )
    assert mass(hist, 0.25, MATCH) == pytest.approx(4.0 / 6.0)


def test_likelihood_non_finite_rejected():
    hist = uniform_hist()
    with pytest.raises(InvalidInputError):
        mass(hist, float("nan"), MATCH)


@given(samples_strategy)
def test_masses_sum_to_one(samples):
    calib = technique(samples)
    for masses in (calib.histogram.matched_masses, calib.histogram.mismatched_masses):
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)


@given(samples_strategy)
def test_likelihood_strictly_positive(samples):
    calib = technique(samples)
    for score in (-10.0, 0.0, 0.5, 10.0):
        assert mass(calib.histogram, score, MATCH) > 0.0
        assert mass(calib.histogram, score, MISMATCH) > 0.0


@given(samples_strategy, st.randoms(use_true_random=False))
def test_permutation_invariance(samples, rnd):
    shuffled = list(samples)
    rnd.shuffle(shuffled)
    a, b = technique(samples), technique(shuffled)
    assert a.prior_match == b.prior_match
    assert np.array_equal(a.histogram.counts_matched, b.histogram.counts_matched)
    assert np.array_equal(
        a.histogram.counts_mismatched, b.histogram.counts_mismatched
    )
    assert a.histogram.lo == b.histogram.lo and a.histogram.hi == b.histogram.hi


def _random_run(rng, techniques, n=40):
    run = {}
    for tid in techniques:
        run[tid] = columns(
            [(float(rng.uniform(-1, 1)), bool(rng.random() < 0.5)) for _ in range(n)]
        )
    return run


def test_build_store_complete():
    rng = np.random.default_rng(0)
    techniques = ["a", "b", "c"]
    store = build_store(_random_run(rng, techniques), techniques)
    assert set(store.techniques) == set(techniques)
    assert set(store.pairs) == {
        (x, y) for x in techniques for y in techniques if x != y
    }
    assert store.pairs[("a", "b")] is not store.pairs[("b", "a")]


def test_build_store_missing_technique():
    rng = np.random.default_rng(1)
    run = _random_run(rng, ["a"])
    with pytest.raises(IncompleteCalibrationError):
        build_store(run, ["a", "b"])


def tuple_list_store(runtime, techniques):
    """The store built the per-query way: (score, correct) tuples from each
    query's scalar best match, histogrammed record by record by the
    oracle."""
    truth = runtime.ground_truth()
    samples = {}
    for tid in techniques:
        samples[tid] = []
        for q in range(runtime.query_count):
            best = raw_match_score(similarity(runtime, q, tid))
            samples[tid].append((best.value, is_correct(truth, q, best.best_index)))
    return oracle.build_store(
        {tid: columns(samples[tid]) for tid in techniques}, techniques
    )


def test_collected_store_matches_tuple_list_store(tmp_path):
    techniques = ["a", "b", "c"]
    ds = generate(
        [TechniqueProfile(t, r, 0.75, 0.08, 0.45, 0.08)
         for t, r in zip(techniques, (0.6, 0.5, 0.4))],
        120, 30, seed=17,
    )
    runtime = exported_runtime(ds, np.arange(0, 120, 2), tmp_path)
    save_store(build_store(collect_run(runtime, techniques), techniques), tmp_path / "a")
    save_store(tuple_list_store(runtime, techniques), tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize(
    "scores, flags",
    [([0.5] * 12, [True] * 11), (np.zeros((12, 1)), [True] * 12)],
)
def test_sample_columns_must_be_aligned_1d(scores, flags):
    with pytest.raises(InvalidInputError):
        build_store({"t": (scores, flags)}, ["t"])


@pytest.mark.parametrize(
    "flags",
    [np.full(12, 0.5), np.full(12, math.nan), np.arange(12) % 2, ["no"] * 12],
    ids=["float", "nan", "int", "str"],
)
def test_correct_column_must_be_boolean(flags):
    """A correct column that is not boolean is refused, not cast by truth
    value; an empty one still has too few samples."""
    with pytest.raises(InvalidInputError, match="boolean"):
        build_store({"t": (np.linspace(0, 1, 12), flags)}, ["t"])
    with pytest.raises(InsufficientDataError):
        build_store({"t": ([], [])}, ["t"])


def test_build_store_rejects_misaligned_techniques():
    run = {"a": columns([(0.5, True)] * 12), "b": columns([(0.5, True)] * 11)}
    with pytest.raises(InvalidInputError):
        build_store(run, ["a", "b"])


def test_non_finite_calibration_score_rejected():
    with pytest.raises(InvalidInputError):
        technique([(0.5, True)] * 11 + [(math.nan, True)])


def test_store_lookup_errors():
    store = CalibrationStore()
    with pytest.raises(IncompleteCalibrationError):
        store.technique("missing")
    with pytest.raises(IncompleteCalibrationError):
        store.pair("a", "b")


def test_store_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    techniques = ["alpha", "beta"]
    store = build_store(_random_run(rng, techniques), techniques, bins=7, alpha=0.5)
    path = tmp_path / "cal.sfcal"
    save_store(store, path)
    loaded = load_store(path)
    assert set(loaded.techniques) == set(store.techniques)
    for tid in techniques:
        a, b = store.techniques[tid], loaded.techniques[tid]
        assert a.prior_match == b.prior_match
        assert a.sample_count == b.sample_count
        assert a.histogram.lo == b.histogram.lo
        assert a.histogram.hi == b.histogram.hi
        assert a.histogram.smoothing_alpha == b.histogram.smoothing_alpha
        assert np.array_equal(
            a.histogram.counts_matched, b.histogram.counts_matched
        )
        assert np.array_equal(
            a.histogram.counts_mismatched, b.histogram.counts_mismatched
        )
    assert set(loaded.pairs) == set(store.pairs)
    for key in store.pairs:
        assert np.array_equal(
            store.pairs[key].counts_matched,
            loaded.pairs[key].counts_matched,
        )


def test_loaded_store_compiles_no_tables(tmp_path):
    """Per-bin tables are built on first use, never by ``load_store``."""
    rng = np.random.default_rng(4)
    techniques = ["alpha", "beta", "gamma"]
    save_store(build_store(_random_run(rng, techniques), techniques), tmp_path / "s")
    loaded = load_store(tmp_path / "s")
    records = [*loaded.techniques.values(), *loaded.pairs.values()]
    records += [record.histogram for record in loaded.techniques.values()]
    assert len(records) == 2 * 3 + 6
    tables = {"matched_masses", "mismatched_masses", "posterior"}
    for record in records:
        assert not tables & vars(record).keys()


@pytest.mark.parametrize("prior", [math.nan, 0.0, 1.0])
def test_technique_prior_must_lie_strictly_inside_unit_interval(prior):
    hist = uniform_hist()
    with pytest.raises(InvalidInputError, match="t: prior must lie strictly"):
        TechniqueCalibration("t", prior, hist, 10)


def test_store_save_load_bytes_stable(tmp_path):
    rng = np.random.default_rng(3)
    techniques = ["a", "b"]
    store = build_store(_random_run(rng, techniques), techniques)
    p1, p2 = tmp_path / "one.sfcal", tmp_path / "two.sfcal"
    save_store(store, p1)
    save_store(load_store(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_store_bad_magic(tmp_path):
    path = tmp_path / "bad.sfcal"
    path.write_bytes(b"NOTCAL00" + b"\0" * 8)
    with pytest.raises(FormatError):
        load_store(path)


def test_store_truncated(tmp_path):
    rng = np.random.default_rng(4)
    store = build_store(_random_run(rng, ["a", "b"]), ["a", "b"])
    path = tmp_path / "full.sfcal"
    save_store(store, path)
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.sfcal"
    trunc.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(FormatError):
        load_store(trunc)


@pytest.mark.parametrize("kind", ["technique", "pair"])
def test_store_repeated_record(tmp_path, kind):
    """A store that lists one technique, or one ordered pair, in two
    records is refused naming it, whichever record would win."""

    def record(prior) -> bytes:
        # the one record of a one-entry store, cut from between its counts
        if kind == "technique":
            calibration = TechniqueCalibration("a", prior, uniform_hist(), 10)
            store = CalibrationStore(techniques={"a": calibration})
        else:
            store = CalibrationStore(pairs={("a", "b"): uniform_hist(alpha=prior)})
        save_store(store, tmp_path / "one.sfcal")
        blob = (tmp_path / "one.sfcal").read_bytes()
        return blob[12:-4] if kind == "technique" else blob[16:]

    twice, none = struct.pack("<I", 2), struct.pack("<I", 0)
    twice += record(0.3) + record(0.7)
    path = tmp_path / "twice.sfcal"
    path.write_bytes(
        SFCAL_MAGIC + (twice + none if kind == "technique" else none + twice)
    )
    named = "'a'" if kind == "technique" else "('a', 'b')"
    with pytest.raises(FormatError, match=re.escape(f"{named} stored twice")) as err:
        load_store(path)
    assert err.value.code == "SF-FORMAT"


def test_histogram_invariants():
    with pytest.raises(InvalidInputError):
        uniform_hist(bins=1)
    with pytest.raises(InvalidInputError):
        LikelihoodHistogram(
            bin_count=2,
            lo=1.0,
            hi=0.0,
            counts_matched=np.zeros(2, dtype=np.int64),
            counts_mismatched=np.zeros(2, dtype=np.int64),
        )


def test_collect_run_keeps_no_rows(tmp_path):
    """``collect_run`` over Q = 1000 queries, R = 200 references and T = 9
    SFDESC techniques allocates less than three Q x R float64 blocks at its
    peak: one reused score buffer and one widened payload, where keeping
    each technique's rows would hold nine blocks."""
    rng = np.random.default_rng(29)
    q, r = 1000, 200
    ids = [f"t{i}" for i in range(9)]
    ds = SyntheticDataset(
        {tid: rng.uniform(-1, 1, (q, r)) for tid in ids}, rng.integers(0, r, q)
    )
    runtime = exported_runtime(ds, np.arange(q), tmp_path)
    tracemalloc.start()
    try:
        run = collect_run(runtime, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(run) == ids
    assert runtime._rows == {}
    assert peak < 3 * q * r * 8


# -- the one-count store build against the record-by-record oracle ----------

TECHNIQUE_POOL = ["a", "b", "c", "d", "e"]
PARITY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def sample_column(draw, q):
    """A (scores, correct) column of ``q`` samples: constant scores (the
    ±0.5 fallback range), scores with ties or distinct scores, and
    all-true, all-false or mixed outcomes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["constant", "ties", "distinct"]))
    if shape == "constant":
        scores = np.full(q, rng.uniform(-1, 1))
    elif shape == "ties":
        scores = rng.choice([-0.5, 0.0, 0.25, 1.0], q)
    else:
        scores = rng.uniform(-1, 1, q)
    outcome = draw(st.sampled_from(["true", "false", "mixed"]))
    if outcome == "mixed":
        return scores, rng.random(q) < rng.random()
    return scores, np.full(q, outcome == "true")


@st.composite
def calibration_runs(draw, min_techniques=0):
    """(run, technique ids, build_store keywords): 0-5 distinct techniques,
    ids that may repeat, Q from min_samples to 60 and bins from 2 to Q."""
    min_samples = draw(st.integers(1, 12))
    q = draw(st.integers(max(min_samples, 2), 60))
    ids = draw(
        st.lists(st.sampled_from(TECHNIQUE_POOL), min_size=min_techniques, max_size=7)
    )
    run = {tid: draw(sample_column(q)) for tid in dict.fromkeys(ids)}
    kwargs = {
        "bins": draw(st.integers(2, q)),
        "alpha": draw(st.floats(0, 3, exclude_min=True)),
        "min_samples": min_samples,
    }
    return run, ids, kwargs


def store_bytes(build, path, run, ids, kwargs):
    """The SFCAL bytes of ``build(run, ids, **kwargs)``, or the type and
    message of the exception it raised."""
    try:
        store = build(run, ids, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    save_store(store, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stores")


@PARITY
@given(calibration_runs())
def test_build_store_bytes_match_the_record_by_record_build(store_dir, case):
    built = store_bytes(build_store, store_dir / "one", *case)
    assert isinstance(built, bytes), built
    assert built == store_bytes(oracle.build_store, store_dir / "each", *case)


def _nan_score(scores, correct):
    return np.where(np.arange(len(scores)) == len(scores) // 2, math.nan, scores), correct


def _two_d_scores(scores, correct):
    return scores[:, None], correct


def _short_scores(scores, correct):
    return scores[1:], correct


def _short_flags(scores, correct):
    return scores, correct[1:]


def _int_flags(scores, correct):
    return scores, correct.astype(np.int64)


# faults in one technique's (scores, correct) columns
COLUMN_FAULTS = [_nan_score, _two_d_scores, _short_scores, _short_flags, _int_flags]


@PARITY
@given(calibration_runs(min_techniques=1), st.data())
def test_build_store_raises_todays_errors_in_todays_order(store_dir, case, data):
    """Faults in the columns of several techniques at once raise the first
    error the record-by-record build raises; a missing technique, too few
    samples, a bins below 2, a bad alpha and a range too wide or too narrow
    to bin each raise its exception too.  Every one is an ``SF-*`` error:
    a bins below 2 and a range that cannot be binned raise ``SF-INPUT``,
    not NumPy's ``ValueError``."""
    run, ids, kwargs = case
    kind = data.draw(st.sampled_from(
        ["columns", "missing", "short", "bins", "alpha", "range"]
    ))
    if kind == "columns":
        faults = data.draw(st.lists(
            st.tuples(st.sampled_from(COLUMN_FAULTS), st.sampled_from(ids)),
            min_size=1, max_size=3,
        ))
        for fault, tid in faults:
            run[tid] = fault(*run[tid])
    elif kind == "missing":
        ids.insert(data.draw(st.integers(0, len(ids))), "absent")
    elif kind == "short":
        kwargs["min_samples"] = len(run[ids[0]][0]) + data.draw(st.integers(1, 5))
    elif kind == "bins":
        kwargs["bins"] = data.draw(st.sampled_from([1, 0, -1, -7]))
    elif kind == "alpha":
        kwargs["alpha"] = data.draw(st.sampled_from([-0.5, math.nan, math.inf]))
    else:  # a constant 1e17 column's ±0.5 range, or a span past float64's
        tid = data.draw(st.sampled_from(ids))
        scores, correct = run[tid]
        wide = np.where(np.arange(len(scores)) % 2, 1e308, -1e308)
        run[tid] = data.draw(st.sampled_from([np.full_like(scores, 1e17), wide])), correct
    expected = store_bytes(oracle.build_store, store_dir / "each", *case)
    assert not isinstance(expected, bytes)
    assert issubclass(expected[0], SwitchFuseError), expected
    if kind in ("bins", "range"):
        assert expected[0] is InvalidInputError, expected
    assert store_bytes(build_store, store_dir / "one", *case) == expected


def test_build_store_peak_memory_is_linear_in_the_columns():
    """``build_store`` at T = 9 techniques and Q = 1000 queries allocates,
    beyond the store it returns, less than four T x Q int64 arrays at its
    peak: the outcome offsets, one primary's codes and NumPy's 64 KB
    broadcast buffer.  A Q-long mask or index subset kept for each of the
    T^2 histograms would exceed the bound."""
    rng = np.random.default_rng(31)
    t, q = 9, 1000
    ids = [f"t{i}" for i in range(t)]
    run = {tid: (rng.uniform(-1, 1, q), rng.random(q) < 0.5) for tid in ids}
    tracemalloc.start()
    try:
        store = build_store(run, ids)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store.pairs) == t * (t - 1)
    assert peak - kept < 4 * t * q * 8
