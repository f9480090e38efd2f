import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfuse import (
    CalibrationStore,
    LikelihoodHistogram,
    build_store,
    calibrate_pair,
    calibrate_technique,
    load_store,
    save_store,
)
from switchfuse.calibration import MATCH, MISMATCH, SFCAL_MAGIC
from switchfuse.errors import (
    FormatError,
    IncompleteCalibrationError,
    InsufficientDataError,
    InvalidInputError,
)

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
    calib = calibrate_technique(samples, "t")
    assert calib.prior_match == pytest.approx(0.7)
    assert calib.sample_count == 10


def test_prior_clamped():
    calib = calibrate_technique([(0.5, True)] * 10, "t")
    assert calib.prior_match == 0.99
    calib = calibrate_technique([(0.5, False)] * 10, "t")
    assert calib.prior_match == 0.01


def test_laplace_smoothing_hand_value():
    # 0.1 mismatched x5, 0.9 matched x5, 2 bins, alpha 1
    samples = [(0.1, False)] * 5 + [(0.9, True)] * 5
    calib = calibrate_technique(samples, "t", bins=2, alpha=1.0)
    hi_bin_mass = calib.histogram.mass(0.9, MATCH)
    assert hi_bin_mass == pytest.approx(6.0 / 7.0)
    assert calib.histogram.mass(0.1, MATCH) == pytest.approx(1.0 / 7.0)


def test_too_few_samples():
    with pytest.raises(InsufficientDataError):
        calibrate_technique([(0.5, True)] * 9, "t")


def test_degenerate_range_fallback():
    calib = calibrate_technique([(0.3, True)] * 10, "t")
    assert calib.histogram.lo == pytest.approx(-0.2)
    assert calib.histogram.hi == pytest.approx(0.8)


def test_pair_all_candidate_matched_uniform_mismatch_side():
    pair = calibrate_pair([(0.5, True)] * 12, "a", "b", bins=4, alpha=1.0)
    masses = pair.histogram.masses(MISMATCH)
    assert np.allclose(masses, 0.25)


def test_pair_symmetric_samples():
    samples = [(0.2, True), (0.2, False), (0.8, True), (0.8, False)] * 3
    pair = calibrate_pair(samples, "a", "b", bins=2)
    assert np.allclose(
        pair.histogram.masses(MATCH), pair.histogram.masses(MISMATCH)
    )


def test_pair_hand_values():
    # 0.2 with candidate mismatched x4, 0.8 with candidate matched x4
    samples = [(0.2, False)] * 4 + [(0.8, True)] * 4
    pair = calibrate_pair(samples, "a", "b", bins=2, alpha=1.0, min_samples=8)
    assert pair.histogram.mass(0.8, MATCH) == pytest.approx(5.0 / 6.0)
    assert pair.histogram.mass(0.8, MISMATCH) == pytest.approx(1.0 / 6.0)


def test_likelihood_uniform_when_empty():
    hist = uniform_hist(bins=20)
    for score in (-5.0, 0.0, 0.33, 2.0):
        assert hist.mass(score, MATCH) == pytest.approx(1.0 / 20.0)


def test_likelihood_edge_clamping():
    hist = LikelihoodHistogram(
        bin_count=2,
        lo=0.0,
        hi=1.0,
        counts_matched=np.array([3, 1]),
        counts_mismatched=np.zeros(2, dtype=np.int64),
    )
    assert hist.mass(-10.0, MATCH) == hist.mass(0.0, MATCH)
    assert hist.mass(10.0, MATCH) == hist.mass(1.0, MATCH)


def test_likelihood_hand_value():
    hist = LikelihoodHistogram(
        bin_count=2,
        lo=0.0,
        hi=1.0,
        counts_matched=np.array([3, 1]),
        counts_mismatched=np.zeros(2, dtype=np.int64),
    )
    assert hist.mass(0.25, MATCH) == pytest.approx(4.0 / 6.0)


def test_likelihood_non_finite_rejected():
    hist = uniform_hist()
    with pytest.raises(InvalidInputError):
        hist.mass(float("nan"), MATCH)


@given(samples_strategy)
def test_masses_sum_to_one(samples):
    calib = calibrate_technique(samples, "t")
    for hyp in (MATCH, MISMATCH):
        assert calib.histogram.masses(hyp).sum() == pytest.approx(1.0, abs=1e-9)


@given(samples_strategy)
def test_likelihood_strictly_positive(samples):
    calib = calibrate_technique(samples, "t")
    for score in (-10.0, 0.0, 0.5, 10.0):
        assert calib.histogram.mass(score, MATCH) > 0.0
        assert calib.histogram.mass(score, MISMATCH) > 0.0


@given(samples_strategy, st.randoms(use_true_random=False))
def test_permutation_invariance(samples, rnd):
    shuffled = list(samples)
    rnd.shuffle(shuffled)
    a = calibrate_technique(samples, "t")
    b = calibrate_technique(shuffled, "t")
    assert a.prior_match == b.prior_match
    assert np.array_equal(a.histogram.counts_matched, b.histogram.counts_matched)
    assert np.array_equal(
        a.histogram.counts_mismatched, b.histogram.counts_mismatched
    )
    assert a.histogram.lo == b.histogram.lo and a.histogram.hi == b.histogram.hi


def _random_run(rng, techniques, n=40):
    run = {}
    for tid in techniques:
        run[tid] = [
            (float(rng.uniform(-1, 1)), bool(rng.random() < 0.5)) for _ in range(n)
        ]
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
            store.pairs[key].histogram.counts_matched,
            loaded.pairs[key].histogram.counts_matched,
        )


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
