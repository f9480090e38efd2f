from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from switchfuse import (
    CalibrationStore,
    SimilarityVector,
    TripartiteConfig,
    UnitConfig,
    complementarity,
    posterior_match,
    run_tripartite,
    select_technique,
)
from switchfuse.switching import SwitchingTables, select_block
from switchfuse.calibration import (
    LikelihoodHistogram,
    PairCalibration,
    TechniqueCalibration,
)
from switchfuse.descriptors import MatchScore
from switchfuse.errors import (
    InvalidInputError,
    SwitchFuseError,
    UndefinedEvidenceError,
)


def hist(counts_m, counts_mm, lo=0.0, hi=1.0, alpha=1.0):
    counts_m = np.asarray(counts_m, dtype=np.int64)
    counts_mm = np.asarray(counts_mm, dtype=np.int64)
    return LikelihoodHistogram(
        bin_count=len(counts_m),
        lo=lo,
        hi=hi,
        counts_matched=counts_m,
        counts_mismatched=counts_mm,
        smoothing_alpha=alpha,
    )


def flat_calib(tid, prior, bins=2):
    return TechniqueCalibration(
        technique_id=tid,
        prior_match=prior,
        histogram=hist([0] * bins, [0] * bins),
        sample_count=10,
    )


def flat_pair(a, b, bins=2):
    return PairCalibration(primary_id=a, candidate_id=b, histogram=hist([0] * bins, [0] * bins))


def flat_store(priors: dict[str, float]) -> CalibrationStore:
    """Uniform histograms everywhere: posterior equals the prior and every
    complementarity is 1, so behavior is fully controlled by the priors."""
    store = CalibrationStore()
    for tid, p in priors.items():
        store.techniques[tid] = flat_calib(tid, p)
    for a in priors:
        for b in priors:
            if a != b:
                store.pairs[(a, b)] = flat_pair(a, b)
    return store


def constant_scores(value=0.5):
    return lambda tid: MatchScore(value=value, best_index=0)


class TestPosterior:
    def test_uninformative_evidence(self):
        assert posterior_match(0.3, 0.2, 0.2) == pytest.approx(0.3)

    def test_decisive_evidence(self):
        assert posterior_match(0.3, 0.5, 0.0) == 1.0

    def test_hand_value(self):
        assert posterior_match(0.4, 0.9, 0.1) == pytest.approx(0.36 / 0.42)

    def test_zero_denominator(self):
        with pytest.raises(UndefinedEvidenceError):
            posterior_match(0.5, 0.0, 0.0)

    def test_invalid_prior(self):
        with pytest.raises(InvalidInputError):
            posterior_match(0.0, 0.5, 0.5)

    @given(
        st.floats(0.01, 0.99),
        st.floats(1e-6, 1.0),
        st.floats(1e-6, 1.0),
    )
    def test_bounded(self, prior, lm, lmm):
        post = posterior_match(prior, lm, lmm)
        assert 0.0 <= post <= 1.0

    @given(
        st.floats(0.01, 0.99),
        st.floats(1e-6, 1.0),
        st.floats(1e-6, 1.0),
        st.floats(1e-6, 0.5),
    )
    def test_monotonic_in_likelihoods(self, prior, lm, lmm, delta):
        base = posterior_match(prior, lm, lmm)
        assert posterior_match(prior, lm + delta, lmm) >= base
        assert posterior_match(prior, lm, lmm + delta) <= base


class TestComplementarity:
    def test_neutral_ratio(self):
        calib = flat_calib("a", 0.5)
        pair = flat_pair("a", "b")
        assert complementarity(pair, calib, 0.3).value == pytest.approx(1.0)

    def test_hand_value(self):
        # two bins, score in the upper bin; choose counts so smoothed
        # masses hit 0.6/0.3 (self) and 0.5/0.25 (pair) exactly
        calib = TechniqueCalibration(
            "a", 0.5, hist([3, 5], [6, 2], alpha=0.5), 16
        )
        assert calib.histogram.mass(0.75, "match") == pytest.approx(5.5 / 9.0)
        pair = flat_pair("a", "b")
        value = complementarity(pair, calib, 0.75).value
        own_ratio = calib.histogram.mass(0.75, "match") / calib.histogram.mass(
            0.75, "mismatch"
        )
        assert value == pytest.approx(own_ratio)

    def test_explicit_four_terms(self):
        # P(M_A)=0.6, P(MM_A)=0.3, P(M_B)=0.5, P(MM_B)=0.25 -> 4.0
        self_h = hist([2, 4], [4, 1], alpha=1.0)  # upper-bin: 5/8, 2/7
        calib = TechniqueCalibration("a", 0.5, self_h, 11)
        pm_a = calib.histogram.mass(0.9, "match")
        pmm_a = calib.histogram.mass(0.9, "mismatch")
        pair_h = hist([1, 3], [5, 1], alpha=1.0)
        pair = PairCalibration("a", "b", pair_h)
        pm_b = pair.histogram.mass(0.9, "match")
        pmm_b = pair.histogram.mass(0.9, "mismatch")
        got = complementarity(pair, calib, 0.9).value
        assert got == pytest.approx((pm_a * pm_b) / (pmm_a * pmm_b))

    def test_candidate_neutral_reduces_to_own_ratio(self):
        calib = TechniqueCalibration("a", 0.5, hist([1, 7], [6, 0]), 14)
        pair = flat_pair("a", "b")
        own = calib.histogram.mass(0.9, "match") / calib.histogram.mass(
            0.9, "mismatch"
        )
        assert complementarity(pair, calib, 0.9).value == pytest.approx(own)

    def test_common_scaling_preserves_argmax(self):
        # scaling all four terms by one positive constant scales every
        # candidate's ratio identically, leaving the ranking unchanged
        rng = np.random.default_rng(5)
        for _ in range(50):
            terms = {
                c: rng.uniform(0.05, 0.95, size=4) for c in ("b", "c", "d")
            }
            scale = rng.uniform(0.1, 10.0)
            def ratio(t, s=1.0):
                return (s * t[0] * s * t[1]) / (s * t[2] * s * t[3])
            base = max(terms, key=lambda c: ratio(terms[c]))
            scaled = max(terms, key=lambda c: ratio(terms[c], scale))
            assert base == scaled


class TestSelection:
    def test_immediate_acceptance(self):
        store = flat_store({"a": 0.9, "b": 0.5})
        unit = UnitConfig("u", ("a", "b"))
        d = select_technique(unit, constant_scores(), store)
        assert d.selected_technique == "a"
        assert not d.fallback_used
        assert len(d.trace) == 1

    def test_single_switch(self):
        store = flat_store({"a": 0.2, "b": 0.7})
        unit = UnitConfig("u", ("a", "b"))
        d = select_technique(unit, constant_scores(), store)
        assert d.selected_technique == "b"
        assert not d.fallback_used
        assert [s.technique_id for s in d.trace] == ["a", "b"]

    def test_fallback_max_posterior(self):
        # enumerating the loop by hand: A(0.2) hops (flat complementarity,
        # tie to earlier position) to B(0.4), then C(0.3); nothing clears
        # 0.5 so fallback selects B
        store = flat_store({"a": 0.2, "b": 0.4, "c": 0.3})
        unit = UnitConfig("u", ("a", "b", "c"))
        d = select_technique(unit, constant_scores(), store)
        assert d.selected_technique == "b"
        assert d.fallback_used
        assert d.selected_posterior == pytest.approx(0.4)
        assert [s.technique_id for s in d.trace] == ["a", "b", "c"]

    def test_single_technique_unit(self):
        store = flat_store({"a": 0.2})
        d = select_technique(UnitConfig("u", ("a",)), constant_scores(), store)
        assert d.selected_technique == "a"
        assert d.fallback_used

    def test_trace_has_complementarities_on_hops(self):
        store = flat_store({"a": 0.1, "b": 0.1, "c": 0.9})
        unit = UnitConfig("u", ("a", "b", "c"))
        d = select_technique(unit, constant_scores(), store)
        assert len(d.trace[0].complementarities) == 2
        assert d.selected_technique == "c" or d.selected_technique == "b"


def make_sim_provider(values_by_tid, counter=None):
    def provider(tid):
        if counter is not None:
            counter[tid] = counter.get(tid, 0) + 1
        return SimilarityVector(tid, values_by_tid[tid])

    return provider


class TestTripartite:
    def test_three_primaries_accepted(self):
        priors = {f"t{i}": 0.9 for i in range(6)}
        store = flat_store(priors)
        config = TripartiteConfig(
            units=(
                UnitConfig("u0", ("t0", "t1")),
                UnitConfig("u1", ("t2", "t3")),
                UnitConfig("u2", ("t4", "t5")),
            )
        )
        sims = {tid: [0.1, 0.9, 0.2] for tid in priors}
        result = run_tripartite(config, make_sim_provider(sims), store)
        assert result.selected_ids() == ["t0", "t2", "t4"]
        assert all(not d.fallback_used for d in result.decisions)

    def test_single_unit_config(self):
        store = flat_store({"a": 0.9, "b": 0.9})
        config = TripartiteConfig(units=(UnitConfig("only", ("a", "b")),))
        sims = {tid: [0.3, 0.6] for tid in ("a", "b")}
        result = run_tripartite(config, make_sim_provider(sims), store)
        assert len(result.decisions) == 1

    def test_shared_technique_cached_once_duplicates_kept(self):
        store = flat_store({"shared": 0.9, "x": 0.5, "y": 0.5})
        config = TripartiteConfig(
            units=(
                UnitConfig("u0", ("shared", "x")),
                UnitConfig("u1", ("shared", "y")),
            )
        )
        counter = {}
        sims = {tid: [0.2, 0.8] for tid in ("shared", "x", "y")}
        result = run_tripartite(config, make_sim_provider(sims, counter), store)
        assert result.selected_ids() == ["shared", "shared"]
        assert counter == {"shared": 1}

    def test_no_double_similarity_computation(self):
        priors = {f"t{i}": 0.1 for i in range(4)}
        store = flat_store(priors)
        config = TripartiteConfig(
            units=(
                UnitConfig("u0", ("t0", "t1", "t2", "t3")),
                UnitConfig("u1", ("t3", "t2", "t1", "t0")),
            )
        )
        counter = {}
        sims = {tid: [0.4, 0.5] for tid in priors}
        result = run_tripartite(config, make_sim_provider(sims, counter), store)
        assert all(v == 1 for v in counter.values())
        for tid in result.selected_ids():
            assert tid in result.similarity_cache


def random_store(rng, tids):
    store = CalibrationStore()
    for tid in tids:
        store.techniques[tid] = TechniqueCalibration(
            technique_id=tid,
            prior_match=float(rng.uniform(0.01, 0.99)),
            histogram=hist(
                rng.integers(0, 20, size=4),
                rng.integers(0, 20, size=4),
                lo=-1.0,
                hi=1.0,
            ),
            sample_count=20,
        )
    for a in tids:
        for b in tids:
            if a != b:
                store.pairs[(a, b)] = PairCalibration(
                    a,
                    b,
                    hist(
                        rng.integers(0, 20, size=4),
                        rng.integers(0, 20, size=4),
                        lo=-1.0,
                        hi=1.0,
                    ),
                )
    return store


def test_fuzzed_switching_terminates_and_is_valid():
    rng = np.random.default_rng(2024)
    for _ in range(1500):
        n = int(rng.integers(2, 9))
        tids = tuple(f"t{i}" for i in range(n))
        store = random_store(rng, tids)
        unit = UnitConfig("fuzz", tids)
        scores = {tid: float(rng.uniform(-1, 1)) for tid in tids}
        d = select_technique(
            unit, lambda tid: MatchScore(scores[tid], 0), store, threshold=0.5
        )
        visited = [s.technique_id for s in d.trace]
        assert len(visited) == len(set(visited))
        assert len(visited) <= n
        assert d.selected_technique in tids
        if d.fallback_used:
            assert all(s.posterior <= 0.5 for s in d.trace)
            assert d.selected_posterior == max(s.posterior for s in d.trace)
        else:
            assert d.selected_posterior > 0.5


def test_config_validation():
    with pytest.raises(InvalidInputError):
        UnitConfig("u", ())
    with pytest.raises(InvalidInputError):
        UnitConfig("u", tuple(f"t{i}" for i in range(9)))
    with pytest.raises(InvalidInputError):
        UnitConfig("u", ("a", "a"))
    with pytest.raises(InvalidInputError):
        TripartiteConfig(units=())
    with pytest.raises(InvalidInputError):
        TripartiteConfig(
            units=(UnitConfig("u", ("a", "b")),), posterior_threshold=1.0
        )


def ragged_store(rng, tids, alpha=1.0):
    """Fuzzed store whose histograms each have their own lo/hi/bin count,
    so a pair's bins do not line up with its primary's."""

    def ragged_hist():
        bins = int(rng.integers(2, 7))
        lo = float(rng.uniform(-1.2, 0.2))
        return hist(
            rng.integers(0, 6, size=bins),
            rng.integers(0, 6, size=bins),
            lo=lo,
            hi=lo + float(rng.uniform(0.3, 2.0)),
            alpha=alpha,
        )

    store = CalibrationStore()
    for tid in tids:
        store.techniques[tid] = TechniqueCalibration(
            tid, float(rng.uniform(0.01, 0.99)), ragged_hist(), 20
        )
    for a in tids:
        for b in tids:
            if a != b:
                store.pairs[(a, b)] = PairCalibration(a, b, ragged_hist())
    return store


def edge_scores(store, tids):
    """Every histogram's lo and hi, one interior bin edge each and the
    clamped range beyond them."""
    hists = [store.techniques[t].histogram for t in tids]
    hists += [p.histogram for p in store.pairs.values()]
    out = [-1.5, 1.5]
    for h in hists:
        out += [h.lo, h.hi, h.lo + (h.hi - h.lo) / h.bin_count]
    return np.asarray(out)


def oracle_outcome(pool, scores, store, threshold):
    """select_technique for one query: (decision, None) or (None, error)."""
    unit = SimpleNamespace(label="pool", techniques=pool)
    try:
        return select_technique(
            unit, lambda tid: MatchScore(scores[tid], 0), store, threshold
        ), None
    except SwitchFuseError as exc:
        return None, type(exc)


def run_block(pool, score_rows, store, threshold, asked=None):
    """select_block over every row of ``score_rows`` (queries x pool),
    recording each (query, technique) whose score it reads in ``asked``."""

    def match_scores(tid, queries):
        if asked is not None:
            asked.extend((int(q), tid) for q in queries)
        return score_rows[queries, pool.index(tid)]

    return select_block(
        pool, match_scores, SwitchingTables(store), threshold, len(score_rows)
    )


def assert_block_matches_oracle(pool, score_rows, store, threshold=0.5):
    """Compare select_block with the scalar loop on every query, errors
    included: a query the oracle fails must fail alone and fail its block."""
    oracle = [
        oracle_outcome(pool, dict(zip(pool, row.tolist())), store, threshold)
        for row in score_rows
    ]
    errors = {err for _, err in oracle if err is not None}
    if errors:
        with pytest.raises(tuple(errors)):
            run_block(pool, score_rows, store, threshold)
        for q, (decision, err) in enumerate(oracle):
            single = score_rows[q : q + 1]
            if err is not None:
                with pytest.raises(err):
                    run_block(pool, single, store, threshold)
            else:
                got = run_block(pool, single, store, threshold)
                assert pool[got.selected[0]] == decision.selected_technique
        return
    asked = []
    got = run_block(pool, score_rows, store, threshold, asked)
    for q, (decision, _) in enumerate(oracle):
        assert pool[got.selected[q]] == decision.selected_technique
        assert got.posterior[q] == decision.selected_posterior  # bit for bit
        assert bool(got.fallback[q]) == decision.fallback_used
        assert got.hops[q] == len(decision.trace) - 1
    # scores are read only for the (query, technique) pairs the loop visits
    visited = [
        (q, step.technique_id)
        for q, (decision, _) in enumerate(oracle)
        for step in decision.trace
    ]
    assert sorted(asked) == sorted(visited)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_block_loop_matches_scalar_oracle(k):
    rng = np.random.default_rng(300 + k)
    tids = tuple(f"t{i}" for i in range(k))
    for trial in range(40):
        threshold = float(rng.choice([0.5, 0.3, 0.8]))
        if trial % 4 == 3:
            # posterior equals the prior; priors at the threshold must hop
            priors = rng.choice([0.5, 0.2, 0.7], size=k)
            store, threshold = flat_store(dict(zip(tids, priors))), 0.5
        else:
            store = (random_store if trial % 2 else ragged_store)(rng, tids)
        edges = edge_scores(store, tids)
        rows = rng.uniform(-1.2, 1.2, size=(30, k))
        rows[:10] = rng.choice(edges, size=(10, k))
        rows[10:15] = rows[10:15, :1]  # every technique scores the same
        assert_block_matches_oracle(tids, rows, store, threshold)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_block_loop_matches_oracle_on_unsmoothed_stores():
    # alpha 0 leaves empty bins with zero mass (and all-NaN masses when a
    # hypothesis has no counts): both loops raise SF-EVIDENCE on the same
    # queries and agree on every other one
    rng = np.random.default_rng(77)
    raised = 0
    for _ in range(200):
        k = int(rng.integers(1, 10))
        tids = tuple(f"t{i}" for i in range(k))
        store = ragged_store(rng, tids, alpha=0.0)
        rows = rng.choice(edge_scores(store, tids), size=(8, k))
        assert_block_matches_oracle(tids, rows, store)
        raised += any(
            oracle_outcome(tids, dict(zip(tids, r.tolist())), store, 0.5)[1]
            for r in rows
        )
    assert 0 < raised < 200


@given(
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 0.95),
    st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=12),
)
def test_block_loop_matches_oracle_property(k, seed, threshold, values):
    rng = np.random.default_rng(seed)
    tids = tuple(f"t{i}" for i in range(k))
    store = ragged_store(rng, tids)
    pick = np.concatenate([np.asarray(values), edge_scores(store, tids)])
    rows = rng.choice(pick, size=(6, k))
    assert_block_matches_oracle(tids, rows, store, threshold)
