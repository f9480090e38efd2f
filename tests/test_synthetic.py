from statistics import NormalDist

import numpy as np
import pytest

from switchfuse import synthetic
from switchfuse.calibration import build_store, collect_run
from switchfuse.datasets import DatasetRuntime, load_manifest
from switchfuse.errors import InvalidSpecError
from switchfuse.synthetic import (
    TechniqueProfile,
    export_image_dataset,
    generate,
    generate_image_dataset,
    split_calibration_eval,
)
from tests.exported import exported_runtime
from tests.oracle import is_correct, similarity
from tests.test_acceptance import ACCEPTANCE_SEED, acceptance_profiles


def profile(tid, rate, overlaps=None):
    return TechniqueProfile(
        technique_id=tid,
        correct_rate=rate,
        mean_m=0.75,
        sd_m=0.08,
        mean_mm=0.45,
        sd_mm=0.08,
        overlaps=overlaps or {},
    )


def argmax_correct(ds, tid):
    return np.array(
        [
            int(np.argmax(ds.sims[tid][q])) == int(ds.true_refs[q])
            for q in range(ds.query_count)
        ]
    )


def test_bit_exact_reproducibility():
    profiles = [profile("a", 0.6), profile("b", 0.4, {"a": 0.2})]
    d1 = generate(profiles, 50, 30, seed=5)
    d2 = generate(profiles, 50, 30, seed=5)
    assert np.array_equal(d1.true_refs, d2.true_refs)
    for tid in ("a", "b"):
        assert np.array_equal(d1.sims[tid], d2.sims[tid])
    d3 = generate(profiles, 50, 30, seed=6)
    assert not np.array_equal(d1.sims["a"], d3.sims["a"])


def test_extreme_rates_force_correctness():
    ds = generate([profile("hi", 0.999), profile("lo", 0.001)], 300, 25, seed=1)
    assert argmax_correct(ds, "hi").all()
    assert not argmax_correct(ds, "lo").any()


def test_scores_in_range():
    ds = generate([profile("a", 0.5)], 100, 20, seed=2)
    assert ds.sims["a"].min() >= -1.0
    assert ds.sims["a"].max() <= 1.0


def test_empirical_rates_match_profiles():
    profiles = [profile("a", 0.45), profile("b", 0.65)]
    ds = generate(profiles, 5000, 50, seed=3)
    assert abs(argmax_correct(ds, "a").mean() - 0.45) <= 0.02
    assert abs(argmax_correct(ds, "b").mean() - 0.65) <= 0.02


def test_empirical_overlap_matches_request():
    # independence case: joint-correct probability 0.6 * 0.6 = 0.36
    profiles = [profile("a", 0.6, {"b": 0.36}), profile("b", 0.6)]
    ds = generate(profiles, 10000, 20, seed=11)
    joint = (argmax_correct(ds, "a") & argmax_correct(ds, "b")).mean()
    assert abs(joint - 0.36) <= 0.02


def test_empirical_overlap_complementary():
    profiles = [profile("a", 0.5, {"b": 0.1}), profile("b", 0.5)]
    ds = generate(profiles, 10000, 20, seed=12)
    joint = (argmax_correct(ds, "a") & argmax_correct(ds, "b")).mean()
    assert abs(joint - 0.1) <= 0.02


def test_infeasible_overlap_rejected():
    with pytest.raises(InvalidSpecError):
        generate(
            [profile("a", 0.3, {"b": 0.4}), profile("b", 0.5)], 10, 10, seed=0
        )


def test_conflicting_overlaps_rejected():
    with pytest.raises(InvalidSpecError):
        generate(
            [profile("a", 0.5, {"b": 0.2}), profile("b", 0.5, {"a": 0.3})],
            10,
            10,
            seed=0,
        )


def test_split_disjoint_and_seeded():
    ds = generate([profile("a", 0.5)], 100, 20, seed=4)
    c1, e1 = split_calibration_eval(ds, 0.5, seed=7)
    c2, e2 = split_calibration_eval(ds, 0.5, seed=7)
    assert np.array_equal(c1, c2) and np.array_equal(e1, e2)
    assert len(set(c1) & set(e1)) == 0
    assert len(c1) + len(e1) == 100
    c3, _ = split_calibration_eval(ds, 0.5, seed=8)
    assert not np.array_equal(c1, c3)


def test_calibration_prior_tracks_profile_rate(tmp_path):
    ds = generate([profile("a", 0.55)], 2000, 50, seed=9)
    calib_idx, _ = split_calibration_eval(ds, 0.5, seed=9)
    runtime = exported_runtime(ds, calib_idx, tmp_path)
    store = build_store(collect_run(runtime, ["a"]), ["a"])
    assert abs(store.techniques["a"].prior_match - 0.55) <= 0.05


@pytest.mark.parametrize(
    "indices", [np.arange(40), np.array([5, 7, 9])], ids=["every_query", "subset"]
)
def test_export_round_trips_through_ingestion(tmp_path, indices):
    profiles = [profile("a", 0.6), profile("b", 0.5)]
    ds = generate(profiles, 40, 25, seed=13)
    runtime = exported_runtime(ds, indices, tmp_path)
    assert runtime.query_count == len(indices)
    assert runtime.reference_count == 25
    gt = runtime.ground_truth()
    # cosine against the exported basis preserves ranking, so every argmax
    # matches the in-memory dataset row of the exported query
    for q, source in enumerate(indices):
        for tid in ("a", "b"):
            exported = similarity(runtime, q, tid).scores
            direct = ds.sims[tid][source]
            assert int(np.argmax(exported)) == int(np.argmax(direct))
            # scores agree up to one global positive scale
            ratio = exported[np.abs(direct) > 1e-6] / direct[np.abs(direct) > 1e-6]
            assert np.allclose(ratio, ratio[0], rtol=1e-4)
    assert gt.accepted == tuple(frozenset({int(r)}) for r in ds.true_refs[indices])


def test_image_mode_dataset(tmp_path):
    refs, queries = generate_image_dataset(6, seed=21)
    assert len(refs) == len(queries) == 6
    manifest_path = export_image_dataset(refs, queries, tmp_path, "img")
    runtime = DatasetRuntime(load_manifest(manifest_path))
    gt = runtime.ground_truth()
    correct = 0
    for q in range(6):
        scores = similarity(runtime, q, "tiny_patch").scores
        correct += is_correct(gt, q, int(np.argmax(scores)))
    # mild perturbations: the downsampled-patch matcher should mostly hold up
    assert correct >= 4


def scipy_pair_correlation(rate_a, rate_b, overlap):
    """The generator's earlier scipy form of ``_pair_correlation``: the
    bivariate normal CDF of ``multivariate_normal`` solved by ``brentq``."""
    from scipy.optimize import brentq
    from scipy.stats import multivariate_normal, norm

    za, zb = norm.ppf(rate_a), norm.ppf(rate_b)

    def joint(rho):
        cov = [[1.0, rho], [rho, 1.0]]
        return float(multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf([za, zb]))

    lo_r, hi_r = -0.999, 0.999
    if joint(lo_r) >= overlap:
        return lo_r
    if joint(hi_r) <= overlap:
        return hi_r
    return float(brentq(lambda r: joint(r) - overlap, lo_r, hi_r, xtol=1e-6))


def acceptance_pairs():
    """(rate, rate, overlap) of every overlapping acceptance pair."""
    profiles = acceptance_profiles()
    rates = {p.technique_id: p.correct_rate for p in profiles}
    return [
        (p.correct_rate, rates[other], overlap)
        for p in profiles
        for other, overlap in p.overlaps.items()
    ]


def test_joint_cdf_and_correlation_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    normal = NormalDist()
    for rate_a, rate_b, overlap in acceptance_pairs():
        za, zb = normal.inv_cdf(rate_a), normal.inv_cdf(rate_b)
        assert za == pytest.approx(stats.norm.ppf(rate_a), rel=1e-15)
        assert zb == pytest.approx(stats.norm.ppf(rate_b), rel=1e-15)

        def scipy_joint(rho):
            cov = [[1.0, rho], [rho, 1.0]]
            return stats.multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf([za, zb])

        for rho in np.linspace(-0.9, 0.9, 19):
            assert synthetic._joint_below(za, zb, rho) == pytest.approx(
                scipy_joint(rho), abs=1e-12
            )
        rho = synthetic._pair_correlation(rate_a, rate_b, overlap)
        # brentq stops within its xtol of 1e-6; bisection runs on to 1e-12,
        # so scipy's own CDF puts the bisected root on the overlap
        assert rho == pytest.approx(
            scipy_pair_correlation(rate_a, rate_b, overlap), abs=1e-6
        )
        assert scipy_joint(rho) == pytest.approx(overlap, abs=1e-12)


class ScipyNormal:
    """``NormalDist`` stand-in whose quantile is scipy's ``norm.ppf``."""

    def inv_cdf(self, p):
        from scipy.stats import norm

        return float(norm.ppf(p))


def test_generate_is_byte_identical_to_the_scipy_forms(monkeypatch):
    pytest.importorskip("scipy")
    profiles = acceptance_profiles()
    ours = generate(profiles, 2000, 200, ACCEPTANCE_SEED)
    corr = synthetic._correlation_matrix(profiles)
    monkeypatch.setattr(synthetic, "_pair_correlation", scipy_pair_correlation)
    monkeypatch.setattr(synthetic, "NormalDist", ScipyNormal)
    scipy_corr = synthetic._correlation_matrix(profiles)
    # the two solves differ within brentq's tolerance, yet no latent lands
    # between their thresholds
    assert not np.array_equal(corr, scipy_corr)
    assert np.allclose(corr, scipy_corr, rtol=0.0, atol=1e-6)
    theirs = generate(profiles, 2000, 200, ACCEPTANCE_SEED)
    assert ours.true_refs.tobytes() == theirs.true_refs.tobytes()
    for tid in ours.technique_ids:
        assert ours.sims[tid].tobytes() == theirs.sims[tid].tobytes(), tid
