"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:
run with ``pytest tests/test_acceptance.py -s``.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from switchfuse import ImageGray, TripartiteConfig, UnitConfig, compute_descriptor
from switchfuse.calibration import (
    LikelihoodHistogram,
    TechniqueCalibration,
    build_store,
    collect_run,
)
from switchfuse.cli import main as cli_main
from switchfuse.synthetic import (
    TechniqueProfile,
    generate,
    split_calibration_eval,
)
from tests.exported import exported_runtime, scored_run
from tests.oracle import (
    MATCH,
    MISMATCH,
    MatchScore,
    QueryOutcome,
    SimilarityVector,
    best_match,
    bin_index,
    fuse,
    mass,
    normalize,
    posterior_match,
    pr_curve,
    select_technique,
)
from tests.test_hog_oracle import ref_hog, step_edge_image
from tests.test_switching import random_store


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def random_histogram(rng, bins):
    return LikelihoodHistogram(
        bin_count=bins,
        lo=-1.0,
        hi=1.0,
        counts_matched=rng.integers(0, 50, size=bins),
        counts_mismatched=rng.integers(0, 50, size=bins),
        smoothing_alpha=float(rng.uniform(0.1, 2.0)),
    )


def brute_force_posterior(prior, hist, score):
    """Enumerate the smoothed joint count table (prior x binned likelihood)
    and read the conditional directly."""
    b = bin_index(hist, score)
    joint = np.empty((hist.bin_count, 2))
    for i in range(hist.bin_count):
        m_masses = hist.matched_masses
        mm_masses = hist.mismatched_masses
        joint[i, 0] = prior * m_masses[i]
        joint[i, 1] = (1.0 - prior) * mm_masses[i]
    return joint[b, 0] / joint[b].sum()


def test_criterion_1_bayes_oracle_equivalence():
    with criterion(1, "Bayes oracle equivalence"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(200):
            bins = int(rng.integers(2, 30))
            hist = random_histogram(rng, bins)
            prior = float(rng.uniform(0.01, 0.99))
            score = float(rng.uniform(-1.5, 1.5))
            fast = posterior_match(
                prior,
                mass(hist, score, MATCH),
                mass(hist, score, MISMATCH),
            )
            slow = brute_force_posterior(prior, hist, score)
            assert abs(fast - slow) <= 1e-9
        assert time.monotonic() - start < 5.0


def test_criterion_2_normalization_contract():
    with criterion(2, "normalization endpoints"):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            scores = rng.uniform(-1, 1, size=n)
            if scores.max() == scores.min():
                scores[0] += 0.5
            out = normalize(SimilarityVector("t", scores)).values
            assert abs(out.min() - (-0.001)) <= 1e-12
            assert abs(out.max() - 0.999) <= 1e-12


def test_criterion_3_affine_invariance():
    with criterion(3, "affine invariance of selection"):
        rng = np.random.default_rng(103)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            s = rng.uniform(-1, 1, size=n)
            t = rng.uniform(-1, 1, size=n)
            a = float(rng.uniform(0.01, 50.0))
            b = float(rng.uniform(-10.0, 10.0))
            base = fuse(
                [
                    normalize(SimilarityVector("s", s)),
                    normalize(SimilarityVector("t", t)),
                ]
            )
            scaled = fuse(
                [
                    normalize(SimilarityVector("s", a * s + b)),
                    normalize(SimilarityVector("t", t)),
                ]
            )
            assert best_match(base)[0] == best_match(scaled)[0]


def test_criterion_4_switching_termination():
    with criterion(4, "switching termination and trace validity"):
        rng = np.random.default_rng(104)
        for _ in range(10_000):
            n = int(rng.integers(2, 9))
            tids = tuple(f"t{i}" for i in range(n))
            store = random_store(rng, tids)
            scores = {tid: float(rng.uniform(-1, 1)) for tid in tids}
            d = select_technique(
                UnitConfig("fuzz", tids),
                lambda tid: MatchScore(scores[tid], 0),
                store,
                threshold=0.5,
            )
            visited = [s.technique_id for s in d.trace]
            assert len(visited) == len(set(visited)) <= n
            assert d.selected_technique in tids
            if all(s.posterior <= 0.5 for s in d.trace):
                assert d.fallback_used
                assert d.selected_posterior == max(s.posterior for s in d.trace)


ACCEPTANCE_SEED = 7
TECHNIQUE_IDS = [f"t{u}{i}" for u in range(3) for i in range(3)]
CORRECT_RATES = [0.45, 0.55, 0.65, 0.5, 0.6, 0.45, 0.55, 0.65, 0.5]

# frozen by the oracle run of this same pipeline at build time (seed 7,
# 2000 queries, 200 references, 0.5 calibration split) on the generator's
# raw float64 rows.  Criterion 5 reads the same rows through the SFDESC
# export, as the CLI does; the export's per-split scale moves switch-only to
# 0.983, inside the tolerance, and every other value reads as frozen.
EXPECTED_ACCURACY = {
    "switch-fuse": 0.999,
    "switch-only": 0.984,
    "fuse-all": 1.000,
    "single:t00": 0.462,
    "single:t01": 0.559,
    "single:t02": 0.634,
    "single:t10": 0.501,
    "single:t11": 0.617,
    "single:t12": 0.433,
    "single:t20": 0.539,
    "single:t21": 0.664,
    "single:t22": 0.516,
}


def acceptance_profiles():
    profiles = []
    for u in range(3):
        rates = CORRECT_RATES[3 * u : 3 * u + 3]
        tids = TECHNIQUE_IDS[3 * u : 3 * u + 3]
        for k, (tid, rate) in enumerate(zip(tids, rates)):
            overlaps = {}
            if k == 0:
                # sub-independent joint-correct rates: complementary pairs
                overlaps = {
                    tids[1]: 0.6 * rates[0] * rates[1],
                    tids[2]: 0.8 * rates[0] * rates[2],
                }
            elif k == 1:
                overlaps = {tids[2]: 0.6 * rates[1] * rates[2]}
            profiles.append(
                TechniqueProfile(
                    technique_id=tid,
                    correct_rate=rate,
                    mean_m=0.75,
                    sd_m=0.08,
                    mean_mm=0.45,
                    sd_mm=0.08,
                    overlaps=overlaps,
                )
            )
    return profiles


def acceptance_config():
    return TripartiteConfig(
        units=tuple(
            UnitConfig(f"u{u}", tuple(TECHNIQUE_IDS[3 * u : 3 * u + 3]))
            for u in range(3)
        )
    )


def test_criterion_5_synthetic_superiority(tmp_path):
    with criterion(5, "synthetic end-to-end superiority"):
        start = time.monotonic()
        dataset = generate(acceptance_profiles(), 2000, 200, ACCEPTANCE_SEED)
        calib_idx, eval_idx = split_calibration_eval(
            dataset, 0.5, ACCEPTANCE_SEED
        )
        calib = exported_runtime(dataset, calib_idx, tmp_path, "calib")
        store = build_store(collect_run(calib, TECHNIQUE_IDS), TECHNIQUE_IDS)
        runtime = exported_runtime(dataset, eval_idx, tmp_path, "eval")
        gt = runtime.ground_truth()
        config = acceptance_config()
        accuracy = {}
        for method in EXPECTED_ACCURACY:
            report, _ = scored_run(method, runtime, config, store, gt)
            accuracy[method] = report.accuracy
        for method, expected in EXPECTED_ACCURACY.items():
            assert abs(accuracy[method] - expected) <= 0.005, method
        best_single = max(
            v for k, v in accuracy.items() if k.startswith("single:")
        )
        assert accuracy["switch-fuse"] >= best_single + 0.05
        assert accuracy["switch-fuse"] >= accuracy["switch-only"] - 0.01
        assert accuracy["switch-fuse"] >= accuracy["fuse-all"] - 0.01
        assert time.monotonic() - start < 60.0


def test_criterion_6_pr_curve_construction():
    with criterion(6, "PR-curve construction"):
        outs = [
            QueryOutcome(0, 0, 0.9, True),
            QueryOutcome(1, 2, 0.5, False),
        ]
        assert pr_curve(outs) == [(1.0, 0.5, 0.9), (0.5, 0.5, 0.5)]
        rng = np.random.default_rng(106)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            fuzz = [
                QueryOutcome(
                    i, 0, float(rng.uniform(0, 1)), bool(rng.random() < 0.5)
                )
                for i in range(n)
            ]
            points = pr_curve(fuzz)
            recalls = [r for _, r, _ in points]  # descending threshold order
            assert all(a <= b for a, b in zip(recalls, recalls[1:]))


def _cli_pipeline(base, seed):
    spec = base / "spec.json"
    config = base / "config.json"
    profiles = [
        dict(
            technique_id=p.technique_id,
            correct_rate=p.correct_rate,
            mean_m=p.mean_m,
            sd_m=p.sd_m,
            mean_mm=p.mean_mm,
            sd_mm=p.sd_mm,
            overlaps=p.overlaps,
        )
        for p in acceptance_profiles()
    ]
    spec.write_text(
        json.dumps(
            dict(
                query_count=200,
                reference_count=60,
                calibration_fraction=0.5,
                profiles=profiles,
            )
        )
    )
    config.write_text(
        json.dumps(
            dict(
                threshold=0.5,
                units=[
                    dict(label=u.label, techniques=list(u.techniques))
                    for u in acceptance_config().units
                ],
            )
        )
    )
    argvs = [
        ["synth", "--spec", spec, "--seed", seed, "--out", base / "data"],
        [
            "calibrate",
            "--manifest", base / "data" / "calib_manifest.json",
            "--config", config,
            "--out", base / "store.sfcal",
        ],
        [
            "run",
            "--manifest", base / "data" / "eval_manifest.json",
            "--config", config,
            "--store", base / "store.sfcal",
            "--out", base / "preds.csv",
            "--no-timestamp",
        ],
        [
            "evaluate",
            "--predictions", base / "preds.csv",
            "--manifest", base / "data" / "eval_manifest.json",
            "--out", base / "report",
            "--no-timestamp",
        ],
    ]
    for argv in argvs:
        assert cli_main([str(a) for a in argv]) == 0
    return {
        "preds": (base / "preds.csv").read_bytes(),
        "summary": (base / "report" / "switch-fuse_summary.csv").read_bytes(),
        "pr": (base / "report" / "switch-fuse_pr_points.csv").read_bytes(),
        "outcomes": (base / "report" / "switch-fuse_outcomes.csv").read_bytes(),
        "store": (base / "store.sfcal").read_bytes(),
    }


def test_criterion_7_cli_reproducibility(tmp_path, capsys):
    with criterion(7, "CLI reproducibility"):
        one = tmp_path / "one"
        two = tmp_path / "two"
        one.mkdir()
        two.mkdir()
        first = _cli_pipeline(one, seed=31)
        second = _cli_pipeline(two, seed=31)
        assert first == second


def test_criterion_8_descriptor_oracle():
    with criterion(8, "descriptor scalar oracle"):
        arr = step_edge_image()
        got = compute_descriptor(ImageGray(arr), "hog")
        want = ref_hog(arr)
        assert np.max(np.abs(got - want)) <= 1e-6
