import json
from pathlib import Path

import numpy as np
import pytest

from switchfuse import datasets
from switchfuse.calibration import build_store, collect_run, save_store
from switchfuse.cli import main as cli_main
from switchfuse.datasets import DatasetRuntime, load_manifest, save_config
from switchfuse.errors import FormatError, InvalidInputError
from switchfuse.evaluation import run_method
from switchfuse.switching import TripartiteConfig, UnitConfig, run_tripartite
from switchfuse.synthetic import (
    TechniqueProfile,
    calibration_run,
    export_dataset,
    export_image_dataset,
    generate,
    generate_image_dataset,
    split_calibration_eval,
)

TECHNIQUES = ("a", "b", "c")


def profile(tid, rate):
    return TechniqueProfile(
        technique_id=tid,
        correct_rate=rate,
        mean_m=0.75,
        sd_m=0.08,
        mean_mm=0.45,
        sd_mm=0.08,
    )


@pytest.fixture
def score_dataset(tmp_path):
    ds = generate(
        [profile(t, r) for t, r in zip(TECHNIQUES, (0.6, 0.5, 0.55))],
        120, 20, seed=17,
    )
    calib_idx, eval_idx = split_calibration_eval(ds, 0.5, seed=17)
    manifest_path = export_dataset(ds, eval_idx, tmp_path, "eval")
    store = build_store(calibration_run(ds, calib_idx), list(TECHNIQUES))
    return manifest_path, store


def test_sfdesc_query_index_range(score_dataset):
    runtime = DatasetRuntime(load_manifest(score_dataset[0]))
    last = runtime.query_count - 1
    assert len(runtime.similarity(last, "a")) == runtime.reference_count
    for q in (-1, runtime.query_count):
        with pytest.raises(InvalidInputError):
            runtime.similarity(q, "a")


def test_builtin_query_index_range(tmp_path):
    refs, queries = generate_image_dataset(3, seed=21)
    runtime = DatasetRuntime(
        load_manifest(export_image_dataset(refs, queries, tmp_path, "img"))
    )
    assert len(runtime.similarity(2, "tiny_patch")) == 3
    for q in (-1, 3):
        with pytest.raises(InvalidInputError):
            runtime.similarity(q, "tiny_patch")


def test_block_kernel_runs_once_per_technique_across_methods(
    score_dataset, monkeypatch
):
    calls = []
    kernel = datasets.similarity_block

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(datasets, "similarity_block", counted)
    manifest_path, store = score_dataset
    runtime = DatasetRuntime(load_manifest(manifest_path))
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "a")))
    )
    gt = runtime.ground_truth()
    methods = ["switch-fuse", "switch-only", "fuse-all"] + [
        f"single:{t}" for t in TECHNIQUES
    ]
    for method in methods:
        run_method(method, runtime, config, store, gt)
    assert len(calls) == len(TECHNIQUES)


def test_truncated_sfdesc_fails_at_construction(score_dataset):
    manifest = load_manifest(score_dataset[0])
    path = manifest.base_dir / manifest.bindings["b"].queries_path
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        DatasetRuntime(manifest)


def test_each_descriptor_file_is_read_once(score_dataset, monkeypatch):
    # every technique binds the same reference file
    reads = []
    load = datasets.load_descriptor_set

    def counted(path, *args, **kwargs):
        reads.append(Path(path).name)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(datasets, "load_descriptor_set", counted)
    manifest_path, store = score_dataset
    runtime = DatasetRuntime(load_manifest(manifest_path))
    config = TripartiteConfig(units=(UnitConfig("u0", TECHNIQUES),))
    for method in ["switch-fuse", "fuse-all"] + [f"single:{t}" for t in TECHNIQUES]:
        run_method(method, runtime, config, store, runtime.ground_truth())
    assert sorted(reads) == sorted(
        ["eval_refs.sfdesc"] + [f"eval_queries_{t}.sfdesc" for t in TECHNIQUES]
    )


def test_builtin_extraction_stays_lazy(tmp_path, monkeypatch):
    """``run`` computes a built-in descriptor only for the references of a
    technique some query visits and for each visited (query, technique)."""
    splits = {}
    for split, seed in (("calib", 5), ("eval", 6)):
        refs, queries = generate_image_dataset(12, seed=seed, size=32)
        splits[split] = export_image_dataset(refs, queries, tmp_path / split, split)
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("intensity_hist", "tiny_patch", "hog")),)
    )
    techniques = config.all_techniques()
    calib = DatasetRuntime(load_manifest(splits["calib"]))
    store = build_store(collect_run(calib, techniques), techniques)
    save_store(store, tmp_path / "store.sfcal")
    save_config(config, tmp_path / "config.json")

    oracle = DatasetRuntime(load_manifest(splits["eval"]))
    visited = set()
    for q in range(oracle.query_count):
        run_tripartite(
            config, lambda tid, q=q: visited.add((q, tid)) or oracle.similarity(q, tid), store
        )
    used = {tid for _, tid in visited}
    expected = len(visited) + oracle.reference_count * len(used)
    assert expected < len(techniques) * (oracle.query_count + oracle.reference_count)

    calls = []
    compute = datasets.compute_descriptor

    def counted(image, technique):
        calls.append(technique)
        return compute(image, technique)

    monkeypatch.setattr(datasets, "compute_descriptor", counted)
    argv = [
        "run", "--manifest", splits["eval"], "--config", tmp_path / "config.json",
        "--store", tmp_path / "store.sfcal", "--out", tmp_path / "p.csv",
    ]
    assert cli_main([str(a) for a in argv]) == 0
    assert len(calls) == expected


@pytest.mark.parametrize(
    "doc",
    [{"reference_count": 3}, {"accepted": 5}, {"accepted": [1, 2]}, [[0]]],
)
def test_ground_truth_file_needs_accepted_lists(tmp_path, doc):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="gt.json"):
        datasets.load_ground_truth_file(path, 3)
