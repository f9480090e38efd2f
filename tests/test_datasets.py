import numpy as np
import pytest

from switchfuse import datasets
from switchfuse.calibration import build_store
from switchfuse.datasets import DatasetRuntime, load_manifest
from switchfuse.errors import FormatError, InvalidInputError
from switchfuse.evaluation import run_method
from switchfuse.switching import TripartiteConfig, UnitConfig
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

    def counted(queries, refs):
        calls.append(1)
        return kernel(queries, refs)

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
