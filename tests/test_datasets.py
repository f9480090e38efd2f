import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from switchfuse import datasets, evaluation
from switchfuse.calibration import (
    LikelihoodHistogram,
    TechniqueCalibration,
    build_store,
    collect_run,
    save_store,
)
from switchfuse.cli import main as cli_main
from switchfuse.datasets import DatasetRuntime, load_manifest, save_config
from switchfuse.descriptors import (
    BUILTIN_DIMS,
    DescriptorSet,
    ImageGray,
    compute_descriptor,
    load_descriptor_set,
    save_descriptor_set,
)
from switchfuse.errors import (
    DataError,
    FormatError,
    InvalidInputError,
    UnknownTechniqueError,
)
from switchfuse.evaluation import run_method
from switchfuse.pgm import load_pgm
from switchfuse.switching import TripartiteConfig, UnitConfig
from switchfuse.synthetic import (
    SyntheticDataset,
    TechniqueProfile,
    export_dataset,
    export_image_dataset,
    generate,
    generate_image_dataset,
    split_calibration_eval,
)
from tests.exported import similarity_rows
from tests.oracle import (
    best_match,
    fuse,
    normalize,
    run_tripartite,
    similarity,
    similarity_vector,
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
def switching_dataset(tmp_path):
    """An exported SFDESC eval split and a store calibrated on the exported
    calibration split, so that some queries stop at their unit's primary."""
    ds = generate(
        [profile(t, r) for t, r in zip(TECHNIQUES, (0.6, 0.5, 0.55))],
        120, 20, seed=17,
    )
    calib_idx, eval_idx = split_calibration_eval(ds, 0.5, seed=17)
    calib = DatasetRuntime(load_manifest(export_dataset(ds, calib_idx, tmp_path, "calib")))
    store = build_store(collect_run(calib, TECHNIQUES), list(TECHNIQUES))
    return export_dataset(ds, eval_idx, tmp_path, "eval"), store


def test_sfdesc_query_index_range(switching_dataset):
    runtime = DatasetRuntime(load_manifest(switching_dataset[0]))
    last = runtime.query_count - 1
    assert len(similarity(runtime, last, "a")) == runtime.reference_count
    for q in (-1, runtime.query_count):
        with pytest.raises(InvalidInputError):
            similarity(runtime, q, "a")


def test_builtin_query_index_range(tmp_path):
    refs, queries = generate_image_dataset(3, seed=21)
    runtime = DatasetRuntime(
        load_manifest(export_image_dataset(refs, queries, tmp_path, "img"))
    )
    assert len(similarity(runtime, 2, "tiny_patch")) == 3
    for q in (-1, 3):
        with pytest.raises(InvalidInputError):
            similarity(runtime, q, "tiny_patch")


def test_block_kernel_runs_once_per_technique_across_methods(
    switching_dataset, monkeypatch
):
    """Across every method, each (query, technique) row is scored once."""
    rows = []
    kernel = datasets.similarity_block

    def counted(queries, *args, **kwargs):
        rows.append(len(queries))
        return kernel(queries, *args, **kwargs)

    monkeypatch.setattr(datasets, "similarity_block", counted)
    manifest_path, store = switching_dataset
    runtime = DatasetRuntime(load_manifest(manifest_path))
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "a")))
    )
    methods = ["switch-fuse", "switch-only", "fuse-all"] + [
        f"single:{t}" for t in TECHNIQUES
    ]
    for method in methods:
        run_method(method, runtime, config, store)
    assert sum(rows) == len(TECHNIQUES) * runtime.query_count


def test_sfdesc_rows_stay_lazy(switching_dataset, tmp_path, monkeypatch):
    """``run`` scores an SFDESC row only for each (query, technique) pair
    switching visits; ``compare`` scores every row, each once."""
    manifest_path, store = switching_dataset
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "a")))
    )
    save_store(store, tmp_path / "store.sfcal")
    save_config(config, tmp_path / "config.json")

    oracle = DatasetRuntime(load_manifest(manifest_path))
    visited = set()
    for q in range(oracle.query_count):
        run_tripartite(
            config, lambda tid, q=q: visited.add((q, tid)) or similarity(oracle, q, tid), store
        )
    everything = len(TECHNIQUES) * oracle.query_count
    assert len(visited) < everything

    rows = []
    kernel = datasets.similarity_block

    def counted(queries, *args, **kwargs):
        rows.append(len(queries))
        return kernel(queries, *args, **kwargs)

    monkeypatch.setattr(datasets, "similarity_block", counted)
    common = [
        "--manifest", manifest_path, "--config", tmp_path / "config.json",
        "--store", tmp_path / "store.sfcal",
    ]
    assert cli_main([str(a) for a in ["run", *common, "--out", tmp_path / "p.csv"]]) == 0
    assert sum(rows) == len(visited)
    rows.clear()
    assert cli_main([str(a) for a in ["compare", *common, "--out", tmp_path / "cmp"]]) == 0
    assert sum(rows) == everything


def test_sfdesc_fragments_serve_rows_bit_exact(switching_dataset):
    """Rows scored by many small requests are served, in any order and with
    repeats, bit for bit as one whole-block request gives them."""
    manifest = load_manifest(switching_dataset[0])
    q = manifest.query_count
    whole = similarity_rows(DatasetRuntime(manifest), "a", range(q))
    runtime = DatasetRuntime(manifest)
    for request in ([5], [2], [7, 5, 2, 5], [q - 1, 0], list(range(0, q, 3)),
                    list(range(q)), [], [4, 4]):
        rows = similarity_rows(runtime, "a", request)
        assert rows.shape == (len(request), manifest.reference_count)
        assert not rows.flags.writeable
        assert rows.tobytes() == whole[request].tobytes()
    # the rows one request scored fill the buffer's first rows, in query order
    similarity_rows(runtime, "b", [3, 1, 2])
    assert runtime._slot["b"].tolist() == [-1, 0, 1, 2] + [-1] * (q - 4)
    kept = runtime._rows["b"][:3].copy()
    assert similarity_rows(runtime, "b", [1, 2, 3]).tobytes() == kept.tobytes()
    # served rows are copies: writing into them leaves later ones unchanged
    for at in (None, np.array([2, 0, 1])):
        served = np.empty((3, manifest.reference_count))
        runtime.copy_rows("b", np.array([1, 2, 3]), served, at)
        served[...] = np.nan
        assert similarity_rows(runtime, "b", [1, 2, 3]).tobytes() == kept.tobytes()


def test_row_buffer_holds_exactly_the_scored_rows(switching_dataset):
    """A technique's buffer is as long as the rows its requests scored, and
    growing it keeps the rows it held bit for bit."""
    manifest = load_manifest(switching_dataset[0])
    runtime = DatasetRuntime(manifest)
    runtime.score(["a"], [4, 0, 2])
    assert runtime._rows["a"].shape == (3, manifest.reference_count)
    kept = runtime._rows["a"].copy()
    runtime.score(["a"], [2, 6, 1])
    assert runtime._rows["a"].shape == (5, manifest.reference_count)
    assert runtime._rows["a"][:3].tobytes() == kept.tobytes()
    assert runtime._slot["a"][[0, 1, 2, 4, 6]].tolist() == [0, 3, 1, 2, 4]
    # a request with nothing new to score leaves the buffer as it is
    held = runtime._rows["a"]
    runtime.score(["a"], [6, 0])
    assert runtime._rows["a"] is held


def test_truncated_sfdesc_fails_at_construction(switching_dataset):
    manifest = load_manifest(switching_dataset[0])
    path = manifest.base_dir / manifest.bindings["b"].queries_path
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        DatasetRuntime(manifest)


def test_reference_file_is_read_once_and_query_files_once_per_request(
    switching_dataset, monkeypatch
):
    """Across every method, the reference file every technique binds is
    read once, and each query file once per request that scores rows of
    its technique: twice for a technique that switch-fuse's hops score in
    part and fuse-all scores to the end."""
    reads, requests = Counter(), Counter()
    load = datasets.load_descriptor_set
    record = DatasetRuntime._record

    def counted(path, *args, **kwargs):
        reads[Path(path).name] += 1
        return load(path, *args, **kwargs)

    def recorded(self, technique_id, *args):
        requests[f"eval_queries_{technique_id}.sfdesc"] += 1
        return record(self, technique_id, *args)

    monkeypatch.setattr(datasets, "load_descriptor_set", counted)
    monkeypatch.setattr(DatasetRuntime, "_record", recorded)
    manifest_path, store = switching_dataset
    runtime = DatasetRuntime(load_manifest(manifest_path))
    config = TripartiteConfig(units=(UnitConfig("u0", TECHNIQUES),))
    for method in ["switch-fuse", "fuse-all"] + [f"single:{t}" for t in TECHNIQUES]:
        run_method(method, runtime, config, store)
    assert reads.pop("eval_refs.sfdesc") == 1
    assert reads == requests
    assert max(requests.values()) > 1


def test_switch_fuse_keeps_no_query_payload(tmp_path):
    """With the runtime alive after a switch-fuse ``run_method`` whose
    queries hop to two techniques and score them in part, the memory
    allocated since the runtime was built is its row buffers, slot columns,
    match columns and references, and less than 64 KiB more: neither partly
    scored technique keeps its 500 x 201 float32 query payload (402 KB)."""
    tids = ("a", "b", "c")
    ds = generate(
        [profile(t, r) for t, r in zip(tids, (0.6, 0.5, 0.55))], 1000, 200, seed=23
    )
    calib_idx, eval_idx = split_calibration_eval(ds, 0.5, seed=23)
    calib = DatasetRuntime(load_manifest(export_dataset(ds, calib_idx, tmp_path, "calib")))
    store = build_store(collect_run(calib, tids), list(tids))
    manifest = load_manifest(export_dataset(ds, eval_idx, tmp_path, "eval"))
    config = TripartiteConfig(units=(UnitConfig("u0", tids),))
    tracemalloc.start()
    try:
        runtime = DatasetRuntime(manifest)
        run_method("switch-fuse", runtime, config, store)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    scored = [int((runtime._slot[t] >= 0).sum()) for t in tids]
    assert scored[0] == len(eval_idx) and all(0 < n < len(eval_idx) for n in scored[1:])
    held = sum(rows.nbytes for rows in runtime._rows.values())
    held += sum(slot.nbytes for slot in runtime._slot.values())
    held += sum(c.nbytes for cs in runtime._matches.values() for c in cs)
    held += sum(m.nbytes + n.nbytes for m, n in runtime._references.values())
    assert current < held + 64 * 1024


@pytest.mark.parametrize("rewrite", ["rows", "nan"])
def test_partial_requests_check_the_whole_query_file(switching_dataset, rewrite):
    """A query file rewritten between two partial requests for its technique
    fails the second: with another row count as ``SF-INPUT``, and with a
    NaN in a row the second request does not ask for as ``SF-DATA``."""
    manifest = load_manifest(switching_dataset[0])
    runtime = DatasetRuntime(manifest)
    runtime.score(["b"], [0, 1])
    path = manifest.base_dir / manifest.bindings["b"].queries_path
    original = np.array(load_descriptor_set(path).matrix)
    matrix = original.copy()
    if rewrite == "rows":
        matrix = matrix[:-1]
    else:
        matrix[5, 0] = np.nan
    save_descriptor_set(DescriptorSet("b", matrix), path)
    error, message = {
        "rows": (InvalidInputError, "b: query descriptor count 59 != 60"),
        "nan": (DataError, "non-finite descriptor values"),
    }[rewrite]
    with pytest.raises(error, match=message):
        runtime.score(["b"], [2, 3])
    # the failed request's rows are not kept: once the file is mended, the
    # buffer holds the four scored rows alone
    save_descriptor_set(DescriptorSet("b", original), path)
    runtime.score(["b"], [2, 3])
    assert runtime._rows["b"].shape == (4, manifest.reference_count)


def test_each_descriptor_header_is_read_once(tmp_path, monkeypatch):
    """Nine techniques bind one reference file, as in the score workloads:
    set-up reads one header per file, ten in all, not two per binding."""
    tids = [f"t{i}" for i in range(9)]
    ds = generate([profile(t, 0.6) for t in tids], 20, 10, seed=5)
    manifest = load_manifest(export_dataset(ds, np.arange(20), tmp_path, "eval"))
    reads = Counter()
    read_header = datasets.read_descriptor_header

    def counted(path):
        reads[Path(path).name] += 1
        return read_header(path)

    monkeypatch.setattr(datasets, "read_descriptor_header", counted)
    DatasetRuntime(manifest)
    assert reads == Counter(
        ["eval_refs.sfdesc"] + [f"eval_queries_{t}.sfdesc" for t in tids]
    )


@pytest.mark.parametrize(
    "field, name, message",
    [
        ("queries", "eval_refs.sfdesc", "query descriptor count 20 != 60"),
        ("references", "eval_queries_a.sfdesc", "reference descriptor count 60 != 20"),
        ("queries", "narrow.sfdesc", "query dim 5 != reference dim 21"),
    ],
)
def test_every_binding_keeps_its_shape_check(switching_dataset, field, name, message):
    """The last technique binds a file whose header an earlier binding read
    in the other role, or one of the wrong dim: its own check still fails."""
    manifest_path = switching_dataset[0]
    save_descriptor_set(
        DescriptorSet("narrow", np.ones((60, 5))), manifest_path.parent / "narrow.sfdesc"
    )
    doc = json.loads(manifest_path.read_text())
    doc["techniques"]["c"][field] = name
    bad = manifest_path.parent / "bad_manifest.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=f"^c: {message}$"):
        DatasetRuntime(load_manifest(bad))


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
            config, lambda tid, q=q: visited.add((q, tid)) or similarity(oracle, q, tid), store
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
    decoded = _count_decodes(monkeypatch)
    argv = [
        "run", "--manifest", splits["eval"], "--config", tmp_path / "config.json",
        "--store", tmp_path / "store.sfcal", "--out", tmp_path / "p.csv",
    ]
    assert cli_main([str(a) for a in argv]) == 0
    assert len(calls) == expected
    # one decode per extraction, because the config has one unit: run
    # shares a decode only between the primaries of several units
    assert len(decoded) == expected


@pytest.fixture
def image_manifest(tmp_path):
    refs, queries = generate_image_dataset(6, seed=23, size=24)
    # a constant query: its tiny_patch and hog vectors have zero norm
    queries[2] = ImageGray(np.full((24, 24), 0.5))
    return load_manifest(export_image_dataset(refs, queries, tmp_path, "img"))


@pytest.mark.parametrize("chunk", [2, 64])
def test_builtin_rows_match_scalar_oracle(image_manifest, monkeypatch, chunk):
    monkeypatch.setattr(datasets, "_SCORE_CHUNK", chunk)
    m = image_manifest
    runtime = DatasetRuntime(m)

    def descriptor(rel, tid):
        return compute_descriptor(load_pgm(m.base_dir / rel), tid)

    for tid in BUILTIN_DIMS:
        refs = DescriptorSet(
            tid, np.stack([descriptor(r, tid) for r in m.reference_images])
        )
        # overlapping, repeated and out-of-order requests
        for block in ([4, 1, 4], list(range(m.query_count)), [2]):
            rows = similarity_rows(runtime, tid, block)
            assert rows.shape == (len(block), m.reference_count)
            assert not rows.flags.writeable
            for q, row in zip(block, rows):
                want = similarity_vector(descriptor(m.query_images[q], tid), refs)
                assert np.max(np.abs(row - want.scores)) <= 1e-12


def test_builtin_zero_norm_query_scores_zero(image_manifest):
    runtime = DatasetRuntime(image_manifest)
    for tid in ("tiny_patch", "hog"):
        assert np.all(similarity_rows(runtime, tid, [2, 2]) == 0.0)
    assert np.all(similarity_rows(runtime, "intensity_hist", [2]) > 0.0)


def test_builtin_descriptors_extracted_once(tmp_path, monkeypatch):
    splits = {}
    for split, seed in (("calib", 5), ("eval", 6)):
        refs, queries = generate_image_dataset(12, seed=seed, size=32)
        splits[split] = load_manifest(
            export_image_dataset(refs, queries, tmp_path / split, split)
        )
    config = TripartiteConfig(
        units=(
            UnitConfig("u0", ("hog", "tiny_patch")),
            UnitConfig("u1", ("tiny_patch", "intensity_hist")),
        )
    )
    techniques = config.all_techniques()
    store = build_store(collect_run(DatasetRuntime(splits["calib"]), techniques), techniques)

    calls = Counter()
    compute = datasets.compute_descriptor

    def counted(image, technique):
        calls[technique] += 1
        return compute(image, technique)

    monkeypatch.setattr(datasets, "compute_descriptor", counted)
    n = 12  # queries and references alike
    runtime = DatasetRuntime(splits["eval"])
    for block in ([0], [3, 1], list(range(n)), [11, 0]):
        similarity_rows(runtime, "hog", block)
    assert calls == {"hog": 2 * n}

    calls.clear()
    runtime = DatasetRuntime(splits["eval"])
    methods = ["switch-fuse", "switch-only", "fuse-all"] + [
        f"single:{t}" for t in techniques
    ]
    for method in methods:
        run_method(method, runtime, config, store)
    assert calls == {tid: 2 * n for tid in techniques}


@pytest.mark.parametrize(
    "doc",
    [{"reference_count": 3}, {"accepted": 5}, {"accepted": [1, 2]}, [[0]]],
)
def test_ground_truth_file_needs_accepted_lists(tmp_path, doc):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="gt.json"):
        datasets.load_ground_truth_file(path, 3)


def _matches_requests(n):
    # out of order, repeated, empty, then one spanning every request so far
    return [[4, 1, 3], [2, 2, 0], [], list(range(n))[::-1]]


@pytest.mark.parametrize("binding", ["sfdesc", "builtin"])
def test_matches_are_first_argmax_of_rows(
    binding, switching_dataset, image_manifest, monkeypatch
):
    """``matches`` equals (argmax, value there) of ``similarity_rows`` and
    scores exactly the rows ``similarity_rows`` would for the same
    requests."""
    if binding == "sfdesc":
        manifest, tids = load_manifest(switching_dataset[0]), TECHNIQUES
    else:
        manifest, tids = image_manifest, tuple(BUILTIN_DIMS)
    scored = []
    kernel = datasets.similarity_block

    def counted(queries, *args, **kwargs):
        scored.append(len(queries))
        return kernel(queries, *args, **kwargs)

    monkeypatch.setattr(datasets, "similarity_block", counted)
    by_rows, by_matches = DatasetRuntime(manifest), DatasetRuntime(manifest)
    for tid in tids:
        for request in _matches_requests(manifest.query_count):
            scored.clear()
            rows = similarity_rows(by_rows, tid, request)
            from_rows = list(scored)
            scored.clear()
            best, score = by_matches.matches(tid, request)
            assert scored == from_rows
            assert best.dtype == np.int64
            assert best.shape == score.shape == (len(request),)
            want = rows.argmax(axis=1)
            assert np.array_equal(best, want)
            assert score.tobytes() == rows[np.arange(len(rows)), want].tobytes()
            # and the rows served afterwards are the ones matched
            again = similarity_rows(by_matches, tid, request)
            assert again.tobytes() == rows.tobytes()


def test_compare_reads_rows_only_for_fusion(switching_dataset, tmp_path, monkeypatch):
    """In ``compare``, one ``score`` call scores every technique up front;
    then switch-only and every single-technique method read best-match
    columns only, never copying a similarity row out (``copy_rows``, the
    runtime's one row path)."""
    manifest_path, store = switching_dataset
    config = TripartiteConfig(
        units=(UnitConfig("u0", ("a", "b")), UnitConfig("u1", ("c", "a")))
    )
    save_store(store, tmp_path / "store.sfcal")
    save_config(config, tmp_path / "config.json")
    calls = Counter()
    up_front = []
    current = [None]
    copy = DatasetRuntime.copy_rows
    score = DatasetRuntime.score
    run = evaluation.run_method

    def spy_copy(self, tid, queries, out, at=None):
        calls[current[0]] += 1
        return copy(self, tid, queries, out, at)

    def spy_score(self, tids, queries):
        if current[0] is None:
            up_front.append(list(tids))
        return score(self, tids, queries)

    def tagged(method, *args, **kwargs):
        current[0] = method
        return run(method, *args, **kwargs)

    monkeypatch.setattr(DatasetRuntime, "copy_rows", spy_copy)
    monkeypatch.setattr(DatasetRuntime, "score", spy_score)
    monkeypatch.setattr(evaluation, "run_method", tagged)
    argv = [
        "compare", "--manifest", manifest_path, "--config", tmp_path / "config.json",
        "--store", tmp_path / "store.sfcal", "--out", tmp_path / "cmp",
    ]
    assert cli_main([str(a) for a in argv]) == 0
    assert up_front == [list(TECHNIQUES)]  # one call, every technique
    assert calls[None] == 0
    assert calls["switch-fuse"] > 0 and calls["fuse-all"] > 0
    for method in ["switch-only"] + [f"single:{t}" for t in TECHNIQUES]:
        assert calls[method] == 0, method


def _image_splits(tmp_path):
    splits = {}
    for split, seed in (("calib", 5), ("eval", 6)):
        refs, queries = generate_image_dataset(12, seed=seed, size=32)
        splits[split] = export_image_dataset(refs, queries, tmp_path / split, split)
    return splits


def _count_decodes(monkeypatch) -> list:
    decoded = []
    decode = datasets.load_pgm

    def counted(path):
        decoded.append(Path(path).name)
        return decode(path)

    monkeypatch.setattr(datasets, "load_pgm", counted)
    return decoded


def _two_unit_image_setup(tmp_path):
    """Image splits, a saved two-unit config over the three built-ins (the
    second unit's primary is a candidate of the first) and its shared CLI
    arguments, and the ``calibrate`` argv that writes ``store.sfcal``."""
    splits = _image_splits(tmp_path)
    config = TripartiteConfig(
        units=(
            UnitConfig("u0", ("hog", "tiny_patch")),
            UnitConfig("u1", ("tiny_patch", "intensity_hist")),
        )
    )
    save_config(config, tmp_path / "config.json")
    common = ["--config", tmp_path / "config.json"]
    calibrate = ["calibrate", "--manifest", splits["calib"], *common,
                 "--out", tmp_path / "store.sfcal"]
    return splits, common, calibrate


@pytest.mark.parametrize("command", ["calibrate", "run", "compare"])
def test_every_image_decoded_once_per_command(tmp_path, monkeypatch, command):
    """``calibrate`` and ``compare`` over three built-ins decode each of the
    Q + R images once, and so does ``run`` when no query hops off a
    primary: the two primaries share one decode of each image."""
    splits, common, calibrate = _two_unit_image_setup(tmp_path)
    if command != "calibrate":
        assert cli_main([str(a) for a in calibrate]) == 0
    decoded = _count_decodes(monkeypatch)
    evaluated = ["--manifest", splits["eval"], *common, "--store", tmp_path / "store.sfcal"]
    argv = {
        "calibrate": calibrate,
        "run": ["run", *evaluated, "--out", tmp_path / "p.csv"],
        "compare": ["compare", *evaluated, "--out", tmp_path / "cmp"],
    }[command]
    assert cli_main([str(a) for a in argv]) == 0
    m = load_manifest(splits["calib" if command == "calibrate" else "eval"])
    images = [Path(rel).name for rel in m.reference_images + m.query_images]
    assert len(decoded) == m.query_count + m.reference_count
    assert Counter(decoded) == Counter(images)


def test_run_scores_a_later_primary_hopped_to_as_one_fragment(tmp_path, monkeypatch):
    """When queries hop to a technique that a later unit holds as its
    primary, ``run`` still scores that technique's rows of every query in one
    request, in query order, bit for bit the rows ``compare`` scores."""
    splits, common, calibrate = _two_unit_image_setup(tmp_path)
    assert cli_main([str(a) for a in calibrate]) == 0
    seen = {}
    run = evaluation.run_method

    def kept(method, runtime, *args, **kwargs):
        columns = run(method, runtime, *args, **kwargs)
        seen.setdefault(command[0], (runtime, columns))
        return columns

    monkeypatch.setattr(evaluation, "run_method", kept)
    evaluated = ["--manifest", splits["eval"], *common, "--threshold", "0.99",
                 "--store", tmp_path / "store.sfcal"]
    for command in (["run", "--out", tmp_path / "p.csv"],
                    ["compare", "--out", tmp_path / "cmp"]):
        assert cli_main([str(a) for a in command + evaluated]) == 0
    runtime, (_, _, decisions) = seen["run"]
    hogs = decisions[0]
    assert (hogs.hops > 0).any() and (hogs.selected == 1).any()
    assert runtime._slot["tiny_patch"].tolist() == list(range(runtime.query_count))
    compared = similarity_rows(
        seen["compare"][0], "tiny_patch", range(runtime.query_count)
    )
    assert runtime._rows["tiny_patch"].tobytes() == compared.tobytes()


def test_score_over_unequal_scored_sets_matches_scalar_oracle(
    image_manifest, monkeypatch
):
    """A ``score`` whose techniques already hold different scored sets
    scores the rest of each, and serves rows within 1e-12 of the scalar
    oracle and their first argmax as matches."""
    monkeypatch.setattr(datasets, "_SCORE_CHUNK", 2)
    m = image_manifest
    runtime = DatasetRuntime(m)
    similarity_rows(runtime, "hog", [1, 4])
    runtime.matches("tiny_patch", [0])
    decoded = _count_decodes(monkeypatch)
    everyone = list(range(m.query_count))
    assert runtime.score(list(BUILTIN_DIMS), everyone).tolist() == everyone
    # three groups of rows to score; references only for intensity_hist
    assert len(decoded) == 3 * m.query_count - 3 + m.reference_count
    decoded.clear()

    def descriptor(rel, tid):
        return compute_descriptor(load_pgm(m.base_dir / rel), tid)

    for tid in BUILTIN_DIMS:
        refs = DescriptorSet(
            tid, np.stack([descriptor(r, tid) for r in m.reference_images])
        )
        rows = similarity_rows(runtime, tid, everyone)
        best, score = runtime.matches(tid, everyone)
        for q, row in enumerate(rows):
            want = similarity_vector(descriptor(m.query_images[q], tid), refs)
            assert np.max(np.abs(row - want.scores)) <= 1e-12
        assert np.array_equal(best, rows.argmax(axis=1))
        assert score.tobytes() == rows[np.arange(len(rows)), best].tobytes()
    assert decoded == []  # the oracle's decodes go through pgm.load_pgm


def test_empty_request_decodes_no_image(image_manifest, monkeypatch):
    """A ``score`` with no query to score decodes no image, not even the
    reference images of built-ins that hold no reference descriptors yet."""
    runtime = DatasetRuntime(image_manifest)
    decoded = _count_decodes(monkeypatch)
    assert runtime.score(["hog", "tiny_patch"], []).tolist() == []
    assert decoded == []


@pytest.mark.parametrize("position", [0, 2])
def test_score_checks_every_technique_before_decoding(
    image_manifest, tmp_path, monkeypatch, capsys, position
):
    techniques = ["hog", "tiny_patch"]
    techniques.insert(position, "nope")
    runtime = DatasetRuntime(image_manifest)
    decoded = _count_decodes(monkeypatch)
    with pytest.raises(UnknownTechniqueError, match="nope"):
        runtime.score(techniques, [0, 1])
    assert decoded == []
    # and through the CLI, whose calibrate scores every configured technique;
    # --min-samples within the 6 queries passes the flag checks
    config = TripartiteConfig(units=(UnitConfig("u0", tuple(techniques)),))
    save_config(config, tmp_path / "config.json")
    manifest = tmp_path / "img_manifest.json"
    argv = ["calibrate", "--manifest", manifest, "--config", tmp_path / "config.json",
            "--out", tmp_path / "store.sfcal", "--min-samples", 6]
    capsys.readouterr()
    assert cli_main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("SF-TECHNIQUE")
    assert decoded == []


def test_fusion_with_a_technique_in_two_units_matches_oracle(tmp_path, monkeypatch):
    """Switch-fuse over built-in techniques, tiny_patch in both units (as
    in the image benchmark), sums the scalar oracle's fused vectors bit
    for bit."""
    splits = {}
    for split, seed in (("calib", 5), ("eval", 6)):
        refs, queries = generate_image_dataset(16, seed=seed, size=32)
        splits[split] = load_manifest(
            export_image_dataset(refs, queries, tmp_path / split, split)
        )
    config = TripartiteConfig(
        units=(
            UnitConfig("gradient", ("hog", "tiny_patch")),
            UnitConfig("appearance", ("tiny_patch", "intensity_hist")),
        ),
    )
    techniques = config.all_techniques()
    store = build_store(
        collect_run(DatasetRuntime(splits["calib"]), techniques), techniques
    )
    # every calibration match is correct, so every query would stop at
    # hog; this hog calibration rejects the lower half of its eval scores
    scores = DatasetRuntime(splits["eval"]).matches("hog", range(16))[1]
    mid = float(np.median(scores))
    store.techniques["hog"] = TechniqueCalibration(
        "hog", 0.5,
        LikelihoodHistogram(2, 2 * mid - scores.max() - 1e-9, scores.max() + 1e-9,
                            np.array([0, 10]), np.array([10, 0])),
        20,
    )
    fused_blocks = []
    best_matches = evaluation.best_matches

    def kept(fused, contributors):
        fused_blocks.append(fused.copy())
        return best_matches(fused, contributors)

    monkeypatch.setattr(evaluation, "best_matches", kept)
    runtime = DatasetRuntime(splits["eval"])
    predicted, confidence, _ = run_method("switch-fuse", runtime, config, store)
    (total,) = fused_blocks
    both = 0
    # the oracle reads the rows the block path scored: a row scored in
    # another block may differ in its last bits
    for q in range(runtime.query_count):
        picked = run_tripartite(config, lambda tid: similarity(runtime, q, tid), store)
        ids = picked.selected_ids()
        both += ids == ["tiny_patch", "tiny_patch"]
        fused = fuse(normalize(picked.similarity_cache[tid]) for tid in ids)
        assert total[q].tobytes() == fused.values.tobytes()
        idx, conf = best_match(fused)
        assert predicted[q] == idx
        got = confidence[q : q + 1]
        assert got.tobytes() == np.float64(conf).tobytes()
    assert 0 < both < runtime.query_count, both


def _sfdesc_variant(variant, tmp_path, monkeypatch):
    """(manifest, techniques) of an SFDESC1 case for ``best_matches``.

    ``zero_norm``: two techniques of random descriptors in which query 3 is
    all zeros, scored by the real kernel.  ``signed_zero``: exported rows
    whose maximum 0.0 is held as both -0.0 and +0.0, in either order, served
    by a kernel that returns the rows themselves (minus the padding
    coordinate), as the exported descriptors hold them.
    """
    rng = np.random.default_rng(41)
    q, r = 9, 7
    if variant == "zero_norm":
        refs = rng.normal(size=(r, 5))
        save_descriptor_set(DescriptorSet("refs", refs), tmp_path / "refs.sfdesc")
        techniques = {}
        for tid in ("x", "y"):
            queries = rng.normal(size=(q, 5))
            queries[3] = 0.0
            save_descriptor_set(
                DescriptorSet(tid, queries), tmp_path / f"{tid}.sfdesc"
            )
            techniques[tid] = {
                "kind": "sfdesc", "references": "refs.sfdesc",
                "queries": f"{tid}.sfdesc",
            }
        doc = {
            "query_count": q, "reference_count": r, "techniques": techniques,
            "ground_truth": {"kind": "window", "k": 1},
        }
        (tmp_path / "m.json").write_text(json.dumps(doc))
        return load_manifest(tmp_path / "m.json"), ("x", "y")

    def rows_kernel(queries, refs, ref_norms=None, out=None):
        block = np.array(queries[:, :-1], np.float64)
        if out is None:
            return block
        out[...] = block
        return out

    monkeypatch.setattr(datasets, "similarity_block", rows_kernel)
    sims = {}
    for tid in ("a", "b"):
        rows = -rng.uniform(0.1, 1, (q, r))
        rows[0::2, 1], rows[0::2, 4] = -0.0, 0.0
        rows[1::2, 1], rows[1::2, 4] = 0.0, -0.0
        sims[tid] = rows
    ds = SyntheticDataset(sims, rng.integers(0, r, q))
    return load_manifest(export_dataset(ds, np.arange(q), tmp_path, "sz")), ("a", "b")


@pytest.mark.parametrize("chunk", [1, 2, 64])
@pytest.mark.parametrize("variant", ["zero_norm", "signed_zero", "builtin"])
def test_best_matches_equal_score_then_matches(
    variant, chunk, image_manifest, tmp_path, monkeypatch
):
    """``best_matches`` gives, byte for byte, the columns ``score`` then
    ``matches`` give over every query, and keeps no row: for SFDESC1 and
    built-in techniques, any built-in chunk size, a zero-norm query and a
    maximum 0.0 held as both -0.0 and +0.0."""
    monkeypatch.setattr(datasets, "_SCORE_CHUNK", chunk)
    if variant == "builtin":
        manifest, tids = image_manifest, tuple(BUILTIN_DIMS)
    else:
        manifest, tids = _sfdesc_variant(variant, tmp_path, monkeypatch)
    every = range(manifest.query_count)
    by_score, by_best = DatasetRuntime(manifest), DatasetRuntime(manifest)
    by_score.score(tids, every)
    got = by_best.best_matches(tids)
    assert list(got) == list(tids)
    signs = set()
    for tid in tids:
        best, score = by_score.matches(tid, every)
        assert got[tid][0].dtype == np.int64
        assert got[tid][0].tobytes() == best.tobytes()
        assert got[tid][1].tobytes() == score.tobytes()
        signs.update(np.copysign(1.0, score[score == 0.0]).tolist())
    assert by_best._rows == {}
    if variant == "signed_zero":
        assert signs == {-1.0, 1.0}
    else:  # the zero-norm query scores +0.0 against every reference
        assert 1.0 in signs


def _held(runtime) -> dict:
    """The bytes of what a runtime holds per technique: its row buffer,
    slot column and best matches."""
    def flat(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        return [flat(v) for v in value]

    return {
        name: {tid: flat(value) for tid, value in getattr(runtime, name).items()}
        for name in ("_rows", "_slot", "_matches")
    }


def test_best_matches_scores_from_the_files_and_leaves_the_runtime_alone(
    switching_dataset, monkeypatch
):
    """On a runtime that holds some rows of ``b``,
    ``best_matches`` gives a fresh runtime's columns byte for byte
    and leaves what the runtime holds as it was; an unbound technique fails
    before any file is read."""
    manifest = load_manifest(switching_dataset[0])
    runtime = DatasetRuntime(manifest)
    runtime.score(["b"], [4, 0, 2])
    before = _held(runtime)
    with monkeypatch.context() as patched:
        def never(*args, **kwargs):
            raise AssertionError("a file was read")

        patched.setattr(datasets, "load_descriptor_set", never)
        with pytest.raises(UnknownTechniqueError):
            runtime.best_matches(["a", "nope"])
    got = runtime.best_matches(["a", "b", "a"])
    assert list(got) == ["a", "b"]
    want = DatasetRuntime(manifest).best_matches(["a", "b"])
    for tid in ("a", "b"):
        assert [c.tobytes() for c in got[tid]] == [c.tobytes() for c in want[tid]]
    assert _held(runtime) == before
