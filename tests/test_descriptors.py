import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchfuse import (
    DescriptorSet,
    ImageGray,
    compute_descriptor,
    load_descriptor_set,
    save_descriptor_set,
    similarity_block,
)
from switchfuse.descriptors import BUILTIN_DIMS, SFDESC_MAGIC
from switchfuse.errors import (
    DataError,
    EmptySetError,
    FormatError,
    InvalidInputError,
    UnknownTechniqueError,
)
from tests.oracle import (
    SimilarityVector,
    cosine_similarity,
    raw_match_score,
    similarity_vector,
)

finite_vec = arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


def test_uniform_image_hog_is_zero():
    img = ImageGray(np.full((32, 32), 0.5))
    desc = compute_descriptor(img, "hog")
    assert desc.shape == (1764,)
    assert np.all(desc == 0.0)


def test_tiny_patch_unit_norm():
    rng = np.random.default_rng(3)
    img = ImageGray(rng.uniform(size=(40, 30)))
    desc = compute_descriptor(img, "tiny_patch")
    assert desc.shape == (256,)
    assert math.isclose(np.linalg.norm(desc), 1.0, abs_tol=1e-12)


def test_tiny_patch_constant_image_is_zero():
    img = ImageGray(np.full((20, 20), 0.25))
    desc = compute_descriptor(img, "tiny_patch")
    assert np.all(desc == 0.0)


def test_intensity_hist_l1_normalized():
    rng = np.random.default_rng(4)
    img = ImageGray(rng.uniform(size=(25, 25)))
    desc = compute_descriptor(img, "intensity_hist")
    assert desc.shape == (64,)
    assert math.isclose(desc.sum(), 1.0, abs_tol=1e-12)
    assert np.all(desc >= 0)


def test_builtin_dims():
    rng = np.random.default_rng(5)
    img = ImageGray(rng.uniform(size=(48, 48)))
    for tid, dim in BUILTIN_DIMS.items():
        desc = compute_descriptor(img, tid)
        assert desc.shape == (dim,) and desc.dtype == np.float64


def test_descriptor_determinism():
    rng = np.random.default_rng(6)
    img = ImageGray(rng.uniform(size=(64, 64)))
    for tid in BUILTIN_DIMS:
        a = compute_descriptor(img, tid)
        b = compute_descriptor(img, tid)
        assert np.array_equal(a, b)


def test_small_image_rejected():
    img = ImageGray(np.zeros((8, 8)))
    with pytest.raises(InvalidInputError):
        compute_descriptor(img, "hog")


def test_unknown_technique_rejected():
    img = ImageGray(np.zeros((32, 32)))
    with pytest.raises(UnknownTechniqueError):
        compute_descriptor(img, "netvlad")


def test_image_invariants_enforced():
    with pytest.raises(InvalidInputError):
        ImageGray(np.full((16, 16), 1.5))
    image = ImageGray(np.zeros((3, 4)))
    assert (image.width, image.height) == (4, 3)


@pytest.mark.parametrize("shape", [(16,), (16, 16, 1)])
def test_image_must_be_2d(shape):
    with pytest.raises(InvalidInputError, match="2-D"):
        ImageGray(np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 1.5])
def test_public_image_constructors_scan_every_pixel(bad):
    # load_pgm skips the scan for decoded 8-bit data; the public
    # constructor keeps it
    pixels = np.zeros((16, 16))
    pixels[7, 3] = bad
    with pytest.raises(InvalidInputError):
        ImageGray(pixels)


def test_similarity_identical_and_orthogonal():
    refs = DescriptorSet("t", np.array([[1.0, 0.0], [0.0, 1.0]]))
    sim = similarity_vector([1.0, 0.0], refs)
    assert np.allclose(sim.scores, [1.0, 0.0])


def test_similarity_hand_value():
    refs = DescriptorSet("t", np.array([[1.0, 1.0]]))
    sim = similarity_vector([1.0, 0.0], refs)
    assert math.isclose(sim.scores[0], 1.0 / math.sqrt(2.0), rel_tol=1e-12)


def test_similarity_zero_query():
    refs = DescriptorSet("t", np.array([[1.0, 1.0], [0.5, 0.5]]))
    sim = similarity_vector([0.0, 0.0], refs)
    assert np.all(sim.scores == 0.0)


def test_similarity_zero_reference_row():
    refs = DescriptorSet("t", np.array([[0.0, 0.0], [1.0, 0.0]]))
    sim = similarity_vector([1.0, 0.0], refs)
    assert sim.scores[0] == 0.0
    assert sim.scores[1] == 1.0


def test_similarity_dim_mismatch():
    refs = DescriptorSet("t", np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        similarity_vector([1.0, 0.0], refs)


def test_similarity_block_matches_scalar_oracle():
    rng = np.random.default_rng(31)
    queries = rng.normal(size=(7, 5))
    refs = rng.normal(size=(4, 5)) * [[1e-3], [1.0], [50.0], [1.0]]
    queries[2] = 0.0
    refs[1] = 0.0
    block = similarity_block(queries, refs)
    assert block.shape == (7, 4)
    for i, q in enumerate(queries):
        for j, r in enumerate(refs):
            assert abs(block[i, j] - cosine_similarity(q, r)) <= 1e-12
    assert np.all(block[2] == 0.0) and np.all(block[:, 1] == 0.0)


def _divided_block(queries, refs):
    """``similarity_block`` as one division into a zeroed Q x R output."""
    qn = np.linalg.norm(queries, axis=1)
    rn = np.linalg.norm(refs, axis=1)
    dots = queries @ refs.T
    norms = qn[:, None] * rn[None, :]
    return np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)


@pytest.mark.parametrize("rows", [1, 7, 64, 65, 200])
def test_similarity_block_bit_identical_to_one_division(rows):
    rng = np.random.default_rng(rows)
    queries = rng.normal(size=(rows, 33))
    refs = rng.normal(size=(50, 33))
    queries[rows // 2] = 0.0
    refs[[0, 17]] = 0.0
    refs[5] = -np.abs(refs[5])  # negative dot products against a zero row
    block = similarity_block(queries, refs)
    want = _divided_block(queries, refs)
    assert block.tobytes() == want.tobytes()
    zero = ~(np.linalg.norm(queries, axis=1)[:, None] * np.linalg.norm(refs, axis=1) > 0)
    assert zero.any() and not np.signbit(block[zero]).any()


def test_similarity_block_dim_mismatch():
    with pytest.raises(InvalidInputError):
        similarity_block(np.ones((2, 3)), np.ones((4, 2)))


@given(finite_vec, finite_vec)
def test_cosine_symmetry(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert abs(cosine_similarity(a, b) - cosine_similarity(b, a)) <= 1e-12


# entries that stay zero or normal floats under any scale in [1e-3, 1e3]
scalable_vec = arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-1e6, 1e6).filter(
        lambda x: x == 0.0 or abs(x) >= np.finfo(np.float64).tiny * 1e3
    ),
)


@example(np.array([5e-324]), 0.5)
@given(scalable_vec, st.floats(1e-3, 1e3))
def test_cosine_scale_invariance(a, c):
    b = np.ones_like(a)
    scaled = c * a
    if a.any() and not scaled.any():
        # a subnormal vector can underflow to zero, whose cosine is 0
        assert cosine_similarity(scaled, b) == 0.0
    else:
        assert abs(cosine_similarity(scaled, b) - cosine_similarity(a, b)) <= 1e-9


def test_raw_match_score_tie_break():
    ms = raw_match_score(SimilarityVector("t", [0.2, 0.9, 0.9]))
    assert ms.value == 0.9 and ms.best_index == 1


def test_raw_match_score_singleton():
    ms = raw_match_score(SimilarityVector("t", [0.5]))
    assert ms.value == 0.5 and ms.best_index == 0


def test_raw_match_score_all_negative():
    ms = raw_match_score(SimilarityVector("t", [-0.3, -0.1]))
    assert ms.value == -0.1 and ms.best_index == 1


def test_raw_match_score_empty():
    with pytest.raises(InvalidInputError):
        raw_match_score(SimilarityVector("t", []))


@given(arrays(np.float64, st.integers(1, 20), elements=st.floats(-1, 1)))
def test_raw_match_dominates_all_entries(scores):
    ms = raw_match_score(SimilarityVector("t", scores))
    assert np.all(ms.value >= scores)
    assert scores[ms.best_index] == ms.value


def test_sfdesc_round_trip(tmp_path):
    mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float32)
    dset = DescriptorSet("ext", mat)
    path = tmp_path / "d.sfdesc"
    save_descriptor_set(dset, path)
    loaded = load_descriptor_set(path, "ext")
    assert loaded.count == 2 and loaded.dim == 3
    assert np.array_equal(loaded.matrix, mat.astype(np.float64))


@settings(max_examples=25)
@given(
    mat=arrays(
        np.float32,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        elements=st.floats(-100, 100, width=32),
    )
)
def test_sfdesc_save_load_identity(mat, tmp_path_factory):
    path = tmp_path_factory.mktemp("sfdesc") / "d.sfdesc"
    save_descriptor_set(DescriptorSet("x", mat), path)
    loaded = load_descriptor_set(path)
    assert np.array_equal(loaded.matrix, mat.astype(np.float64))


def test_sfdesc_bad_magic(tmp_path):
    path = tmp_path / "bad.sfdesc"
    path.write_bytes(b"NOTDESC0" + b"\0" * 16)
    with pytest.raises(FormatError):
        load_descriptor_set(path)


def test_sfdesc_truncated_payload(tmp_path):
    import struct

    path = tmp_path / "trunc.sfdesc"
    payload = np.zeros(3, dtype="<f4").tobytes()  # one row, header says two
    path.write_bytes(SFDESC_MAGIC + struct.pack("<II", 2, 3) + payload)
    with pytest.raises(FormatError):
        load_descriptor_set(path)


def test_sfdesc_empty_set(tmp_path):
    import struct

    path = tmp_path / "empty.sfdesc"
    path.write_bytes(SFDESC_MAGIC + struct.pack("<II", 0, 3))
    with pytest.raises(EmptySetError):
        load_descriptor_set(path)


def test_sfdesc_non_finite(tmp_path):
    import struct

    path = tmp_path / "nan.sfdesc"
    payload = np.array([np.nan, 0, 0], dtype="<f4").tobytes()
    path.write_bytes(SFDESC_MAGIC + struct.pack("<II", 1, 3) + payload)
    with pytest.raises(DataError):
        load_descriptor_set(path)


def test_pgm_round_trip(tmp_path):
    from switchfuse.pgm import load_pgm, save_pgm

    rng = np.random.default_rng(9)
    img = ImageGray(np.round(rng.uniform(size=(20, 17)) * 255) / 255.0)
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    loaded = load_pgm(path)
    assert loaded.width == 17 and loaded.height == 20
    assert np.allclose(loaded.pixels, img.pixels, atol=1e-12)


@pytest.mark.parametrize(
    "layout",
    [np.asfortranarray, lambda a: a.T.copy().T, lambda a: a[:, ::2]],
    ids=["fortran", "transposed", "strided"],
)
def test_pgm_round_trip_any_memory_layout(tmp_path, layout):
    from switchfuse.pgm import load_pgm, save_pgm
    from switchfuse.synthetic import export_image_dataset

    rng = np.random.default_rng(23)
    img = ImageGray(layout(np.round(rng.uniform(size=(20, 34)) * 255) / 255.0))
    save_pgm(img, tmp_path / "img.pgm")
    assert np.array_equal(load_pgm(tmp_path / "img.pgm").pixels, img.pixels)
    export_image_dataset([img], [img], tmp_path / "set", "s")
    for rel in ("refs/s_0000.pgm", "queries/s_0000.pgm"):
        assert np.array_equal(load_pgm(tmp_path / "set" / rel).pixels, img.pixels)


def test_pgm_decode_equals_checked_image(tmp_path):
    from switchfuse.pgm import load_pgm

    raw = np.arange(256, dtype=np.uint8).reshape(16, 16)[:, ::-1]
    path = tmp_path / "ramp.pgm"
    path.write_bytes(b"P5\n16 16\n255\n" + raw.tobytes())
    loaded = load_pgm(path)
    checked = ImageGray(raw / 255.0)
    assert (loaded.width, loaded.height) == (checked.width, checked.height)
    assert loaded.pixels.dtype == np.float64
    assert np.array_equal(loaded.pixels, checked.pixels)
