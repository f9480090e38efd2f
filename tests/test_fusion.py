import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchfuse.errors import InvalidInputError
from switchfuse.fusion import best_matches, normalize_rows
from tests.oracle import (
    FusedVector,
    SimilarityVector,
    best_match,
    fuse,
    normalize,
)

score_vec = arrays(
    np.float64,
    st.integers(2, 30),
    elements=st.floats(-1, 1, allow_nan=False),
)

# scores on a 1e-3 grid: spreads stay well above float cancellation noise
grid_vec = arrays(
    np.int64, st.integers(2, 30), elements=st.integers(-1000, 1000)
).map(lambda a: a / 1000.0)


def test_normalize_hand_values():
    out = normalize(SimilarityVector("t", [2.0, 4.0, 6.0]))
    assert np.allclose(out.values, [-0.001, 0.499, 0.999], atol=1e-12)


def test_normalize_constant_vector_is_zero():
    out = normalize(SimilarityVector("t", [0.5, 0.5]))
    assert np.all(out.values == 0.0)


def test_normalize_fixed_point():
    out = normalize(SimilarityVector("t", [-0.001, 0.999]))
    assert np.allclose(out.values, [-0.001, 0.999], atol=1e-12)


@given(score_vec)
def test_normalize_endpoints(scores):
    sim = SimilarityVector("t", scores)
    out = normalize(sim)
    if scores.max() > scores.min():
        assert abs(out.values.min() - (-0.001)) <= 1e-12
        assert abs(out.values.max() - 0.999) <= 1e-12
    else:
        assert np.all(out.values == 0.0)


@given(grid_vec, st.floats(0.01, 100.0), st.floats(-10, 10))
def test_normalize_affine_invariance(scores, a, b):
    base = normalize(SimilarityVector("t", scores))
    shifted = normalize(SimilarityVector("t", a * scores + b))
    assert np.allclose(base.values, shifted.values, atol=1e-9)


def test_fuse_single_vector_identity():
    v = normalize(SimilarityVector("t", [0.1, 0.9]))
    fused = fuse([v])
    assert np.array_equal(fused.values, v.values)
    assert fused.contributing == ("t",)


def test_fuse_hand_values():
    from tests.oracle import NormalizedVector

    a = NormalizedVector("a", np.array([0.999, -0.001]))
    b = NormalizedVector("b", np.array([0.2, 0.999]))
    fused = fuse([a, b])
    assert np.allclose(fused.values, [1.199, 0.998], atol=1e-12)


def test_fuse_additive_identity():
    from tests.oracle import NormalizedVector

    v = NormalizedVector("v", np.array([0.3, -0.001]))
    z = NormalizedVector("z", np.zeros(2))
    assert np.array_equal(fuse([v, z]).values, v.values)


def test_fuse_length_mismatch():
    from tests.oracle import NormalizedVector

    with pytest.raises(InvalidInputError):
        fuse([NormalizedVector("a", np.zeros(2)), NormalizedVector("b", np.zeros(3))])


def test_fuse_empty_list():
    with pytest.raises(InvalidInputError):
        fuse([])


@given(st.lists(score_vec, min_size=2, max_size=5))
def test_fuse_commutative(vectors):
    n = min(len(v) for v in vectors)
    normed = [
        normalize(SimilarityVector(f"t{i}", v[:n])) for i, v in enumerate(vectors)
    ]
    forward = fuse(normed).values
    backward = fuse(list(reversed(normed))).values
    assert np.allclose(forward, backward, atol=1e-9)


def test_best_match_hand_values():
    from tests.oracle import FusedVector

    idx, conf = best_match(FusedVector(np.array([1.199, 0.998]), ("a", "b")))
    assert idx == 0
    assert conf == pytest.approx(0.5995)


def test_best_match_tie_break():
    from tests.oracle import FusedVector

    idx, _ = best_match(FusedVector(np.array([0.4, 0.4, 0.4]), ("a",)))
    assert idx == 0


def test_best_match_single_contributor():
    from tests.oracle import FusedVector

    idx, conf = best_match(FusedVector(np.array([0.999, -0.001]), ("a",)))
    assert idx == 0
    assert conf == pytest.approx(0.999)


def test_best_match_empty():
    from tests.oracle import FusedVector

    with pytest.raises(InvalidInputError):
        best_match(FusedVector(np.array([]), ("a",)))


@given(grid_vec, grid_vec, st.floats(0.01, 100.0), st.floats(-5, 5))
def test_selection_affine_invariance(s, t, a, b):
    n = min(len(s), len(t))
    s, t = s[:n], t[:n]
    base = fuse([normalize(SimilarityVector("s", s)), normalize(SimilarityVector("t", t))])
    scaled = fuse(
        [
            normalize(SimilarityVector("s", a * s + b)),
            normalize(SimilarityVector("t", t)),
        ]
    )
    assert best_match(base)[0] == best_match(scaled)[0]


@given(grid_vec)
def test_single_fusion_matches_raw_argmax(scores):
    from tests.oracle import raw_match_score

    sim = SimilarityVector("t", scores)
    fused_idx, _ = best_match(fuse([normalize(sim)]))
    if scores.max() > scores.min():
        assert fused_idx == raw_match_score(sim).best_index


def test_block_forms_match_scalar_oracle():
    rng = np.random.default_rng(41)
    rows = rng.uniform(-1, 1, size=(40, 12))
    rows[:5] = 0.25  # constant rows map to zeros
    rows[5:10, 3] = rows[5:10, 7] = 2.0  # tied maxima
    rows[10:15] = np.round(rows[10:15], 1)
    block = normalize_rows(rows)
    for row, got in zip(rows, block):
        assert np.array_equal(got, normalize(SimilarityVector("t", row)).values)
    fused = block + normalize_rows(rows[::-1])
    idx, conf = best_matches(fused, 2)
    for q, row in enumerate(fused):
        assert (idx[q], conf[q]) == best_match(FusedVector(row, ("s", "t")))


def test_normalize_into_buffer_is_bit_identical():
    """``out=`` gives the allocating form's bytes: into a view of a larger
    buffer holding garbage, and in place over the rows themselves."""
    rng = np.random.default_rng(43)
    rows = rng.uniform(-1, 1, size=(12, 7))
    rows[0] = 0.25  # constant
    rows[1] = -0.0  # constant, all -0.0
    rows[2] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0]  # constant, mixed zeros
    rows[3] = [-0.0, 0.0, -0.5, -0.25, -1.0, 0.0, -0.0]  # maximum held as both
    rows[4] = [0.0, -0.0, 0.5, 0.25, 1.0, -0.0, 0.0]  # minimum held as both
    want = normalize_rows(rows)
    big = np.full((15, 7), np.nan)
    got = normalize_rows(rows, out=big[2:14])
    assert got.base is big
    assert big[2:14].tobytes() == want.tobytes()
    assert np.isnan(big[:2]).all() and np.isnan(big[14:]).all()
    in_place = rows.copy()
    assert normalize_rows(in_place, out=in_place) is in_place
    assert in_place.tobytes() == want.tobytes()
    for row, values in zip(rows, want):
        oracle = normalize(SimilarityVector("t", row))
        assert values.tobytes() == oracle.values.tobytes()
