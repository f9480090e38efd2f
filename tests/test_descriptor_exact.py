"""Bit-exact pins of the built-in descriptor kernels.

The oracles, kept in ``tests/oracle.py``, are the earlier straightforward
implementations: four ``np.ix_`` gathers for the resize, two ``np.add.at``
votes and a Python loop over blocks for HOG, and ``np.histogram`` for the
intensity histogram.  The expression-form oracles below pin the in-place
resize, gradients and tiny patch against the expressions they evaluate step
by step.  The production kernels must reproduce them bit for bit, not
merely within a tolerance, so that stored descriptors and every score
derived from them stay byte-stable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchfuse import ImageGray, compute_descriptor
from switchfuse.descriptors import (
    _HIST_BIN_OF_BYTE,
    _HIST_BINS,
    BUILTIN_DIMS,
    _gradients,
    _hog,
    _intensity_hist,
    _resize_bilinear,
    _resize_plan,
    _tiny_patch,
)
from switchfuse.pgm import load_pgm
from tests.oracle import (
    oracle_gradients,
    oracle_hog,
    oracle_intensity_hist,
    oracle_resize,
    oracle_tiny_patch,
)


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_images():
    rng = np.random.default_rng(2024)
    shapes = [(16, 16), (17, 33), (33, 17), (64, 64), (48, 80), (120, 90), (300, 200)]
    for shape in shapes:
        yield rng.uniform(size=shape)
    # 8-bit images, as decoded from PGM files
    for shape in [(160, 160), (37, 161)]:
        yield rng.integers(0, 256, size=shape) / 255.0


def flat_images():
    for value in (0.0, 0.5, 1.0, 3 / 64):
        for shape in [(16, 16), (40, 25)]:
            yield np.full(shape, value)


def byte_images():
    rng = np.random.default_rng(255)
    for shape in [(16, 16), (17, 33), (160, 160), (37, 161)]:
        yield rng.integers(0, 256, size=shape, dtype=np.uint8)


# the same values in other memory layouts; ``ImageGray(pixels)`` keeps the
# caller's layout
LAYOUTS = {
    "c-contiguous": lambda a: a,
    "transposed-view": lambda a: np.ascontiguousarray(a.T).T,
    "negative-stride-view": lambda a: np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1],
    "fortran-copy": np.asfortranarray,
}
RESIZE_SHAPES = [(64, 64), (16, 16), (7, 30), (90, 13)]


# the C-contiguous cases keep the ids they had before layouts were added
@pytest.mark.parametrize(
    "out_shape, layout",
    [
        pytest.param(
            shape,
            layout,
            id=f"out_shape{i}" + ("" if layout == "c-contiguous" else f"-{layout}"),
        )
        for layout in LAYOUTS
        for i, shape in enumerate(RESIZE_SHAPES)
    ],
)
def test_resize_bit_exact(out_shape, layout):
    lay = LAYOUTS[layout]
    for img in list(random_images()) + list(flat_images()):
        img = lay(img)
        assert img.flags.c_contiguous == (layout == "c-contiguous")
        assert_bits_equal(_resize_bilinear(img, *out_shape), oracle_resize(img, *out_shape))
    # 8-bit data: the same bits as the C-contiguous bytes give
    for raw in byte_images():
        laid = lay(raw)
        assert np.array_equal(laid, raw)
        want = _resize_bilinear(raw, *out_shape)
        assert_bits_equal(_resize_bilinear(laid, *out_shape), want)


def test_resize_plan_is_shared_read_only():
    img = np.random.default_rng(3).uniform(size=(20, 30))
    first = _resize_bilinear(img, 16, 16)
    again = _resize_bilinear(img, 16, 16)
    assert_bits_equal(first, again)
    first[0, 0] = -1.0  # the result is the caller's, not the cached plan
    assert_bits_equal(_resize_bilinear(img, 16, 16), again)


def test_hog_bit_exact():
    for img in list(random_images()) + list(flat_images()):
        assert_bits_equal(_hog(img), oracle_hog(img))


def test_hog_edges_and_zero_blocks_bit_exact():
    # a few edges on a flat field: most blocks have zero norm
    img = np.zeros((40, 56))
    img[:, 30:] = 1.0
    img[10:12, 5:9] = 0.25
    assert_bits_equal(_hog(img), oracle_hog(img))
    assert np.any(_hog(img) == 0.0) and np.any(_hog(img) != 0.0)


def hog_degrees(img):
    """Each pixel's gradients and gradient angle in degrees, before
    ``_hog`` folds the angle into [0, 180)."""
    gx, gy = _gradients(_resize_bilinear(img, 64, 64))
    return gx, gy, np.degrees(np.arctan2(gy, gx))


def test_hog_step_down_angles_of_exactly_180():
    # intensity falls left to right: gy is +0.0, gx negative, the angle 180
    img = np.ones((64, 64))
    img[:, 32:] = 0.25
    img[40:, 10:] = 0.0
    degrees = hog_degrees(img)[2]
    assert np.any(degrees == 180.0)
    assert_bits_equal(_hog(img), oracle_hog(img))


def test_hog_signed_zero_gradients():
    # a 64-px image resizes to itself: the -0.0 pixels below row 32 stay
    # -0.0, so row 31 has gy == -0.0 beside a nonzero gx, with angles -0.0
    # and exactly -180, and column 19 below it has gx == -0.0
    img = np.zeros((64, 64))
    img[32:, 20:] = -0.0
    img[:32, 40] = 0.5
    gx, gy, degrees = hog_degrees(img)
    negative_zero = (gy == 0.0) & np.signbit(gy)
    assert np.any(negative_zero & (gx > 0)) and np.any(negative_zero & (gx < 0))
    assert np.any(degrees == -180.0) and np.any((degrees == 0.0) & np.signbit(degrees))
    assert np.any((gx == 0.0) & np.signbit(gx))
    assert_bits_equal(_hog(img), oracle_hog(img))


@pytest.mark.parametrize("tiny", [1e-200, 1e-17, 1e-15])
def test_hog_tiny_negative_gy_beside_positive_gx(tiny):
    # column 32 falls by ``tiny`` per row between a dark and a bright side:
    # tiny negative angles, some of which round up to 180 once folded
    img = np.zeros((64, 64))
    img[:, 33:] = 1.0
    img[:, 32] = (63 - np.arange(64)) * tiny
    gx, gy, degrees = hog_degrees(img)
    assert np.any((gy < 0) & (gx > 0))
    if tiny < 1e-15:
        assert np.any((degrees < 0) & (degrees + 180.0 == 180.0))
    assert_bits_equal(_hog(img), oracle_hog(img))


def test_hog_16_px_images_bit_exact():
    rng = np.random.default_rng(16)
    images = [rng.uniform(size=(16, 16)) for _ in range(8)]
    images += [rng.integers(0, 256, size=(16, 16)) / 255.0 for _ in range(8)]
    for img in images:
        assert_bits_equal(_hog(img), oracle_hog(img))


# small images of repeated values (flat patches, exact ties between
# neighbours, signed zeros and subnormals) mixed with arbitrary floats in
# [0, 1], so that tiny and signed-zero gradients meet at many angles
repeated_images = arrays(
    np.float64,
    st.tuples(st.integers(16, 24), st.integers(16, 24)),
    elements=st.one_of(
        st.sampled_from(
            [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1 / 255, 0.25,
             0.5, 254 / 255, 1.0]
        ),
        st.floats(-0.0, 1.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(repeated_images)
def test_hog_matches_oracle_on_repeated_values(img):
    assert_bits_equal(_hog(img), oracle_hog(img))


def edge_values():
    """Every bin edge k/64 and one float step either side, within [0, 1]."""
    edges = np.arange(65) / 64.0
    values = np.concatenate(
        [edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]
    )
    return np.clip(values, 0.0, 1.0)


def test_intensity_hist_bit_exact_on_bin_edges():
    values = edge_values()
    img = np.resize(values, (16, 13))  # 208 pixels, every edge value present
    assert_bits_equal(_intensity_hist(img), oracle_intensity_hist(img))
    for v in values:
        flat = np.full((16, 16), v)
        assert_bits_equal(_intensity_hist(flat), oracle_intensity_hist(flat))


def test_intensity_hist_bit_exact_on_images():
    for img in list(random_images()) + list(flat_images()):
        assert_bits_equal(_intensity_hist(img), oracle_intensity_hist(img))


ORACLES = {
    "hog": oracle_hog,
    "tiny_patch": oracle_tiny_patch,
    "intensity_hist": oracle_intensity_hist,
}


@pytest.mark.parametrize("technique", sorted(ORACLES))
def test_compute_descriptor_bit_exact(technique):
    images = [np.random.default_rng(8).uniform(size=(16, 16))]
    images += list(flat_images()) + [np.resize(edge_values(), (20, 20))]
    for img in images:
        got = compute_descriptor(ImageGray(img), technique)
        assert_bits_equal(got, ORACLES[technique](img))


def expression_resize(img, out_h, out_w):
    """The bilinear expression ``_resize_bilinear`` evaluates in place."""
    index, wx0, wx1, wy0, wy1 = _resize_plan(*img.shape, out_h, out_w)
    tl, tr, bl, br = np.take(img, index)
    return (tl * wx0 + tr * wx1) * wy0 + (bl * wx0 + br * wx1) * wy1


def pinned_images():
    """160-px 8-bit images as the image benchmark decodes them, long thin
    ones either way, and 16-px ones that the resizes upscale."""
    rng = np.random.default_rng(160)
    for shape in [(160, 160), (17, 203), (203, 17), (16, 16)]:
        yield rng.integers(0, 256, size=shape) / 255.0
        yield rng.uniform(size=shape)


@pytest.mark.parametrize("out_shape", [(64, 64), (16, 16)])
def test_in_place_resize_matches_its_expression(out_shape):
    for img in pinned_images():
        want = expression_resize(img, *out_shape)
        assert_bits_equal(_resize_bilinear(img, *out_shape), want)
        assert_bits_equal(want, oracle_resize(img, *out_shape))


def test_in_place_gradients_match_their_expression():
    for img in pinned_images():
        for pixels in (img, _resize_bilinear(img, 64, 64)):
            for got, want in zip(_gradients(pixels), oracle_gradients(pixels)):
                assert_bits_equal(got, want)


def test_in_place_tiny_patch_matches_its_expression():
    for img in list(pinned_images()) + list(flat_images()):
        assert_bits_equal(_tiny_patch(img), oracle_tiny_patch(img))


# The built-ins read a decoded PGM's 8-bit data directly: they must give the
# bits they give on the checked float image ``raw / 255.0``.


def decode(directory, raw):
    path = directory / "img.pgm"
    height, width = raw.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + raw.tobytes())
    return load_pgm(path)


def assert_bytes_read_as_floats(directory, raw):
    image = decode(directory, raw)
    checked = ImageGray(raw / 255.0)
    for technique in BUILTIN_DIMS:
        got = compute_descriptor(image, technique)
        assert_bits_equal(got, compute_descriptor(checked, technique))
    assert_bits_equal(image.pixels, checked.pixels)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arrays(np.uint8, st.tuples(st.integers(16, 40), st.integers(16, 40))))
def test_decoded_bytes_give_the_float_image_bits(tmp_path_factory, raw):
    assert_bytes_read_as_floats(tmp_path_factory.mktemp("pgm"), raw)


@pytest.mark.parametrize(
    "raw",
    [
        np.arange(256, dtype=np.uint8).reshape(16, 16),
        np.resize(np.arange(256, dtype=np.uint8)[::-1], (23, 37)),
        np.zeros((16, 16), dtype=np.uint8),
        np.full((16, 16), 255, dtype=np.uint8),
    ],
    ids=["ramp", "ramp-23x37", "all-0", "all-255"],
)
def test_decoded_fixed_images_give_the_float_image_bits(tmp_path, raw):
    assert_bytes_read_as_floats(tmp_path, raw)


def test_histogram_bin_of_every_byte_value():
    for b in range(256):
        one_hot = np.zeros(_HIST_BINS)
        one_hot[_HIST_BIN_OF_BYTE[b]] = 1.0
        assert_bits_equal(_intensity_hist(np.full((1, 1), b / 255.0)), one_hot)
        assert_bits_equal(_intensity_hist(np.full((1, 1), b, dtype=np.uint8)), one_hot)
