"""Property tests: damaged P5 PGM, SFDESC1 and SFCAL1 bytes end in a package
error.

A truncated or bit-flipped file may load (a flip in pixel data is still a
valid image) or fail, but a failure must be a ``SwitchFuseError`` subclass,
which the CLI turns into an SF-* code; any other exception fails the test.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfuse.calibration import build_store, load_store, save_store
from switchfuse.descriptors import (
    BUILTIN_DIMS,
    SFDESC_MAGIC,
    compute_descriptor,
    load_descriptor_set,
    read_descriptor_header,
)
from switchfuse.errors import InvalidInputError, SwitchFuseError
from switchfuse.pgm import load_pgm

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def pgm_bytes(width=18, height=16, comment=True):
    rng = np.random.default_rng(width * 100 + height)
    pixels = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    header = b"P5\n" + (b"# fuzz seed\n" if comment else b"")
    return header + f"{width} {height}\n255\n".encode() + pixels.tobytes()


def sfdesc_bytes(count=3, dim=4):
    rng = np.random.default_rng(count * 10 + dim)
    payload = rng.normal(size=(count, dim)).astype("<f4").tobytes()
    return SFDESC_MAGIC + struct.pack("<II", count, dim) + payload


@pytest.fixture(scope="module")
def sfcal_blob(tmp_path_factory):
    rng = np.random.default_rng(5)
    run = {tid: (rng.uniform(size=40), rng.uniform(size=40) < 0.5) for tid in ("a", "b")}
    path = tmp_path_factory.mktemp("sfcal") / "store.sfcal"
    save_store(build_store(run, ["a", "b"], bins=4), path)
    return path.read_bytes()


def damaged(blob: bytes):
    """Strategy: ``blob`` cut short, or with one to four bits flipped,
    biased towards the header."""
    cut = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    position = st.one_of(
        st.integers(0, min(len(blob), 24) - 1), st.integers(0, len(blob) - 1)
    )
    flips = st.lists(st.tuples(position, st.integers(0, 7)), min_size=1, max_size=4)

    def flip(pairs):
        out = bytearray(blob)
        for pos, bit in pairs:
            out[pos] ^= 1 << bit
        return bytes(out)

    return st.one_of(cut, flips.map(flip))


def only_package_errors(fn):
    """Run ``fn``; return its result, or None if it raised a package error."""
    try:
        return fn()
    except SwitchFuseError:
        return None


@FUZZ
@given(st.sampled_from([pgm_bytes(), pgm_bytes(16, 20, comment=False)]).flatmap(damaged))
def test_damaged_pgm_raises_only_package_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    path.write_bytes(blob)
    image = only_package_errors(lambda: load_pgm(path))
    if image is not None:
        assert image.pixels.shape == (image.height, image.width)
        for technique in BUILTIN_DIMS:
            only_package_errors(lambda: compute_descriptor(image, technique))


@FUZZ
@given(st.sampled_from([sfdesc_bytes(), sfdesc_bytes(1, 7)]).flatmap(damaged))
def test_damaged_sfdesc_raises_only_package_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("sfdesc") / "d.sfdesc"
    path.write_bytes(blob)
    header = only_package_errors(lambda: read_descriptor_header(path))
    dset = only_package_errors(lambda: load_descriptor_set(path))
    if dset is not None:
        assert header == dset.matrix.shape
        assert np.all(np.isfinite(dset.matrix))


@FUZZ
@given(data=st.data())
def test_damaged_sfcal_raises_only_package_errors(tmp_path_factory, sfcal_blob, data):
    path = tmp_path_factory.mktemp("sfcal") / "damaged.sfcal"
    path.write_bytes(data.draw(damaged(sfcal_blob)))
    only_package_errors(lambda: load_store(path))


@pytest.mark.parametrize(
    "header", [b"P5\n-4 -4\n255\n", b"P5\n-16 16\n255\n", b"P5\n16 -1\n255\n"]
)
def test_pgm_negative_size_is_format_error(tmp_path, header):
    path = tmp_path / "neg.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(SwitchFuseError) as info:
        load_pgm(path)
    assert info.value.code == "SF-FORMAT"


def test_empty_pgm_loads_and_fails_at_extraction(tmp_path):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"P5\n0 0\n255\n")
    image = load_pgm(path)
    assert (image.width, image.height) == (0, 0)
    for technique in BUILTIN_DIMS:
        with pytest.raises(InvalidInputError):
            compute_descriptor(image, technique)


@pytest.mark.parametrize(
    "blob",
    [
        pgm_bytes()[:-1],  # one payload byte short
        b"P5\n4 2\n255",  # the header ends at maxval, no byte after it
        b"P5\n4 2\n255\n",  # nothing after the separator
    ],
    ids=["short-payload", "no-separator", "no-payload"],
)
def test_truncated_pgm_payload_is_format_error(tmp_path, blob):
    path = tmp_path / "short.pgm"
    path.write_bytes(blob)
    with pytest.raises(SwitchFuseError, match="truncated PGM payload") as info:
        load_pgm(path)
    assert info.value.code == "SF-FORMAT"


@pytest.mark.parametrize(
    "blob, shape",
    [(b"P5\n0 0\n255", (0, 0)), (b"P5\n0 3\n255", (3, 0)), (b"P5\n5 0\n255\n", (0, 5))],
)
def test_pgm_without_pixels_loads_with_or_without_a_byte_after_maxval(
    tmp_path, blob, shape
):
    path = tmp_path / "empty.pgm"
    path.write_bytes(blob)
    assert load_pgm(path).pixels.shape == shape
