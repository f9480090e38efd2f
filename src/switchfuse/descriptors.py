"""Image descriptors, descriptor-set files and similarity blocks.

Three built-in descriptor techniques are provided (``hog``, ``tiny_patch``,
``intensity_hist``); externally computed descriptors are ingested through the
SFDESC1 binary format.  All similarity is cosine, with a zero-norm vector
defined to have similarity 0 against anything.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    EmptySetError,
    FormatError,
    InvalidInputError,
    UnknownTechniqueError,
)
from .files import write_atomic

SFDESC_MAGIC = b"SFDESC1\0"

# output dimension of each built-in technique
BUILTIN_DIMS = {"hog": 1764, "tiny_patch": 256, "intensity_hist": 64}

_MIN_IMAGE_SIDE = 16

_HOG_RESIZE = 64
_HOG_CELL = 8
_HOG_BINS = 9
_HOG_BLOCK = 2  # cells per block side


class ImageGray:
    """A grayscale image with intensities in [0, 1], row-major.

    ``pixels`` is the (height, width) float64 intensity array.  An image
    decoded from 8-bit data (``pgm.load_pgm``) holds the decoded bytes
    instead: the built-in descriptors read those directly, and ``pixels``
    is derived from them on first read, ``raw / 255.0`` bit for bit.
    Read-only once built.
    """

    __slots__ = ("_pixels", "_raw")

    def __init__(self, pixels):
        px = np.asarray(pixels, dtype=np.float64)
        if px.ndim != 2:
            raise InvalidInputError("expected a 2-D intensity array")
        if not np.all(np.isfinite(px)):
            raise InvalidInputError("image contains non-finite values")
        if px.size and (px.min() < 0.0 or px.max() > 1.0):
            raise InvalidInputError("image intensities must lie in [0, 1]")
        self._pixels = px
        self._raw = None

    @classmethod
    def _from_bytes(cls, raw: np.ndarray) -> "ImageGray":
        """Wrap a 2-D uint8 array of decoded 8-bit data, whose intensities
        ``raw / 255.0`` lie in [0, 1] by construction, without scanning it."""
        if raw.ndim != 2 or raw.dtype != np.uint8:
            raise InvalidInputError("expected a 2-D uint8 array")
        image = object.__new__(cls)
        image._pixels = None
        image._raw = raw
        return image

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            pixels = self._raw.astype(np.float64)
            pixels /= 255.0  # bit for bit the values raw / 255.0 gives
            self._pixels = pixels
        return self._pixels

    @property
    def _values(self) -> np.ndarray:
        """The array the built-ins read: the decoded bytes, or else
        ``pixels``."""
        return self._pixels if self._raw is None else self._raw

    @property
    def width(self) -> int:
        return self._values.shape[1]

    @property
    def height(self) -> int:
        return self._values.shape[0]


@dataclass(frozen=True)
class DescriptorSet:
    """Row-aligned descriptors for one technique; read-only once built.

    A float32 matrix, as SFDESC1 stores it, is kept as is; any other is
    converted to float64.
    """

    technique_id: str
    matrix: np.ndarray  # shape (count, dim)

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.dtype != np.float32:
            mat = mat.astype(np.float64, copy=False)
        if mat.ndim != 2:
            raise InvalidInputError("descriptor matrix must be 2-D")
        object.__setattr__(self, "matrix", mat)

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@functools.lru_cache(maxsize=64)
def _resize_plan(in_h: int, in_w: int, out_h: int, out_w: int):
    """Flat gather indices of the four neighbours of every output pixel
    (top-left, top-right, bottom-left, bottom-right) and the bilinear
    weights, for ``_resize_bilinear``."""
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    rows = (y0[:, None] * in_w, y1[:, None] * in_w)
    index = np.stack([r + c[None, :] for r in rows for c in (x0, x1)])
    plan = (index, 1 - fx, fx, 1 - fy, fy)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with pixel-center sampling and clamped borders:
    ``(tl * wx0 + tr * wx1) * wy0 + (bl * wx0 + br * wx1) * wy1``, each
    step evaluated in place on the gathered neighbours.  ``img`` is float64
    intensities or 8-bit data; of the latter only the gathered neighbours
    are divided by 255.0, which gives the float64 values ``img / 255.0``
    holds there bit for bit."""
    index, wx0, wx1, wy0, wy1 = _resize_plan(*img.shape, out_h, out_w)
    # the plan's indices lie in the image, and ``ravel`` lists its pixels in
    # C order whatever its memory layout, so no bounds check is needed
    near = img.ravel()[index]
    if near.dtype == np.uint8:
        near = np.divide(near, 255.0)
    tl, tr, bl, br = near
    tl *= wx0
    tr *= wx1
    tl += tr
    tl *= wy0
    bl *= wx0
    br *= wx1
    bl += br
    bl *= wy1
    tl += bl
    return tl


def _gradients(img: np.ndarray):
    """Central differences with replicated borders: the border pixel stands
    in for its missing neighbour."""
    gx = np.empty_like(img)
    np.subtract(img[:, 2:], img[:, :-2], out=gx[:, 1:-1])
    np.subtract(img[:, 1], img[:, 0], out=gx[:, 0])
    np.subtract(img[:, -1], img[:, -2], out=gx[:, -1])
    gy = np.empty_like(img)
    np.subtract(img[2:], img[:-2], out=gy[1:-1])
    np.subtract(img[1], img[0], out=gy[0])
    np.subtract(img[-1], img[-2], out=gy[-1])
    # halving is exact either way: x * 0.5 rounds as x / 2.0 does
    gx *= 0.5
    gy *= 0.5
    return gx, gy


_HOG_CELLS = _HOG_RESIZE // _HOG_CELL
_HOG_PIXELS = _HOG_RESIZE * _HOG_RESIZE
# first histogram slot of each pixel's cell in the flat (cell_y, cell_x, bin)
# histogram
_HOG_CELL_SLOT = (
    (np.arange(_HOG_RESIZE) // _HOG_CELL)[:, None] * _HOG_CELLS
    + (np.arange(_HOG_RESIZE) // _HOG_CELL)[None, :]
) * _HOG_BINS
# the two bins a pixel votes into, indexed by floor(pos): pos lies in
# [-0.5, 8.5], so floor(pos) is -1..8, and index -1 reads the last entry,
# which wraps a lower bin of -1 to 8 and an upper bin of 9 to 0
_HOG_LOWER_BIN = np.arange(_HOG_BINS)
_HOG_UPPER_BIN = np.roll(_HOG_LOWER_BIN, -1)
# the histogram slots of each 2x2 block, one row per block: the bins of its
# four cells (dy, dx) side by side, dy major
_by, _bx, _dy, _dx, _bin = np.ix_(
    *map(np.arange, [_HOG_CELLS - 1] * 2 + [_HOG_BLOCK] * 2 + [_HOG_BINS])
)
_HOG_BLOCK_SLOTS = (((_by + _dy) * _HOG_CELLS + _bx + _dx) * _HOG_BINS + _bin).reshape(
    -1, _HOG_BLOCK * _HOG_BLOCK * _HOG_BINS
)
del _by, _bx, _dy, _dx, _bin
# the one multiply ``np.degrees`` does, without its per-element loop
_DEGREES_PER_RADIAN = 180.0 / np.pi


def _hog(img: np.ndarray) -> np.ndarray:
    img = _resize_bilinear(img, _HOG_RESIZE, _HOG_RESIZE)
    gx, gy = _gradients(img)
    # unsigned orientation, bilinear vote between bin centers.  Adding 180
    # to the negative angles gives ``% 180.0`` bit for bit without its
    # fmod, except that exactly 180 stays 180 where ``%`` gives 0; both
    # split their vote half and half between the last bin and the first.
    # Every other angle gets +0.0, which changes only -0.0 to +0.0; both
    # map to the same -0.5 once scaled and shifted below.
    pos = np.arctan2(gy, gx)
    pos *= _DEGREES_PER_RADIAN
    pos += np.less(pos, 0.0) * 180.0
    pos /= 180.0 / _HOG_BINS
    pos -= 0.5
    mag = np.hypot(gx, gy, out=gx)
    floor = np.floor(pos)
    frac = np.subtract(pos, floor, out=pos)
    at = floor.astype(np.intp)

    # all lower-bin votes, then all upper-bin votes, in pixel order: the
    # summation order of two successive np.add.at calls
    slots = np.empty(2 * _HOG_PIXELS, dtype=np.intp)
    votes = np.empty(2 * _HOG_PIXELS)
    lower, upper = slots.reshape(2, _HOG_RESIZE, _HOG_RESIZE)
    np.add(_HOG_CELL_SLOT, _HOG_LOWER_BIN[at], out=lower)
    np.add(_HOG_CELL_SLOT, _HOG_UPPER_BIN[at], out=upper)
    lower, upper = votes.reshape(2, _HOG_RESIZE, _HOG_RESIZE)
    np.subtract(1.0, frac, out=lower)
    lower *= mag
    np.multiply(mag, frac, out=upper)
    hist = np.bincount(slots, votes, minlength=_HOG_CELLS * _HOG_CELLS * _HOG_BINS)
    blocks = hist[_HOG_BLOCK_SLOTS]
    # a stacked dot product, summed as np.linalg.norm sums a 1-D vector
    norms = np.sqrt(np.matmul(blocks[:, None, :], blocks[:, :, None]))[:, 0]
    out = np.divide(blocks, norms, out=np.zeros_like(blocks), where=norms > 0)
    return out.ravel()


def _tiny_patch(img: np.ndarray) -> np.ndarray:
    patch = _resize_bilinear(img, 16, 16).ravel()
    # the sum and the division ``patch.mean()`` does, and the dot product
    # and square root ``np.linalg.norm`` does for a 1-D vector, without
    # their dispatch
    patch -= patch.sum() / patch.size
    norm = np.sqrt(patch.dot(patch))
    if norm > 0:
        patch /= norm
        return patch
    return np.zeros_like(patch)


_HIST_BINS = 64
# the bin of each 8-bit value b: the float path's bin of the intensity b / 255.0
_HIST_BIN_OF_BYTE = np.array(
    [min(int(b / 255.0 * _HIST_BINS), _HIST_BINS - 1) for b in range(256)],
    dtype=np.intp,
)
_HIST_BIN_OF_BYTE.setflags(write=False)


def _intensity_hist(img: np.ndarray) -> np.ndarray:
    """64 equal bins over [0, 1], the last one closed, divided by the pixel
    count.  Scaling by 64 is exact and the edges k/64 are exact, so the bin
    index is the truncated product: the counts ``np.histogram`` gives.
    8-bit data is counted per byte value and the 256 counts summed into
    their bins; the sums are exact, so the result has the same bits."""
    if img.dtype == np.uint8:
        counts = np.bincount(img.ravel(), minlength=256)
        hist = np.bincount(_HIST_BIN_OF_BYTE, weights=counts, minlength=_HIST_BINS)
        return hist / img.size
    index = (img.ravel() * _HIST_BINS).astype(np.intp)
    np.minimum(index, _HIST_BINS - 1, out=index)  # 1.0 joins the last bin
    return np.bincount(index, minlength=_HIST_BINS) / img.size


def compute_descriptor(image: ImageGray, technique: str) -> np.ndarray:
    """Compute a built-in descriptor of one image: a 1-D float64 vector of
    ``BUILTIN_DIMS[technique]`` finite values.

    Deterministic: repeated calls on the same image are bit-identical.
    """
    if technique not in BUILTIN_DIMS:
        raise UnknownTechniqueError(f"unknown built-in technique {technique!r}")
    if image.width < _MIN_IMAGE_SIDE or image.height < _MIN_IMAGE_SIDE:
        raise InvalidInputError(
            f"image {image.width}x{image.height} below minimum "
            f"{_MIN_IMAGE_SIDE}x{_MIN_IMAGE_SIDE}"
        )
    fn = {"hog": _hog, "tiny_patch": _tiny_patch, "intensity_hist": _intensity_hist}
    return fn[technique](image._values)


def save_descriptor_set(dset: DescriptorSet, path) -> None:
    """Write the SFDESC1 binary layout (little-endian, float32 rows)."""
    payload = np.ascontiguousarray(dset.matrix, dtype="<f4")
    write_atomic(path, SFDESC_MAGIC, struct.pack("<II", dset.count, dset.dim), payload)


def _read_header(fh, path) -> tuple[int, int]:
    """Check an open SFDESC1 file's magic, counts and size; return
    (count, dim) with the file positioned at the payload."""
    head = fh.read(16)
    if len(head) < 16 or head[:8] != SFDESC_MAGIC:
        raise FormatError(f"{path}: not an SFDESC1 file")
    count, dim = struct.unpack_from("<II", head, 8)
    if count == 0 or dim == 0:
        raise EmptySetError(f"{path}: empty descriptor set (count={count}, dim={dim})")
    payload = os.fstat(fh.fileno()).st_size - 16
    if payload != 4 * count * dim:
        raise FormatError(
            f"{path}: payload size {payload} bytes, expected {4 * count * dim}"
        )
    return count, dim


def read_descriptor_header(path) -> tuple[int, int]:
    """(count, dim) of an SFDESC1 file, checked without reading its payload."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_descriptor_set(path, technique_id: str | None = None) -> DescriptorSet:
    """Read an SFDESC1 file; values come back bit-exact as stored, in a
    float32 matrix.  Any non-finite value raises ``DataError``."""
    with open(path, "rb") as fh:
        count, dim = _read_header(fh, path)
        # read straight into the matrix: ``fh.read()`` would join the
        # buffered head to the rest of the file, holding the payload twice
        matrix = np.empty((count, dim), dtype="<f4")
        size = fh.readinto(matrix.reshape(-1).view(np.uint8))
        grown = fh.read(1)
    if size != 4 * count * dim or grown:  # the file changed while being read
        raise FormatError(
            f"{path}: payload changed while being read, expected "
            f"{4 * count * dim} bytes"
        )
    matrix.setflags(write=False)
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"{path}: non-finite descriptor values")
    tid = technique_id if technique_id is not None else "external"
    return DescriptorSet(technique_id=tid, matrix=matrix)


# query rows divided by their norms at a time in ``similarity_block``
_NORM_ROWS = 64


def similarity_block(queries, refs, ref_norms=None, out=None) -> np.ndarray:
    """Cosine similarity of every query row against every reference row.

    Returns the Q x R block from one matrix product, divided in place by
    the norm products ``_NORM_ROWS`` rows at a time; an entry whose norm
    product is not positive is +0.0, so a zero-norm row scores 0 against
    anything.  ``ref_norms`` are the reference row norms when the caller
    keeps them across blocks.  ``out``, a C-contiguous float64 Q x R array,
    takes the block in place of a new one: the same product, bit for bit,
    with no fresh pages to fault in.
    """
    queries = np.asarray(queries, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    if queries.ndim != 2 or refs.ndim != 2 or queries.shape[1] != refs.shape[1]:
        raise InvalidInputError(
            f"query block {queries.shape} does not match reference block "
            f"{refs.shape}"
        )
    rn = np.linalg.norm(refs, axis=1) if ref_norms is None else ref_norms
    block = np.matmul(queries, refs.T, out=out)
    # entries with a zero norm product are reset to +0.0, so the warnings
    # of their division say nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(block), _NORM_ROWS):
            rows = block[start : start + _NORM_ROWS]
            qn = np.linalg.norm(queries[start : start + _NORM_ROWS], axis=1)
            norms = qn[:, None] * rn[None, :]
            rows /= norms
            positive = norms > 0.0
            if not positive.all():
                rows[~positive] = 0.0
    return block

