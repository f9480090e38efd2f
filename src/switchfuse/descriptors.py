"""Image descriptors, descriptor-set files and similarity vectors.

Three built-in descriptor techniques are provided (``hog``, ``tiny_patch``,
``intensity_hist``); externally computed descriptors are ingested through the
SFDESC1 binary format.  All similarity is cosine, with a zero-norm vector
defined to have similarity 0 against anything.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    EmptySetError,
    FormatError,
    InvalidInputError,
    UnknownTechniqueError,
)

SFDESC_MAGIC = b"SFDESC1\0"

# output dimension of each built-in technique
BUILTIN_DIMS = {"hog": 1764, "tiny_patch": 256, "intensity_hist": 64}

_MIN_IMAGE_SIDE = 16

_HOG_RESIZE = 64
_HOG_CELL = 8
_HOG_BINS = 9
_HOG_BLOCK = 2  # cells per block side


@dataclass(frozen=True)
class ImageGray:
    """A grayscale image with intensities in [0, 1], row-major."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width), float64

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.shape != (self.height, self.width):
            raise InvalidInputError(
                f"pixel array shape {px.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if not np.all(np.isfinite(px)):
            raise InvalidInputError("image contains non-finite values")
        if px.size and (px.min() < 0.0 or px.max() > 1.0):
            raise InvalidInputError("image intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_array(cls, arr) -> "ImageGray":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidInputError("expected a 2-D intensity array")
        return cls(width=arr.shape[1], height=arr.shape[0], pixels=arr)


@dataclass(frozen=True)
class DescriptorVector:
    technique_id: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise InvalidInputError("descriptor must be a 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("descriptor contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DescriptorSet:
    """Row-aligned descriptors for one technique; read-only once built."""

    technique_id: str
    dim: int
    matrix: np.ndarray  # shape (count, dim)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.dim:
            raise InvalidInputError("descriptor matrix shape mismatch")
        object.__setattr__(self, "matrix", mat)

    @property
    def count(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SimilarityVector:
    """Scores of one query against every reference image."""

    technique_id: str
    scores: np.ndarray

    def __post_init__(self):
        sc = np.asarray(self.scores, dtype=np.float64)
        if sc.ndim != 1:
            raise InvalidInputError("similarity scores must be 1-D")
        if not np.all(np.isfinite(sc)):
            raise InvalidInputError("similarity scores must be finite")
        object.__setattr__(self, "scores", sc)

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True)
class MatchScore:
    """Maximum similarity and the reference index attaining it."""

    value: float
    best_index: int


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with pixel-center sampling and clamped borders."""
    in_h, in_w = img.shape
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bot = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy[:, 0])[:, None] + bot * fy[:, 0][:, None]


def _gradients(img: np.ndarray):
    """Central differences with replicated borders."""
    padded = np.pad(img, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    return gx, gy


def _hog(img: np.ndarray) -> np.ndarray:
    img = _resize_bilinear(img, _HOG_RESIZE, _HOG_RESIZE)
    gx, gy = _gradients(img)
    mag = np.hypot(gx, gy)
    # unsigned orientation in [0, 180), bilinear vote between bin centers
    theta = np.degrees(np.arctan2(gy, gx)) % 180.0
    bin_width = 180.0 / _HOG_BINS
    pos = theta / bin_width - 0.5
    k0 = np.floor(pos).astype(int)
    frac = pos - k0
    k0 = k0 % _HOG_BINS
    k1 = (k0 + 1) % _HOG_BINS

    n_cells = _HOG_RESIZE // _HOG_CELL
    hist = np.zeros((n_cells, n_cells, _HOG_BINS))
    cy = np.arange(_HOG_RESIZE) // _HOG_CELL
    cell_y = np.repeat(cy, _HOG_RESIZE).reshape(_HOG_RESIZE, _HOG_RESIZE)
    cell_x = cell_y.T
    np.add.at(hist, (cell_y, cell_x, k0), mag * (1.0 - frac))
    np.add.at(hist, (cell_y, cell_x, k1), mag * frac)

    n_blocks = n_cells - _HOG_BLOCK + 1
    out = np.empty((n_blocks, n_blocks, _HOG_BLOCK * _HOG_BLOCK * _HOG_BINS))
    for by in range(n_blocks):
        for bx in range(n_blocks):
            block = hist[by : by + _HOG_BLOCK, bx : bx + _HOG_BLOCK].ravel()
            norm = np.linalg.norm(block)
            out[by, bx] = block / norm if norm > 0 else 0.0
    return out.ravel()


def _tiny_patch(img: np.ndarray) -> np.ndarray:
    patch = _resize_bilinear(img, 16, 16).ravel()
    patch = patch - patch.mean()
    norm = np.linalg.norm(patch)
    return patch / norm if norm > 0 else np.zeros_like(patch)


def _intensity_hist(img: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(img.ravel(), bins=64, range=(0.0, 1.0))
    return counts / img.size


def compute_descriptor(image: ImageGray, technique: str) -> DescriptorVector:
    """Compute a built-in descriptor for one image.

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
    return DescriptorVector(technique, fn[technique](image.pixels))


def save_descriptor_set(dset: DescriptorSet, path) -> None:
    """Write the SFDESC1 binary layout (little-endian, float32 rows)."""
    payload = np.ascontiguousarray(dset.matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(SFDESC_MAGIC)
        fh.write(struct.pack("<II", dset.count, dset.dim))
        fh.write(payload.tobytes())


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
    """Read an SFDESC1 file; values come back bit-exact as stored."""
    with open(path, "rb") as fh:
        count, dim = _read_header(fh, path)
        payload = fh.read()
    if len(payload) != 4 * count * dim:  # the file changed while being read
        raise FormatError(
            f"{path}: payload size {len(payload)} bytes, expected {4 * count * dim}"
        )
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    matrix = matrix.astype(np.float64)
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"{path}: non-finite descriptor values")
    tid = technique_id if technique_id is not None else "external"
    return DescriptorSet(technique_id=tid, dim=dim, matrix=matrix)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def similarity_vector(query: DescriptorVector, refs: DescriptorSet) -> SimilarityVector:
    """Cosine similarity of one query descriptor against every reference row."""
    if query.dim != refs.dim:
        raise InvalidInputError(
            f"query dim {query.dim} != reference dim {refs.dim}"
        )
    qn = np.linalg.norm(query.values)
    if qn == 0.0:
        return SimilarityVector(refs.technique_id, np.zeros(refs.count))
    rn = np.linalg.norm(refs.matrix, axis=1)
    dots = refs.matrix @ query.values
    scores = np.where(rn > 0.0, dots / (np.where(rn > 0.0, rn, 1.0) * qn), 0.0)
    return SimilarityVector(refs.technique_id, scores)


def similarity_block(queries, refs, ref_norms=None) -> np.ndarray:
    """Cosine similarity of every query row against every reference row.

    Returns the Q x R block from one matrix product; an entry whose query or
    reference row has zero norm is 0, as in ``similarity_vector``.
    ``ref_norms`` are the reference row norms when the caller keeps them
    across blocks.
    """
    queries = np.asarray(queries, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    if queries.ndim != 2 or refs.ndim != 2 or queries.shape[1] != refs.shape[1]:
        raise InvalidInputError(
            f"query block {queries.shape} does not match reference block "
            f"{refs.shape}"
        )
    qn = np.linalg.norm(queries, axis=1)
    rn = np.linalg.norm(refs, axis=1) if ref_norms is None else ref_norms
    dots = queries @ refs.T
    norms = qn[:, None] * rn[None, :]
    return np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)


def raw_match_score(sim: SimilarityVector) -> MatchScore:
    """Maximum of the similarity vector; ties go to the lowest index."""
    if len(sim) == 0:
        raise InvalidInputError("empty similarity vector")
    idx = int(np.argmax(sim.scores))  # np.argmax returns the first maximum
    return MatchScore(value=float(sim.scores[idx]), best_index=idx)
