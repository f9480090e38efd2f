"""Minimal binary PGM (P5) reader/writer for 8-bit grayscale images."""

from __future__ import annotations

import numpy as np

from .descriptors import ImageGray
from .errors import FormatError
from .files import write_atomic


def _read_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
    while pos < len(blob):
        c = blob[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and not blob[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated PGM header")
    return blob[start:pos], pos


def load_pgm(path) -> ImageGray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    pos = 2
    width, pos = _read_token(blob, pos)
    height, pos = _read_token(blob, pos)
    maxval, pos = _read_token(blob, pos)
    try:
        width, height, maxval = int(width), int(height), int(maxval)
    except ValueError as exc:
        raise FormatError(f"{path}: bad PGM header") from exc
    if width < 0 or height < 0:
        raise FormatError(f"{path}: negative PGM size {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    data = blob[pos : pos + width * height]
    if len(data) != width * height:
        raise FormatError(f"{path}: truncated PGM payload")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    pixels = arr.astype(np.float64)
    pixels /= 255.0  # bit for bit the values arr / 255.0 gives
    return ImageGray._from_unit_pixels(pixels)


def save_pgm(image: ImageGray, path) -> None:
    arr = np.clip(np.round(image.pixels * 255.0), 0, 255).astype(np.uint8)
    write_atomic(path, f"P5\n{image.width} {image.height}\n255\n", arr)
