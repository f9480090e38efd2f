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
    """Decode a P5 file with maxval 255.  The image keeps the checked 8-bit
    data, which the built-in descriptors read directly; its ``pixels`` are
    derived only when read."""
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
    # a single whitespace after maxval; an empty image needs no byte after it
    pos = min(pos + 1, len(blob))
    if len(blob) - pos < width * height:
        raise FormatError(f"{path}: truncated PGM payload")
    raw = np.frombuffer(blob, np.uint8, count=width * height, offset=pos)
    raw = raw.reshape(height, width)
    return ImageGray._from_bytes(raw)


def save_pgm(image: ImageGray, path) -> None:
    # C order whatever the layout of ``pixels``: the file takes the buffer
    arr = np.clip(np.round(image.pixels * 255.0), 0, 255).astype(np.uint8, order="C")
    write_atomic(path, f"P5\n{image.width} {image.height}\n255\n", arr)
