"""The one writer of every file switchfuse writes.

Calibration stores, SFDESC1 descriptor sets, PGM images, configs, ground
truth, manifests, CSV reports and SVG plots all go through
``write_atomic``.  It writes a temporary file beside the target and then
renames it onto the target, so a write that fails part-way leaves the
previous file, or none, and no temporary.  A target that exists and is not
a regular file, such as a FIFO or a device (``/dev/stdout``, ``/dev/null``),
is written in place, since a rename would replace the node itself; so
``--out /dev/stdout`` works.  A directory target fails when it is opened,
before anything is written.
"""

from __future__ import annotations

import os
import stat


def write_atomic(path, *parts) -> None:
    """Write ``parts`` one after another to ``path``: each part bytes-like,
    or ``str`` written as UTF-8."""
    path = os.fspath(path)
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    target = path if in_place else f"{path}.{os.getpid()}.tmp"
    fh = open(target, "wb")
    try:
        with fh:
            for part in parts:
                fh.write(part.encode() if isinstance(part, str) else part)
        if not in_place:
            os.replace(target, path)
    except BaseException:
        if not in_place:
            os.unlink(target)
        raise
