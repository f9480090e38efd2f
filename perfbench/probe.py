"""Reference probe: a fixed kernel that measures how fast the machine is now.

On a shared virtual machine the same command runs up to 1.7 times slower
from one minute to the next, and the host switches between fast and slow
spells within a second, because other tenants load it.  ``Sampler`` times
``probe`` every ``INTERVAL_S`` seconds of wall time throughout a run, inside
long commands too, and the benchmark reports each command's throughput in
queries per probe: each repetition's time is set against the probes taken
while it ran, which divides that drift out.  The probe never calls
``switchfuse``, so a change to the program cannot move it.  Changing this
file changes the scale of every throughput metric: numbers measured before
and after such a change do not compare.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1

# a 160-px test image, like the image workload's
_IMAGE = (np.arange(160 * 160, dtype=np.float64).reshape(160, 160) * 7919) % 251


def probe() -> float:
    """Run the kernel once (about 2.5 ms) and return its wall time in seconds:
    dict and integer work, like the switching and calibration layers, then
    small-array numpy work, like descriptor extraction and similarity."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    gx = np.diff(_IMAGE, axis=1)[:-1]
    gy = np.diff(_IMAGE, axis=0)[:, :-1]
    np.histogram(np.arctan2(gy, gx), bins=9, weights=np.hypot(gx, gy))
    return perf_counter() - start


class Sampler:
    """Runs ``probe`` from a SIGALRM handler every ``INTERVAL_S`` seconds
    while active.  The handler runs in the main thread between bytecodes,
    so a probe that lands inside a timed command adds to its wall time;
    ``seconds`` (total probe time so far) lets the caller subtract it.
    One probe is also taken on entry and one on exit, so every repetition
    has a probe before and after it."""

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = 0.0
        self._previous = None
        self._active = False

    def _sample(self, signum, frame) -> None:
        elapsed = probe()
        self.samples.append(elapsed)
        self.seconds += elapsed

    def __enter__(self) -> "Sampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._active = False
        self._sample(None, None)

    @contextmanager
    def paused(self):
        """No probes inside this block, so none lands in a traced span."""
        if not self._active:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
