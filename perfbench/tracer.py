"""Outside-in span tracer for the switchfuse layer modules.

While active, every public function of a layer module and every public
method of a class it defines (plus hand-written ``__init__`` methods) is
replaced by a wrapper that records one span per call: name, start, end and
the enclosing span.  Every module of the package that imported one of those
functions gets its name rebound to the wrapper, so calls made through
``from .x import f`` are traced too.  Deactivating restores every original.

Spans live in flat in-memory arrays and are written out once, at the end.
Private helpers are never wrapped: they are the per-bin inner loops, and
wrapping them would make the traced run measure the tracer.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

PACKAGE = "switchfuse"
LAYERS = (
    "cli",
    "datasets",
    "descriptors",
    "pgm",
    "calibration",
    "switching",
    "fusion",
    "evaluation",
    "reports",
)


def _similarity_bytes(args, kwargs, result):
    """Computed bytes one cosine call moves: the R x D float64 reference
    matrix twice (row norms, then the matvec), the query once and three
    R-long float64 vectors (norms, dots, scores)."""
    query, refs = args[0], args[1]
    matrix = refs.matrix
    return 2 * matrix.nbytes + query.values.nbytes + 3 * 8 * matrix.shape[0], 0.0


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0]), 0.0


def _matrix_bytes(args, kwargs, result):
    return result.matrix.nbytes, 0.0


def _techniques_computed(args, kwargs, result):
    return len(result.similarity_cache), 0.0


def _hops_and_fallback(args, kwargs, result):
    return len(result.trace) - 1, 1.0 if result.fallback_used else 0.0


# Up to two numbers recorded with a span, read from the call at its boundary.
PAYLOADS = {
    "descriptors.similarity_vector": _similarity_bytes,
    "pgm.load_pgm": _file_bytes,
    "descriptors.load_descriptor_set": _matrix_bytes,
    "switching.run_tripartite": _techniques_computed,
    "switching.select_technique": _hops_and_fallback,
}

# Spans whose name carries an argument, so per-technique times separate.
SPAN_KEYS = {
    "descriptors.compute_descriptor": lambda args, kwargs: (
        args[1] if len(args) > 1 else kwargs["technique"]
    ),
}


class Tracer:
    """Records spans around the package's layer entry points.

    Use ``with tracer.active():`` to install the wrappers and
    ``with tracer.segment(label):`` to open a root span around one unit of
    benchmark work.  Spans accumulate across activations.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.a = array("d")
        self.b = array("d")
        self.segments: list[tuple[str, int, int]] = []  # label, first, stop
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.a.append(0.0)
        self.b.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def segment(self, label: str):
        """Root span ``bench.<label>`` around one command or set-up."""
        first = self._open(self._intern(f"bench.{label}"))
        try:
            yield
        finally:
            self._close(first)
            self.segments.append((label, first, len(self.name)))

    def _wrap(self, qualname: str, fn):
        nid = self._intern(qualname)
        key_of = SPAN_KEYS.get(qualname)
        payload = PAYLOADS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = nid if key_of is None else tracer._intern(
                f"{qualname}[{key_of(args, kwargs)}]"
            )
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if payload is not None:
                tracer.a[idx], tracer.b[idx] = payload(args, kwargs, result)
            return result

        return wrapper

    # -- installing and restoring ---------------------------------------
    def _wrap_class(self, layer: str, cls: type) -> None:
        own_init = "__init__" in vars(cls) and not dataclasses.is_dataclass(cls)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and own_init):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, types.FunctionType):
                new = self._wrap(qual, value)
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap(qual, value.__func__))
            else:
                continue  # properties and constants
            self._patches.append((cls, attr, value))
            setattr(cls, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
                elif isinstance(value, type):
                    self._wrap_class(layer, value)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading spans back ---------------------------------------------
    def save(self, path) -> None:
        """Write every span, the name table and the segments to ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            segment_labels=np.array([s[0] for s in self.segments]),
            segment_bounds=np.array(
                [(s[1], s[2]) for s in self.segments], dtype=np.int64
            ).reshape(-1, 2),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            a=np.frombuffer(self.a, dtype=np.float64),
            b=np.frombuffer(self.b, dtype=np.float64),
        )


@dataclasses.dataclass
class SegmentStats:
    """Per-name and per-layer totals of one segment's spans (times in ns)."""

    wall_ns: int
    count: dict[str, int]
    total_ns: dict[str, int]
    a_sum: dict[str, float]
    b_sum: dict[str, float]
    childless: dict[str, int]  # spans with no traced child
    layer_self_ns: dict[str, int]


def segment_stats(tracer: Tracer, first: int, stop: int) -> SegmentStats:
    """Aggregate spans ``[first, stop)``; span ``first`` is the root.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap (one thread, nested calls).
    """
    sl = slice(first, stop)
    name = np.frombuffer(tracer.name, dtype=np.int32)[sl]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[sl].astype(np.int64) - first
    dur = (
        np.frombuffer(tracer.end, dtype=np.int64)[sl]
        - np.frombuffer(tracer.start, dtype=np.int64)[sl]
    )
    a = np.frombuffer(tracer.a, dtype=np.float64)[sl]
    b = np.frombuffer(tracer.b, dtype=np.float64)[sl]
    n = len(name)
    inside = parent >= 0
    child_ns = np.bincount(parent[inside], weights=dur[inside], minlength=n)
    children = np.bincount(parent[inside], minlength=n)
    self_ns = dur - child_ns

    ids = np.arange(len(tracer.names))
    count = np.bincount(name, minlength=len(ids))
    total = np.bincount(name, weights=dur, minlength=len(ids))
    self_by_name = np.bincount(name, weights=self_ns, minlength=len(ids))
    a_sum = np.bincount(name, weights=a, minlength=len(ids))
    b_sum = np.bincount(name, weights=b, minlength=len(ids))
    childless = np.bincount(name, weights=children == 0, minlength=len(ids))

    stats = SegmentStats(
        wall_ns=int(dur[0]) if n else 0,
        count={},
        total_ns={},
        a_sum={},
        b_sum={},
        childless={},
        layer_self_ns={},
    )
    for nid in np.nonzero(count)[0]:
        label = tracer.names[nid]
        stats.count[label] = int(count[nid])
        stats.total_ns[label] = int(total[nid])
        stats.a_sum[label] = float(a_sum[nid])
        stats.b_sum[label] = float(b_sum[nid])
        stats.childless[label] = int(childless[nid])
        layer = label.split(".", 1)[0]
        if layer != "bench":
            stats.layer_self_ns[layer] = stats.layer_self_ns.get(layer, 0) + int(
                self_by_name[nid]
            )
    return stats
