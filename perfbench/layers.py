"""Per-layer metrics derived from one traced segment.

Each metric is a function of the segment's span totals (see
``tracer.segment_stats``) and a context holding the query count of the
command and the bytes of the files it wrote.  A metric with no work to
measure on a workload (PGM decoding on a score workload, say) reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import SegmentStats

SIMILARITY = "datasets.DatasetRuntime.similarity"
COSINE = "descriptors.similarity_vector"
EXTRACT = "descriptors.compute_descriptor"
BUILTINS = ("hog", "tiny_patch", "intensity_hist")


@dataclass(frozen=True)
class Context:
    queries: int
    bytes_written: int = 0
    store_bytes: int = 0
    overhead_ratio: float = 0.0


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _us(ns: float) -> float:
    return ns / 1e3


def _ms(ns: float) -> float:
    return ns / 1e6


def _count(s: SegmentStats, name: str) -> int:
    return s.count.get(name, 0)


def _total(s: SegmentStats, name: str) -> int:
    return s.total_ns.get(name, 0)


def _prefixed_total(s: SegmentStats, prefix: str) -> int:
    return sum(v for k, v in s.total_ns.items() if k.startswith(prefix))


def _self(s: SegmentStats, layer: str) -> int:
    return s.layer_self_ns.get(layer, 0)


def _extract(tech):
    name = f"{EXTRACT}[{tech}]"
    return lambda s, c: _us(_per(_total(s, name), _count(s, name)))


# (metric suffix, unit, function of (stats, context))
SIMILARITY_METRICS = [
    ("datasets.similarity_calls_per_query", "count",
     lambda s, c: _per(_count(s, SIMILARITY), c.queries)),
    ("datasets.self_us_per_query", "us",
     lambda s, c: _us(_per(_self(s, "datasets"), c.queries))),
    ("datasets.query_cache_hit_ratio", "ratio",
     lambda s, c: _per(s.childless.get(SIMILARITY, 0), _count(s, SIMILARITY))),
    ("descriptors.similarity_us_per_call", "us",
     lambda s, c: _us(_per(_total(s, COSINE), _count(s, COSINE)))),
    ("descriptors.similarity_us_per_query", "us",
     lambda s, c: _us(_per(_total(s, COSINE), c.queries))),
    ("descriptors.similarity_bytes_per_call", "bytes-computed",
     lambda s, c: _per(s.a_sum.get(COSINE, 0.0), _count(s, COSINE))),
    *[
        (f"descriptors.extract_us_per_image.{tech}", "us", _extract(tech))
        for tech in BUILTINS
    ],
    ("pgm.load_us_per_image", "us",
     lambda s, c: _us(_per(_total(s, "pgm.load_pgm"), _count(s, "pgm.load_pgm")))),
    ("pgm.bytes_read", "bytes", lambda s, c: s.a_sum.get("pgm.load_pgm", 0.0)),
]

COMMON_METRICS = [
    ("cli.self_ms", "ms", lambda s, c: _ms(_self(s, "cli"))),
    ("trace.overhead_ratio", "ratio", lambda s, c: c.overhead_ratio),
]

CALIBRATE_METRICS = [
    ("calibration.build_store_ms", "ms",
     lambda s, c: _ms(_total(s, "calibration.build_store"))),
    ("calibration.pair_count", "count",
     lambda s, c: _count(s, "calibration.calibrate_pair")),
    ("calibration.save_store_ms", "ms",
     lambda s, c: _ms(_total(s, "calibration.save_store"))),
    ("calibration.store_bytes", "bytes", lambda s, c: c.store_bytes),
]

EVALUATION_METRICS = [
    ("evaluation.self_us_per_query", "us",
     lambda s, c: _us(_per(_self(s, "evaluation"), c.queries))),
    ("evaluation.pr_curve_ms", "ms",
     lambda s, c: _ms(_total(s, "evaluation.pr_curve"))),
    ("evaluation.score_ms", "ms",
     lambda s, c: _ms(_total(s, "evaluation.score_predictions"))),
    ("reports.write_ms", "ms",
     lambda s, c: _ms(_prefixed_total(s, "reports.write_"))),
    ("reports.bytes_written", "bytes", lambda s, c: c.bytes_written),
]

SWITCHING_METRICS = [
    ("calibration.lookups_per_query", "count",
     lambda s, c: _per(_count(s, "calibration.LikelihoodHistogram.mass"), c.queries)),
    ("calibration.lookup_us_per_query", "us",
     lambda s, c: _us(_per(_self(s, "calibration"), c.queries))),
    ("calibration.load_store_ms", "ms",
     lambda s, c: _ms(_total(s, "calibration.load_store"))),
    ("switching.self_us_per_query", "us",
     lambda s, c: _us(_per(_self(s, "switching"), c.queries))),
    ("switching.techniques_per_query", "count",
     lambda s, c: _per(s.a_sum.get("switching.run_tripartite", 0.0),
                       _count(s, "switching.run_tripartite"))),
    ("switching.hops_per_decision", "count",
     lambda s, c: _per(s.a_sum.get("switching.select_technique", 0.0),
                       _count(s, "switching.select_technique"))),
    ("switching.fallback_rate", "ratio",
     lambda s, c: _per(s.b_sum.get("switching.select_technique", 0.0),
                       _count(s, "switching.select_technique"))),
    ("fusion.us_per_query", "us",
     lambda s, c: _us(_per(_self(s, "fusion"), c.queries))),
]

SETUP_METRICS = [
    ("datasets.runtime_init_ms", "ms",
     lambda s, c: _ms(_total(s, "datasets.DatasetRuntime.__init__"))),
    ("descriptors.load_set_ms", "ms",
     lambda s, c: _ms(_total(s, "descriptors.load_descriptor_set"))),
    ("descriptors.load_set_bytes", "bytes",
     lambda s, c: s.a_sum.get("descriptors.load_descriptor_set", 0.0)),
    ("calibration.load_store_ms", "ms",
     lambda s, c: _ms(_total(s, "calibration.load_store"))),
    ("trace.overhead_ratio", "ratio", lambda s, c: c.overhead_ratio),
]

# Which metrics each traced segment reports, prefixed with the segment label.
SEGMENT_METRICS = {
    "setup": SETUP_METRICS,
    "calibrate": SIMILARITY_METRICS + CALIBRATE_METRICS + COMMON_METRICS,
    "run": SIMILARITY_METRICS + SWITCHING_METRICS + EVALUATION_METRICS + COMMON_METRICS,
    "evaluate": [
        ("datasets.self_us_per_query", "us",
         lambda s, c: _us(_per(_self(s, "datasets"), c.queries))),
        *EVALUATION_METRICS,
        ("reports.read_ms", "ms",
         lambda s, c: _ms(_total(s, "reports.read_predictions"))),
        *COMMON_METRICS,
    ],
    "compare": SIMILARITY_METRICS + SWITCHING_METRICS + EVALUATION_METRICS + COMMON_METRICS,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    return {
        f"{label}.{suffix}": unit
        for label, metrics in SEGMENT_METRICS.items()
        for suffix, unit, _ in metrics
    }


def segment_metrics(label: str, stats: SegmentStats, ctx: Context) -> dict[str, float]:
    return {
        f"{label}.{suffix}": float(fn(stats, ctx))
        for suffix, _, fn in SEGMENT_METRICS[label]
    }
