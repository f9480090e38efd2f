"""Measurement core of the switchfuse benchmark.

``measure`` drives the real CLI in-process (``switchfuse.cli.main``) on one
workload's generated inputs: ``calibrate`` on the calibration split, then
program set-up, then ``run``, ``evaluate`` and ``compare`` on the eval split.
One process, closed loop: each command starts after the previous one ends.
After one warm-up pass, set-up and commands repeat, interleaved, until each
has spent its share of the run's seconds, and every output is checked.  The
reference probe (``probe.py``) is timed every tenth of a second throughout.

Untraced, it reports the end-to-end metrics: set-up time in seconds, and
each command's throughput in queries per probe.  Traced, each repetition is a
pair, first untraced and then under ``tracer.Tracer``, and it reports the
per-layer metrics of ``layers`` plus the traced/untraced wall-time ratio.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
import probe
import workloads
from tracer import Tracer, segment_stats

BENCH_DIR = Path(__file__).resolve().parent

COMMANDS = ("calibrate", "run", "evaluate", "compare")
# share of --seconds each step gets; compare's repetitions are the longest,
# so it gets the most time
SHARES = {"setup": 0.05, "calibrate": 0.25, "run": 0.25, "evaluate": 0.05,
          "compare": 0.4}

E2E_UNITS = {
    "setup_s": "s",
    "calibrate_queries_per_probe": "queries/probe",
    "run_queries_per_probe": "queries/probe",
    "compare_queries_per_probe": "queries/probe",
    "evaluate_queries_per_probe": "queries/probe",
    "peak_rss_mb": "MiB",
    "accuracy_switch_fuse": "fraction",
    "accuracy_switch_only": "fraction",
    "accuracy_fuse_all": "fraction",
}
ACCURACY_METRICS = {
    "accuracy_switch_fuse": "switch-fuse",
    "accuracy_switch_only": "switch-only",
    "accuracy_fuse_all": "fuse-all",
}


class Workspace:
    """Paths of one run's generated inputs and of the commands' outputs."""

    def __init__(self, inputs_path: Path, out_dir: Path):
        with open(inputs_path) as fh:
            self.inputs = json.load(fh)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.store = out_dir / "store.sfcal"
        self.predictions = out_dir / "preds.csv"
        self.report = out_dir / "report"
        self.compare = out_dir / "compare"
        with open(self.inputs["eval_manifest"]) as fh:
            self.reference_count = int(json.load(fh)["reference_count"])

    def queries(self, command: str) -> int:
        if command == "calibrate":
            return self.inputs["calibration_queries"]
        return self.inputs["eval_queries"]

    def argv(self, command: str) -> list[str]:
        inp = self.inputs
        common = ["--config", inp["config"]]
        if command == "calibrate":
            return ["calibrate", "--manifest", inp["calib_manifest"], *common,
                    "--out", str(self.store)]
        if command == "run":
            return ["run", "--manifest", inp["eval_manifest"], *common,
                    "--store", str(self.store), "--out", str(self.predictions),
                    "--no-timestamp"]
        if command == "evaluate":
            return ["evaluate", "--predictions", str(self.predictions),
                    "--manifest", inp["eval_manifest"], "--out", str(self.report),
                    "--no-timestamp"]
        return ["compare", "--manifest", inp["eval_manifest"], *common,
                "--store", str(self.store), "--out", str(self.compare),
                "--no-timestamp"]

    def outputs(self, command: str) -> list[Path]:
        path = {
            "calibrate": self.store,
            "run": self.predictions,
            "evaluate": self.report,
            "compare": self.compare,
        }[command]
        if path.is_dir():
            return sorted(p for p in path.iterdir() if p.is_file())
        return [path] if path.exists() else []

    def clear(self, command: str) -> None:
        """Remove a command's outputs so a stale file cannot pass a check."""
        for path in self.outputs(command):
            path.unlink()

    def bytes_written(self, command: str) -> int:
        return sum(p.stat().st_size for p in self.outputs(command))


@dataclass
class Invocation:
    command: str
    rc: int | None
    seconds: float
    stderr: str


def invoke(ws: Workspace, command: str) -> Invocation:
    """Run one CLI command in-process and time it."""
    from switchfuse import cli

    err = io.StringIO()
    start = perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = cli.main(ws.argv(command))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    return Invocation(command, rc, perf_counter() - start, err.getvalue())


def set_up(ws: Workspace):
    """Program set-up before the first query of ``run``/``compare``."""
    from switchfuse import calibration
    from switchfuse.datasets import DatasetRuntime, load_config, load_manifest

    manifest = load_manifest(ws.inputs["eval_manifest"])
    runtime = DatasetRuntime(manifest)
    config = load_config(ws.inputs["config"])
    store = calibration.load_store(ws.store)
    return runtime, config, store


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class OutputCheck:
    """Checks every command's exit code and outputs.

    Outputs must be byte-identical across repetitions (traced or not); the
    predictions' accuracy is recomputed from the generator's ground truth
    and must equal both ``evaluate``'s summary and ``compare``'s switch-fuse
    row; at the workload's frozen seed every method's accuracy must match.
    """

    def __init__(self, ws: Workspace, spec: workloads.Workload, seed: int):
        self.ws = ws
        self.expected = spec.expected_accuracy if seed == spec.expected_seed else {}
        self.methods = ["switch-fuse", "switch-only", "fuse-all"] + [
            f"single:{t}" for t in ws.inputs["techniques"]
        ]
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.predicted_correct: int | None = None
        self.accuracy: dict[str, float] = {}

    def __call__(self, inv: Invocation) -> bool:
        before = len(self.failures)
        if inv.rc != 0:
            self.failures.append(
                f"{inv.command}: exit {inv.rc}: {inv.stderr.strip()[-500:]}"
            )
        else:
            try:
                getattr(self, "_" + inv.command)()
            except (OSError, KeyError, ValueError) as exc:
                self.failures.append(f"{inv.command}: unreadable output: {exc!r}")
            self._same_bytes(inv.command)
        return len(self.failures) == before

    def _fail(self, command: str, message: str) -> None:
        self.failures.append(f"{command}: {message}")

    def _same_bytes(self, command: str) -> None:
        outputs = self.ws.outputs(command)
        if not outputs:
            self._fail(command, "wrote no output")
            return
        digest = _digest(outputs)
        first = self.digests.setdefault(command, digest)
        if digest != first:
            self._fail(command, "output differs from the first repetition")

    def _calibrate(self) -> None:
        pass  # the store is read back by every set-up, run and compare

    def _run(self) -> None:
        rows = _read_csv(self.ws.predictions)
        truth = self.ws.inputs["truth"]
        if [int(r["query"]) for r in rows] != list(range(len(truth))):
            self._fail("run", "predictions do not cover every eval query once")
            return
        predicted = [int(r["predicted"]) for r in rows]
        if not all(0 <= p < self.ws.reference_count for p in predicted):
            self._fail("run", "prediction out of reference range")
        self.predicted_correct = sum(
            p in accepted for p, accepted in zip(predicted, truth)
        )

    def _evaluate(self) -> None:
        (summary,) = _read_csv(self.ws.report / "switch-fuse_summary.csv")
        if int(summary["query_count"]) != self.ws.queries("evaluate"):
            self._fail("evaluate", "summary query count is wrong")
        if int(summary["correct_count"]) != self.predicted_correct:
            self._fail("evaluate", "accuracy differs from the predictions' own")

    def _compare(self) -> None:
        rows = {r["method"]: r for r in _read_csv(self.ws.compare / "comparison.csv")}
        if list(rows) != self.methods:
            self._fail("compare", f"methods {list(rows)} != {self.methods}")
            return
        queries = self.ws.queries("compare")
        for method, row in rows.items():
            self.accuracy[method] = int(row["correct_count"]) / queries
        if int(rows["switch-fuse"]["correct_count"]) != self.predicted_correct:
            self._fail("compare", "switch-fuse row differs from run + evaluate")
        for method, expected in self.expected.items():
            got = self.accuracy[method]
            if abs(got - expected) > workloads.ACCEPTANCE_TOLERANCE:
                self._fail(
                    "compare", f"{method} accuracy {got:.4f} != frozen {expected:.3f}"
                )


@dataclass
class Run:
    """Everything one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    warmup_samples: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    traced_samples: dict[str, list[float]] = field(default_factory=dict)
    layer_samples: dict[str, list[float]] = field(default_factory=dict)
    # per untraced sample: the probes taken while it ran, as a slice
    probe_spans: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


class Measurement:
    def __init__(self, ws, spec, seed, seconds, tracer: Tracer | None):
        self.ws = ws
        self.check = OutputCheck(ws, spec, seed)
        self.seconds = seconds
        self.tracer = tracer
        self.sampler = probe.Sampler()
        self.run = Run()

    @contextmanager
    def _traced(self, label: str, traced: bool):
        if not traced:
            yield
            return
        with self.sampler.paused(), self.tracer.active(), self.tracer.segment(label):
            yield

    def _mark(self) -> tuple[int, float]:
        return len(self.sampler.samples), self.sampler.seconds

    def _record(self, label, traced, seconds, mark, ok) -> bool:
        """Record one step's time, less the probes that landed in it."""
        self.run.attempted += 1
        if not ok:
            self.run.failed += 1
            return False
        first, probed = mark
        seconds -= self.sampler.seconds - probed
        if traced:
            self.run.traced_samples.setdefault(label, []).append(seconds)
        else:
            self.run.samples.setdefault(label, []).append(seconds)
            span = (first, len(self.sampler.samples))
            self.run.probe_spans.setdefault(label, []).append(span)
        return True

    def _command(self, command: str, traced: bool) -> bool:
        self.ws.clear(command)
        mark = self._mark()
        with self._traced(command, traced):
            inv = invoke(self.ws, command)
        return self._record(command, traced, inv.seconds, mark, self.check(inv))

    def _setup(self, traced: bool) -> bool:
        mark = self._mark()
        start = perf_counter()
        try:
            with self._traced("setup", traced):
                set_up(self.ws)
        except Exception:
            self.check.failures.append("setup: " + traceback.format_exc()[-500:])
            return self._record("setup", traced, 0.0, mark, False)
        return self._record("setup", traced, perf_counter() - start, mark, True)

    def _layer_sample(self, label: str) -> None:
        _, first, stop = self.tracer.segments[-1]
        stats = segment_stats(self.tracer, first, stop)
        untraced = self.run.samples[label][-1]
        traced = self.run.traced_samples[label][-1]
        ctx = layers.Context(
            queries=self.ws.queries(label) if label != "setup" else 1,
            bytes_written=self.ws.bytes_written(label) if label != "setup" else 0,
            store_bytes=self.ws.store.stat().st_size if self.ws.store.exists() else 0,
            overhead_ratio=traced / untraced,
        )
        for name, value in layers.segment_metrics(label, stats, ctx).items():
            self.run.layer_samples.setdefault(name, []).append(value)

    def _rep(self, label: str, step) -> bool:
        """One repetition; in a traced run an untraced/traced pair."""
        if not step(False):
            return False
        if self.tracer is not None:
            if not step(True):
                return False
            self._layer_sample(label)
        return True

    def measure(self) -> Run:
        """Run each command once in dependency order as a warm-up, with
        set-up after ``calibrate`` (their times are kept apart), then keep
        running the step furthest below its share of ``seconds`` until every
        step has spent its share.  Interleaving spreads each step's samples
        over the whole run, so a slow spell of the machine hits all steps
        alike instead of one; the probe samples the machine's speed over the
        same stretch, and its time is taken out of every step's."""
        steps = {"setup": self._setup}
        for command in COMMANDS:
            steps[command] = lambda traced, c=command: self._command(c, traced)
            self.ws.clear(command)
            inv = invoke(self.ws, command)
            self.run.attempted += 1
            if not self.check(inv):
                self.run.failed += 1
                return self.run
            self.run.warmup_samples[command] = inv.seconds
            if command == "calibrate":
                if not self._setup(False):
                    return self.run
                self.run.warmup_samples["setup"] = self.run.samples.pop("setup")[0]
                del self.run.probe_spans["setup"]
        spent = dict.fromkeys(steps, 0.0)
        with self.sampler:
            while True:
                label = min(steps, key=lambda k: spent[k] / SHARES[k])
                if spent[label] >= SHARES[label] * self.seconds:
                    return self.run
                start = perf_counter()
                if not self._rep(label, steps[label]):
                    return self.run
                spent[label] += perf_counter() - start

    def end_to_end(self) -> dict[str, float]:
        samples = self.run.samples
        metrics = {
            "setup_s": statistics.median(samples["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        probes = self.sampler.samples
        for command in COMMANDS:
            # each repetition against the machine's speed while it ran: the
            # probes inside it and the ones just before and after it
            per_rep = [
                self.ws.queries(command)
                * statistics.fmean(probes[max(first - 1, 0) : stop + 1])
                / seconds
                for seconds, (first, stop) in zip(
                    samples[command], self.run.probe_spans[command]
                )
            ]
            metrics[f"{command}_queries_per_probe"] = statistics.median(per_rep)
        for name, method in ACCURACY_METRICS.items():
            metrics[name] = self.check.accuracy[method]
        return {name: metrics[name] for name in E2E_UNITS}

    def raw_qps(self) -> dict[str, float]:
        """Queries per second of wall time, before dividing out the
        machine's speed; printed and recorded, not a bounded metric."""
        return {
            command: self.ws.queries(command) / statistics.median(self.run.samples[command])
            for command in COMMANDS
        }

    def per_layer(self) -> dict[str, float]:
        return {
            name: statistics.median(self.run.layer_samples[name])
            for name in layers.metric_units()
        }


def environment() -> dict:
    """Hardware and library facts the numbers depend on."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
    }


def generate(spec: workloads.Workload, seed: int, out: Path) -> Path:
    """Generate the inputs in a child process and wait for it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"),
         "--spec", workloads.spec_to_json(spec), "--seed", str(seed),
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return out / "inputs.json"


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    failures: list[str]
    details: dict


def run_workload(spec, seed: int, seconds: float, trace: bool, state_dir: Path) -> Result:
    """Generate inputs, measure, check; ``state_dir`` holds the scratch
    inputs (deleted afterwards) and the kept result and span files."""
    work = state_dir / "work" / f"{spec.name}-seed{seed}-{os.getpid()}"
    try:
        inputs = generate(spec, seed, work / "inputs")
        ws = Workspace(inputs, work / "out")
        tracer = Tracer() if trace else None
        m = Measurement(ws, spec, seed, seconds, tracer)
        run = m.measure()
        failures = m.check.failures
        correct = run.failed == 0 and not failures
        if trace:
            units = layers.metric_units()
            metrics = m.per_layer() if correct else {k: 0.0 for k in units}
        else:
            units = dict(E2E_UNITS)
            metrics = m.end_to_end() if correct else {k: 0.0 for k in units}
        details = {
            "workload": spec.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "queries": {c: ws.queries(c) for c in COMMANDS},
            "warmup_s": run.warmup_samples,
            "probe_s": statistics.median(m.sampler.samples) if m.sampler.samples else None,
            "probe_samples": m.sampler.samples,
            "raw_qps": m.raw_qps() if correct else {},
            "samples_s": run.samples,
            "traced_samples_s": run.traced_samples,
            "layer_samples": run.layer_samples,
        }
        if tracer is not None:
            traces = state_dir / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            span_file = traces / f"{spec.name}-seed{seed}.npz"
            tracer.save(span_file)
            details["spans"] = str(span_file)
            details["span_count"] = len(tracer.name)
        return Result(correct, run.attempted, run.failed, metrics, units,
                      failures, details)
    finally:
        shutil.rmtree(work, ignore_errors=True)
