"""Damaged binary and text inputs through the whole pipeline.

One SFDESC1, PGM, SFCAL1 or predictions file of a working pipeline is cut
short, has bits flipped, has a header byte overwritten or has bytes
appended.  Every command that reads the file then runs through ``cli.main``
in-process and must exit 0, or exit 1 with one ``SF-`` line and no
traceback; any other exception escapes ``main`` and fails the test.
``tests/test_format_fuzz.py`` damages the same formats at loader level.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfuse.datasets import save_config
from switchfuse.switching import TripartiteConfig, UnitConfig
from switchfuse.synthetic import export_image_dataset, generate_image_dataset
from tests.test_cli import run_cli, write_config, write_spec

# (dataset, file, the commands that read it)
TARGETS = [
    ("score", "data/calib_refs.sfdesc", ("calibrate",)),
    ("score", "data/calib_queries_a.sfdesc", ("calibrate",)),
    ("score", "data/eval_refs.sfdesc", ("run", "compare")),
    ("score", "data/eval_queries_b.sfdesc", ("run", "compare")),
    ("score", "store.sfcal", ("run", "compare")),
    ("score", "preds.csv", ("evaluate",)),
    ("image", "calib/refs/calib_0000.pgm", ("calibrate",)),
    ("image", "calib/queries/calib_0001.pgm", ("calibrate",)),
    ("image", "eval/refs/eval_0002.pgm", ("run", "compare")),
    ("image", "eval/queries/eval_0003.pgm", ("run", "compare")),
    ("image", "store.sfcal", ("run", "compare")),
    ("image", "preds.csv", ("evaluate",)),
]


def _argv(pipeline, command, out=None):
    """The command line of ``command`` on ``pipeline``, a (directory,
    calibration manifest, eval manifest), writing to ``out`` or under the
    directory's ``out``."""
    d, calib, evals = pipeline
    out = out or d / "out" / command
    common = ["--manifest", evals, "--config", d / "config.json",
              "--store", d / "store.sfcal", "--out", out]
    return {
        "calibrate": ["calibrate", "--manifest", calib, "--config", d / "config.json",
                      "--out", out],
        "run": ["run", *common],
        "compare": ["compare", *common],
        "evaluate": ["evaluate", "--predictions", d / "preds.csv",
                     "--manifest", evals, "--out", out],
    }[command]


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """dataset -> (directory, calibration manifest, eval manifest) of a
    calibrated pipeline with its predictions: ``pipeline_dir``'s three
    SFDESC1 techniques, and twelve places of 32-pixel images under all three
    built-ins in one unit."""
    score = tmp_path_factory.mktemp("score")
    write_spec(score / "spec.json", [("a", 0.6), ("b", 0.5), ("c", 0.55)])
    write_config(score / "config.json", [["a", "b"], ["c", "a"]])
    assert run_cli("synth", "--spec", score / "spec.json", "--seed", 5,
                   "--out", score / "data") == 0
    image = tmp_path_factory.mktemp("image")
    for split, seed in (("calib", 1), ("eval", 2)):
        refs, queries = generate_image_dataset(12, seed, size=32)
        export_image_dataset(refs, queries, image / split, split)
    units = (UnitConfig("u0", ("hog", "tiny_patch", "intensity_hist")),)
    save_config(TripartiteConfig(units=units), image / "config.json")
    splits = ("calib", "eval")
    found = {
        "score": (score, *(score / "data" / f"{s}_manifest.json" for s in splits)),
        "image": (image, *(image / s / f"{s}_manifest.json" for s in splits)),
    }
    with contextlib.redirect_stdout(io.StringIO()):
        for pipeline in found.values():
            d = pipeline[0]
            (d / "out").mkdir()
            assert run_cli(*_argv(pipeline, "calibrate", d / "store.sfcal")) == 0
            assert run_cli(*_argv(pipeline, "run", d / "preds.csv")) == 0
    return found


def _damage(blob: bytes, kind: str, at: int, value: int) -> bytes:
    """``blob`` cut short at ``at``, with bit ``value % 8`` of byte ``at``
    flipped, with one of its first 16 bytes set to ``value``, or with
    ``value + 1`` bytes of ``value`` appended (positions modulo the
    length)."""
    if kind == "append":
        return blob + bytes([value]) * (value + 1)
    if kind == "truncate":
        return blob[: at % len(blob)]
    at %= min(len(blob), 16) if kind == "header" else len(blob)
    byte = value if kind == "header" else blob[at] ^ (1 << value % 8)
    return blob[:at] + bytes([byte]) + blob[at + 1 :]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    target=st.sampled_from(TARGETS),
    kind=st.sampled_from(["truncate", "flip", "header", "append"]),
    at=st.integers(0, 2**16),
    value=st.integers(0, 255),
)
def test_damaged_file_ends_in_an_sf_code(pipelines, target, kind, at, value):
    dataset, name, commands = target
    pipeline = pipelines[dataset]
    path = pipeline[0] / name
    blob = path.read_bytes()
    path.write_bytes(_damage(blob, kind, at, value))
    try:
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(*_argv(pipeline, command))
            lines = err.getvalue().splitlines()
            if code:
                assert code == 1 and len(lines) == 1, (command, err.getvalue())
                assert lines[0].startswith("SF-"), (command, err.getvalue())
    finally:
        path.write_bytes(blob)
