import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfuse.calibration import build_store, collect_run, load_store, save_store
from switchfuse import cli
from switchfuse.cli import main
from switchfuse.datasets import DatasetRuntime, load_config, load_manifest
from switchfuse.descriptors import read_descriptor_header
from switchfuse.errors import FormatError, InvalidInputError, UndefinedEvidenceError
from switchfuse.reports import write_predictions
from switchfuse.switching import BlockDecisions
from tests.oracle import run_tripartite, similarity

ROOT = Path(__file__).resolve().parent.parent


def write_spec(path, ids_rates, query_count=80, reference_count=30):
    profiles = [
        dict(
            technique_id=tid,
            correct_rate=rate,
            mean_m=0.75,
            sd_m=0.08,
            mean_mm=0.45,
            sd_mm=0.08,
        )
        for tid, rate in ids_rates
    ]
    doc = dict(
        query_count=query_count,
        reference_count=reference_count,
        calibration_fraction=0.5,
        profiles=profiles,
    )
    path.write_text(json.dumps(doc))


def write_config(path, units, threshold=0.5):
    doc = dict(
        threshold=threshold,
        units=[dict(label=f"u{i}", techniques=ts) for i, ts in enumerate(units)],
    )
    path.write_text(json.dumps(doc))


@pytest.fixture
def pipeline_dir(tmp_path):
    spec = tmp_path / "spec.json"
    config = tmp_path / "config.json"
    write_spec(spec, [("a", 0.6), ("b", 0.5), ("c", 0.55)])
    write_config(config, [["a", "b"], ["c", "a"]])
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_synth_then_full_pipeline(pipeline_dir, capsys):
    d = pipeline_dir
    assert run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data") == 0
    assert (d / "data" / "calib_manifest.json").exists()
    assert (d / "data" / "eval_manifest.json").exists()

    assert (
        run_cli(
            "calibrate",
            "--manifest", d / "data" / "calib_manifest.json",
            "--config", d / "config.json",
            "--out", d / "store.sfcal",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("prior[") == 3

    assert (
        run_cli(
            "run",
            "--manifest", d / "data" / "eval_manifest.json",
            "--config", d / "config.json",
            "--store", d / "store.sfcal",
            "--out", d / "preds.csv",
            "--no-timestamp",
        )
        == 0
    )
    text = (d / "preds.csv").read_text()
    assert text.splitlines()[0] == "query,predicted,confidence,selected,posteriors,fallbacks"
    assert "\r" not in text

    assert (
        run_cli(
            "evaluate",
            "--predictions", d / "preds.csv",
            "--manifest", d / "data" / "eval_manifest.json",
            "--out", d / "report",
            "--no-timestamp",
            "--svg",
        )
        == 0
    )
    assert (d / "report" / "switch-fuse_summary.csv").exists()
    assert (d / "report" / "switch-fuse_pr_points.csv").exists()
    assert (d / "report" / "switch-fuse_outcomes.csv").exists()
    svg = (d / "report" / "pr_curve.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg

    assert (
        run_cli(
            "compare",
            "--manifest", d / "data" / "eval_manifest.json",
            "--config", d / "config.json",
            "--store", d / "store.sfcal",
            "--out", d / "cmp",
            "--no-timestamp",
        )
        == 0
    )
    lines = (d / "cmp" / "comparison.csv").read_text().splitlines()
    methods = [ln.split(",")[0] for ln in lines[1:]]
    assert methods[:3] == ["switch-fuse", "switch-only", "fuse-all"]
    assert "single:a" in methods


def test_calibrate_single_technique_prints_one_prior(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    config = tmp_path / "config.json"
    write_spec(spec, [("solo", 0.6)])
    write_config(config, [["solo"]])
    run_cli("synth", "--spec", spec, "--seed", 1, "--out", tmp_path / "d")
    capsys.readouterr()
    assert (
        run_cli(
            "calibrate",
            "--manifest", tmp_path / "d" / "calib_manifest.json",
            "--config", config,
            "--out", tmp_path / "s.sfcal",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("prior[") == 1


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err


_STORE_HELP = """\
  --manifest MANIFEST   dataset manifest JSON
  --config CONFIG       tripartite config JSON
  --store STORE         calibration store file
  --threshold THRESHOLD
                        posterior acceptance threshold; strict comparison
                        (posterior must exceed it), overrides the config value
  --no-timestamp
"""

# ``--help`` of the program and of each subcommand at 80 columns, as the
# parser that built every subcommand's arguments printed them
HELP_TEXTS = {
    (): """\
usage: switchfuse [-h] {synth,calibrate,run,evaluate,compare} ...

Bayesian technique switching plus similarity-vector fusion for visual place
recognition.

positional arguments:
  {synth,calibrate,run,evaluate,compare}
    synth               generate a synthetic dataset
    calibrate           build a calibration store
    run                 run switch-fuse over a dataset
    evaluate            score a predictions file
    compare             run all method families and compare

options:
  -h, --help            show this help message and exit
""",
    ("synth",): """\
usage: switchfuse synth [-h] --spec SPEC --seed SEED --out OUT

options:
  -h, --help   show this help message and exit
  --spec SPEC  synthetic spec JSON
  --seed SEED
  --out OUT    output directory
""",
    ("calibrate",): """\
usage: switchfuse calibrate [-h] --manifest MANIFEST --config CONFIG --out OUT
                            [--bins BINS] [--alpha ALPHA]
                            [--min-samples MIN_SAMPLES]

options:
  -h, --help            show this help message and exit
  --manifest MANIFEST   dataset manifest JSON
  --config CONFIG       tripartite config JSON
  --out OUT             output store path
  --bins BINS
  --alpha ALPHA
  --min-samples MIN_SAMPLES
""",
    ("run",): """\
usage: switchfuse run [-h] --manifest MANIFEST --config CONFIG --store STORE
                      [--threshold THRESHOLD] [--no-timestamp] --out OUT

options:
  -h, --help            show this help message and exit
""" + _STORE_HELP + """\
  --out OUT             predictions CSV path
""",
    ("evaluate",): """\
usage: switchfuse evaluate [-h] --predictions PREDICTIONS --manifest MANIFEST
                           --out OUT [--svg] [--no-timestamp]

options:
  -h, --help            show this help message and exit
  --predictions PREDICTIONS
  --manifest MANIFEST
  --out OUT             output directory
  --svg                 also emit a PR-curve SVG
  --no-timestamp
""",
    ("compare",): """\
usage: switchfuse compare [-h] --manifest MANIFEST --config CONFIG --store
                          STORE [--threshold THRESHOLD] [--no-timestamp] --out
                          OUT [--svg]

options:
  -h, --help            show this help message and exit
""" + _STORE_HELP + """\
  --out OUT             output directory
  --svg
""",
}

_TOP_USAGE = "usage: switchfuse [-h] {synth,calibrate,run,evaluate,compare} ...\n"

# usage errors on standard error, which name subcommands the argv does not
USAGE_ERRORS = {
    (): _TOP_USAGE
    + "switchfuse: error: the following arguments are required: command\n",
    ("frobnicate",): _TOP_USAGE
    + "switchfuse: error: argument command: invalid choice: 'frobnicate' "
    "(choose from 'synth', 'calibrate', 'run', 'evaluate', 'compare')\n",
    ("evaluate", "--out", "run"): """\
usage: switchfuse evaluate [-h] --predictions PREDICTIONS --manifest MANIFEST
                           --out OUT [--svg] [--no-timestamp]
switchfuse evaluate: error: the following arguments are required: --predictions, --manifest
""",
    ("run", "--manifest", "m", "--config", "c", "--store", "s", "--out", "o",
     "extra"): _TOP_USAGE + "switchfuse: error: unrecognized arguments: extra\n",
    ("evaluate", "--predictions", "p", "--manifest", "m", "--out", "o",
     "--bogus"): _TOP_USAGE + "switchfuse: error: unrecognized arguments: --bogus\n",
    ("synth", "--spec", "s", "--seed", "x", "--out", "o"): """\
usage: switchfuse synth [-h] --spec SPEC --seed SEED --out OUT
switchfuse synth: error: argument --seed: invalid int value: 'x'
""",
    ("compare", "--manifest", "m", "--config", "c", "--s", "s", "--out", "o"): """\
usage: switchfuse compare [-h] --manifest MANIFEST --config CONFIG --store
                          STORE [--threshold THRESHOLD] [--no-timestamp] --out
                          OUT [--svg]
switchfuse compare: error: ambiguous option: --s could match --store, --svg
""",
}


@pytest.mark.parametrize("argv", list(HELP_TEXTS), ids=lambda a: "-".join(a) or "top")
def test_help_text_is_pinned(capsys, monkeypatch, argv):
    """The parser builds only the subcommand its argv names; what it
    prints must not change with that."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_TEXTS[argv]


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=lambda a: "-".join(a) or "none")
def test_usage_errors_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err == USAGE_ERRORS[argv]


@pytest.mark.parametrize("flag", ["--predictions", "--pred"])
def test_well_formed_argv_builds_one_subcommand_parser(monkeypatch, flag):
    """An argv that names its subcommand first and parses is parsed by a
    parser of that subcommand alone; a unique prefix of an option parses."""
    built, subcommands = [], []
    init = argparse.ArgumentParser.__init__
    add_parser = argparse._SubParsersAction.add_parser

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counted_add_parser(self, name, **kwargs):
        subcommands.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted_add_parser)
    parsed = []
    monkeypatch.setitem(
        cli._COMMANDS, "evaluate", ("", lambda args: parsed.append(vars(args)) or 0)
    )
    assert main(["evaluate", flag, "p.csv", "--manifest", "m.json", "--out", "o",
                 "--svg"]) == 0
    assert built == ["switchfuse evaluate"] and subcommands == []
    [args] = parsed
    del args["fn"]
    assert args == {"predictions": "p.csv", "manifest": "m.json", "out": "o",
                    "svg": True, "no_timestamp": False}


def test_missing_file_reports_error_code(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_config(config, [["a"]])
    rc = main(
        [
            "calibrate",
            "--manifest", str(tmp_path / "nope.json"),
            "--config", str(config),
            "--out", str(tmp_path / "s.sfcal"),
        ]
    )
    assert rc == 1
    assert "SF-" in capsys.readouterr().err


def test_bad_store_magic_reports_format_error(pipeline_dir, capsys):
    d = pipeline_dir
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    bad = d / "bad.sfcal"
    bad.write_bytes(b"garbage!")
    rc = run_cli(
        "run",
        "--manifest", d / "data" / "eval_manifest.json",
        "--config", d / "config.json",
        "--store", bad,
        "--out", d / "p.csv",
    )
    assert rc == 1
    assert "SF-FORMAT" in capsys.readouterr().err


def test_threshold_flag_overrides_config(tmp_path):
    config = tmp_path / "config.json"
    write_config(config, [["a", "b"]], threshold=0.7)
    assert load_config(config).posterior_threshold == 0.7
    assert load_config(config, 0.3).posterior_threshold == 0.3


def test_manifest_validation(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(dict(query_count=2, reference_count=2)))
    with pytest.raises(InvalidInputError):
        load_manifest(bad)
    bad.write_text(
        json.dumps(
            dict(
                query_count=2,
                reference_count=2,
                techniques={"t": {"kind": "teleport"}},
                ground_truth={"kind": "window", "k": 1},
            )
        )
    )
    with pytest.raises(InvalidInputError):
        load_manifest(bad)


def test_timestamp_suppression(pipeline_dir):
    d = pipeline_dir
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    run_cli(
        "calibrate",
        "--manifest", d / "data" / "calib_manifest.json",
        "--config", d / "config.json",
        "--out", d / "store.sfcal",
    )
    for flag, expect_comment in ((None, True), ("--no-timestamp", False)):
        args = [
            "run",
            "--manifest", d / "data" / "eval_manifest.json",
            "--config", d / "config.json",
            "--store", d / "store.sfcal",
            "--out", d / "p.csv",
        ]
        if flag:
            args.append(flag)
        assert run_cli(*args) == 0
        first = (d / "p.csv").read_text().splitlines()[0]
        assert first.startswith("#") == expect_comment


def _synth_and_calibrate(d):
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    run_cli(
        "calibrate",
        "--manifest", d / "data" / "calib_manifest.json",
        "--config", d / "config.json",
        "--out", d / "store.sfcal",
    )


@pytest.mark.parametrize("command", ["synth", "calibrate", "run"])
def test_malformed_json_reports_format_error(pipeline_dir, capsys, command):
    d = pipeline_dir
    _synth_and_calibrate(d)
    bad = d / "bad.json"
    bad.write_text('{"query_count": 4, "units": [')
    eval_args = ["--config", bad, "--store", d / "store.sfcal", "--out", d / "p.csv"]
    argv = {
        "synth": ["synth", "--spec", bad, "--seed", 1, "--out", d / "x"],
        "calibrate": ["calibrate", "--manifest", bad, "--config",
                      d / "config.json", "--out", d / "s.sfcal"],
        "run": ["run", "--manifest", d / "data" / "eval_manifest.json", *eval_args],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("SF-FORMAT") and str(bad) in err


def test_non_finite_query_payload_fails_run(pipeline_dir, capsys):
    d = pipeline_dir
    _synth_and_calibrate(d)
    manifest = load_manifest(d / "data" / "eval_manifest.json")
    # "a" is the first unit's primary, so every query asks for it
    path = manifest.base_dir / manifest.bindings["a"].queries_path
    blob = bytearray(path.read_bytes())
    blob[16:20] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = run_cli(
        "run",
        "--manifest", d / "data" / "eval_manifest.json",
        "--config", d / "config.json",
        "--store", d / "store.sfcal",
        "--out", d / "p.csv",
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("SF-DATA")
    assert not (d / "p.csv").exists()


def test_non_finite_unread_query_row_fails_run(pipeline_dir, capsys):
    """A NaN in a row ``run`` never scores still fails it: the payload is
    checked whole on first use."""
    d = pipeline_dir
    _synth_and_calibrate(d)
    config = load_config(d / "config.json")
    store = load_store(d / "store.sfcal")
    manifest = load_manifest(d / "data" / "eval_manifest.json")
    runtime = DatasetRuntime(manifest)
    visited = set()
    for q in range(runtime.query_count):
        run_tripartite(
            config, lambda tid, q=q: visited.add((q, tid)) or similarity(runtime, q, tid), store
        )
    # "b" is the first unit's secondary: some queries visit it, some do not
    unread = [q for q in range(runtime.query_count) if (q, "b") not in visited]
    assert unread and len(unread) < runtime.query_count
    path = manifest.base_dir / manifest.bindings["b"].queries_path
    dim = read_descriptor_header(path)[1]
    blob = bytearray(path.read_bytes())
    at = 16 + 4 * dim * unread[0]
    blob[at : at + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = run_cli(
        "run",
        "--manifest", d / "data" / "eval_manifest.json",
        "--config", d / "config.json",
        "--store", d / "store.sfcal",
        "--out", d / "p.csv",
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("SF-DATA")
    assert not (d / "p.csv").exists()


@pytest.mark.parametrize("alpha", ["0", "-0.5", "nan", "inf"])
def test_calibrate_rejects_nonpositive_alpha(tmp_path, capsys, alpha):
    # the manifest does not exist: the check comes before any data is read
    config = tmp_path / "config.json"
    write_config(config, [["a"]])
    rc = run_cli(
        "calibrate",
        "--manifest", tmp_path / "missing.json",
        "--config", config,
        "--out", tmp_path / "s.sfcal",
        "--alpha", alpha,
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("SF-INPUT")
    assert not (tmp_path / "s.sfcal").exists()


def test_calibrate_accepts_a_tiny_alpha_that_run_can_use(pipeline_dir):
    """With 40 calibration queries and 20 bins, two empty-bin masses
    multiply to more than 0 from an alpha of about 6.3e-161 up; calibrate
    takes 1e-160, and run and compare then finish on both splits."""
    d = pipeline_dir
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    rc = run_cli(
        "calibrate",
        "--manifest", d / "data" / "calib_manifest.json",
        "--config", d / "config.json",
        "--out", d / "s.sfcal",
        "--alpha", "1e-160",
    )
    assert rc == 0
    histogram = load_store(d / "s.sfcal").techniques["a"].histogram
    assert histogram.smoothing_alpha == 1e-160
    assert (histogram.mismatched_masses.min() ** 2) > 0.0
    for split in ("calib", "eval"):
        common = ["--manifest", d / "data" / f"{split}_manifest.json",
                  "--config", d / "config.json", "--store", d / "s.sfcal"]
        assert run_cli("run", *common, "--out", d / f"{split}.csv") == 0
        assert run_cli("compare", *common, "--out", d / f"{split}_cmp") == 0


def test_unsmoothed_store_fails_run_on_an_empty_bin(pipeline_dir, capsys):
    d = pipeline_dir
    _synth_and_calibrate(d)
    config = load_config(d / "config.json")
    techniques = config.all_techniques()
    calib = DatasetRuntime(load_manifest(d / "data" / "calib_manifest.json"))
    store = build_store(collect_run(calib, techniques), techniques, alpha=0.0)
    save_store(store, d / "alpha0.sfcal")
    runtime = DatasetRuntime(load_manifest(d / "data" / "eval_manifest.json"))
    failing = set()
    for q in range(runtime.query_count):
        try:
            run_tripartite(config, lambda tid, q=q: similarity(runtime, q, tid), store)
        except UndefinedEvidenceError:
            failing.add(q)
    assert failing
    capsys.readouterr()
    rc = run_cli(
        "run",
        "--manifest", d / "data" / "eval_manifest.json",
        "--config", d / "config.json",
        "--store", d / "alpha0.sfcal",
        "--out", d / "p.csv",
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("SF-EVIDENCE: query ")
    assert int(err.split()[2].rstrip(":")) in failing
    assert not (d / "p.csv").exists()


def test_short_predictions_row_reports_format_error(pipeline_dir, capsys):
    d = pipeline_dir
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    preds = d / "preds.csv"
    preds.write_text(
        "query,predicted,confidence,selected,posteriors,fallbacks\n0,1\n"
    )
    capsys.readouterr()
    rc = run_cli(
        "evaluate",
        "--predictions", preds,
        "--manifest", d / "data" / "eval_manifest.json",
        "--out", d / "report",
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("SF-FORMAT") and str(preds) in err and "row 1" in err


def _predictions_csv(path, query_count, edit=None):
    """A valid predictions CSV for ``query_count`` queries; ``edit`` maps a
    row index to that row's replacement fields (query, predicted, confidence)."""
    rows = {q: (q, 0, 0.5) for q in range(query_count)}
    rows.update(edit or {})
    lines = ["query,predicted,confidence,selected,posteriors,fallbacks"]
    lines += [f"{q},{p},{c},,," for q, p, c in rows.values()]
    path.write_text("\n".join(lines) + "\n")


# one list nested deeper than the JSON parser's recursion limit, as text
NESTED_DEEP = "[" * 100_000 + "]" * 100_000


def _json_text(doc) -> str:
    """A bad document given as text is written as it is; any other goes
    through ``json.dumps``."""
    return doc if isinstance(doc, str) else json.dumps(doc)


# config documents of the wrong shape, from the valid one
BAD_CONFIGS = {
    "config_nested_deep": lambda doc: NESTED_DEEP,
    "threshold_string": lambda doc: {**doc, "threshold": "x"},
    "units_object": lambda doc: {**doc, "units": {"u0": doc["units"][0]}},
    "config_list": lambda doc: [doc],
    "techniques_string": lambda doc: {
        **doc, "units": [{"label": "u0", "techniques": "a"}]
    },
}

# synthetic specs of the wrong shape, from the valid one
BAD_SPECS = {
    "spec_list": lambda doc: [doc],
    "spec_nested_deep": lambda doc: NESTED_DEEP,
    "profiles_number": lambda doc: {**doc, "profiles": 3},
    "correct_rate_string": lambda doc: {
        **doc, "profiles": [{**doc["profiles"][0], "correct_rate": "high"}]
    },
}



def _profile_value(field, value):
    """A spec whose first profile's ``field`` is ``value``."""
    return lambda doc: {**doc, "profiles": [{**doc["profiles"][0], field: value}]}


# synthetic specs with a non-finite mean or sd, written as JSON's NaN and
# Infinity literals
NON_FINITE_SPECS = {
    "mean_m_nan": _profile_value("mean_m", math.nan),
    "sd_m_nan": _profile_value("sd_m", math.nan),
    "mean_mm_-inf": _profile_value("mean_mm", -math.inf),
    "sd_mm_inf": _profile_value("sd_mm", math.inf),
}

# synthetic specs whose generated arrays cannot be allocated; each fails at
# once, without touching memory
HUGE_SPECS = {
    "query_count_1e12": lambda doc: {**doc, "query_count": 10**12},
    "reference_count_1e12": lambda doc: {**doc, "reference_count": 10**12},
    "query_count_1e20": lambda doc: {**doc, "query_count": 10**20},
}

# synthetic specs of two queries whose calibration fraction leaves the eval
# half (0.9) or the calibration half (0.2) with no queries
EMPTY_SPLIT_SPECS = {
    f"fraction_{fraction}": lambda doc, fraction=fraction: {
        **doc, "query_count": 2, "calibration_fraction": fraction
    }
    for fraction in (0.9, 0.2)
}


# dataset manifests of the wrong shape, from the valid explicit-ground-truth
# SFDESC1 one
BAD_MANIFESTS = {
    "top_level_list": lambda doc: [doc],
    "nested_deep": lambda doc: NESTED_DEEP,
    "techniques_list": lambda doc: {**doc, "techniques": []},
    "query_count_string": lambda doc: {**doc, "query_count": "x"},
    "query_count_fraction": lambda doc: {**doc, "query_count": 1000.7},
    "window_k_string": lambda doc: {**doc, "ground_truth": {"kind": "window", "k": "z"}},
    "explicit_without_path": lambda doc: {**doc, "ground_truth": {"kind": "explicit"}},
    "references_number": lambda doc: {
        **doc,
        "techniques": {
            **doc["techniques"], "a": {**doc["techniques"]["a"], "references": 5}
        },
    },
    "reference_images_string": lambda doc: {**doc, "reference_images": "ab"},
}

# ground-truth documents that int() used to misread or that hold one list
# too few or too many, from the valid one
BAD_GROUND_TRUTHS = {
    "float": lambda doc: {
        **doc, "accepted": [[doc["accepted"][0][0] + 0.7], *doc["accepted"][1:]]
    },
    "bool": lambda doc: {**doc, "accepted": [[True], *doc["accepted"][1:]]},
    "string": lambda doc: {
        **doc, "accepted": [[str(doc["accepted"][0][0])], *doc["accepted"][1:]]
    },
    "short": lambda doc: {**doc, "accepted": doc["accepted"][:-1]},
    "long": lambda doc: {**doc, "accepted": [*doc["accepted"], [0]]},
    "empty": lambda doc: {**doc, "accepted": [[], *doc["accepted"][1:]]},
    "nested_deep": lambda doc: NESTED_DEEP,
    "out_of_range": lambda doc: {
        **doc, "accepted": [[doc["reference_count"]], *doc["accepted"][1:]]
    },
}

# manifest reference counts at which a ground-truth key, query x
# reference_count + reference, no longer fits in int64
HUGE_REFERENCE_COUNTS = {"2^62": 2**62, "2^63-1": 2**63 - 1, "2e23": 2 * 10**23}

# corrupt values in the first technique's record of an SFCAL1 store:
# (struct format, offset from the histogram's start, value); the prior
# sits 12 bytes before the histogram
BAD_STORES = {
    "prior_nan": ("<d", -12, float("nan")),
    "prior_0.0": ("<d", -12, 0.0),
    "prior_1.0": ("<d", -12, 1.0),
    "prior_1.5": ("<d", -12, 1.5),
    "lo_-inf": ("<d", 4, float("-inf")),
    "hi_inf": ("<d", 12, float("inf")),
    "nan_alpha": ("<d", 20, float("nan")),
    "negative_count": ("<q", 28, -3),
    "bin_count_1": ("<I", 0, 1),
}


def _corrupt_store(blob: bytes, fmt: str, offset: int, value) -> bytes:
    """``blob`` with one field of its first technique's record replaced;
    the histogram follows the magic, the technique count, the first
    technique's name and its prior and sample count."""
    (name_len,) = struct.unpack_from("<H", blob, 12)
    out = bytearray(blob)
    struct.pack_into(fmt, out, 12 + 2 + name_len + 12 + offset, value)
    return bytes(out)


# bad-input cases that give one calibrate flag a bad value
CALIBRATE_FLAG_CASES = ("calibrate_bins", "calibrate_min_samples", "calibrate_alpha")


@pytest.mark.parametrize(
    "case, code",
    [
        ("duplicate_query", "SF-INPUT"),
        ("nan_confidence", "SF-FORMAT"),
        ("inf_confidence", "SF-FORMAT"),
        ("negative_predicted", "SF-INPUT"),
        ("predicted_past_references", "SF-INPUT"),
        ("predicted_past_int64", "SF-FORMAT"),
        ("non_utf8_row", "SF-FORMAT"),
        ("non_utf8_header", "SF-FORMAT"),
        ("oversized_field", "SF-FORMAT"),  # past the csv module's field limit
        ("synth_seed_-1", "SF-INPUT"),
        ("compare_store_missing_technique", "SF-CALIBRATION"),
        ("calibrate_bins_0", "SF-INPUT"),
        ("calibrate_bins_1", "SF-INPUT"),
        ("calibrate_bins_-3", "SF-INPUT"),
        ("calibrate_min_samples_0", "SF-INPUT"),
        ("calibrate_min_samples_-1", "SF-INPUT"),
        ("calibrate_min_samples_41", "SF-INPUT"),  # 40 calibration queries
        ("calibrate_alpha_inf", "SF-INPUT"),
        ("calibrate_alpha_1e308", "SF-INPUT"),  # alpha x bins overflows
        ("calibrate_alpha_5e-324", "SF-INPUT"),  # an empty bin's mass rounds to 0
        ("calibrate_alpha_1e-300", "SF-INPUT"),  # two such masses multiply to 0
        *[(f"{cmd}_{bad}", "SF-FORMAT") for bad in BAD_CONFIGS for cmd in ("calibrate", "run")],
        *[(f"synth_{bad}", "SF-FORMAT") for bad in BAD_SPECS],
        *[(f"synth_{bad}", "SF-SPEC") for bad in NON_FINITE_SPECS],
        *[(f"synth_{bad}", "SF-INPUT") for bad in HUGE_SPECS],
        *[(f"synth_{bad}", "SF-INPUT") for bad in EMPTY_SPLIT_SPECS],
        *[(f"run_store_{bad}", "SF-FORMAT") for bad in BAD_STORES],
        *[(f"run_manifest_{bad}", "SF-FORMAT") for bad in BAD_MANIFESTS],
        *[
            (f"{cmd}_gt_{bad}", "SF-FORMAT")
            for bad in BAD_GROUND_TRUTHS
            for cmd in ("evaluate", "compare")
        ],
        *[(f"evaluate_reference_count_{n}", "SF-FORMAT") for n in HUGE_REFERENCE_COUNTS],
    ],
)
def test_bad_input_per_command(pipeline_dir, capsys, monkeypatch, case, code):
    d = pipeline_dir
    _synth_and_calibrate(d)
    manifest = d / "data" / "eval_manifest.json"
    named = None  # the file an SF-FORMAT message names
    calibrate = ["calibrate", "--manifest", d / "data" / "calib_manifest.json",
                 "--config", d / "config.json", "--out", d / "s.sfcal"]
    preds = d / "preds.csv"
    if "_gt_" in case:
        command, bad = case.split("_gt_")
        named = d / "data" / "eval_gt.json"
        doc = json.loads(named.read_text())
        named.write_text(_json_text(BAD_GROUND_TRUTHS[bad](doc)))
        _predictions_csv(preds, load_manifest(manifest).query_count)
        argv = {
            "evaluate": ["evaluate", "--predictions", preds, "--manifest", manifest,
                         "--out", d / "report"],
            "compare": ["compare", "--manifest", manifest, "--config", d / "config.json",
                        "--store", d / "store.sfcal", "--out", d / "cmp"],
        }[command]
    elif case.startswith("evaluate_reference_count"):
        named = d / "data" / "bad_manifest.json"
        doc = json.loads(manifest.read_text())
        count = HUGE_REFERENCE_COUNTS[case[len("evaluate_reference_count_"):]]
        named.write_text(json.dumps({**doc, "reference_count": count}))
        _predictions_csv(preds, doc["query_count"])
        argv = ["evaluate", "--predictions", preds, "--manifest", named,
                "--out", d / "report"]
    elif case.startswith("compare"):
        # a store calibrated without "c", which the second unit uses
        write_config(d / "ab.json", [["a", "b"]])
        assert run_cli("calibrate", "--manifest", d / "data" / "calib_manifest.json",
                       "--config", d / "ab.json", "--out", d / "ab.sfcal") == 0
        argv = ["compare", "--manifest", manifest, "--config", d / "config.json",
                "--store", d / "ab.sfcal", "--out", d / "cmp"]
    elif case.startswith("run_store"):
        named = d / "bad.sfcal"
        bad = BAD_STORES[case[len("run_store_"):]]
        named.write_bytes(_corrupt_store((d / "store.sfcal").read_bytes(), *bad))
        argv = ["run", "--manifest", manifest, "--config", d / "config.json",
                "--store", named, "--out", d / "p.csv"]
    elif case.startswith("run_manifest"):
        named = d / "data" / "bad_manifest.json"
        doc = json.loads(manifest.read_text())
        named.write_text(_json_text(BAD_MANIFESTS[case[len("run_manifest_"):]](doc)))
        argv = ["run", "--manifest", named, "--config", d / "config.json",
                "--store", d / "store.sfcal", "--out", d / "p.csv"]
    elif case.startswith(CALIBRATE_FLAG_CASES):
        flag, value = case[len("calibrate_"):].rsplit("_", 1)
        flag = "--" + flag.replace("_", "-")
        argv = [*calibrate, flag, value]
        # each flag is checked before any row is scored
        from switchfuse import calibration

        def never(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(calibration, "collect_run", never)
    elif case.split("_", 1)[1] in BAD_CONFIGS:
        command, bad = case.split("_", 1)
        named = d / "bad_config.json"
        named.write_text(
            _json_text(BAD_CONFIGS[bad](json.loads((d / "config.json").read_text())))
        )
        argv = {
            "calibrate": [*calibrate[:3], "--config", named, "--out", d / "s.sfcal"],
            "run": ["run", "--manifest", manifest, "--config", named,
                    "--store", d / "store.sfcal", "--out", d / "p.csv"],
        }[command]
    elif case == "synth_seed_-1":
        argv = ["synth", "--spec", d / "spec.json", "--seed", -1, "--out", d / "synth"]
        # the seed is refused before the spec is read
        from switchfuse import cli

        def never(path):
            raise AssertionError("spec read")

        monkeypatch.setattr(cli, "_load_spec", never)
    elif case.startswith("synth"):
        named = d / "bad_spec.json"
        spec = json.loads((d / "spec.json").read_text())
        bad = case[len("synth_"):]
        edit = {**BAD_SPECS, **NON_FINITE_SPECS, **HUGE_SPECS, **EMPTY_SPLIT_SPECS}[bad]
        named.write_text(_json_text(edit(spec)))
        argv = ["synth", "--spec", named, "--seed", 1, "--out", d / "synth"]
    else:
        query_count = load_manifest(manifest).query_count
        if case.startswith("non_utf8"):
            # one byte 0xff, which no UTF-8 text holds, in the header or row 3
            named = preds
            _predictions_csv(preds, query_count)
            lines = preds.read_bytes().split(b"\n")
            lines[0 if case.endswith("header") else 3] += b"\xff"
            preds.write_bytes(b"\n".join(lines))
        elif case == "oversized_field":
            named = preds
            _predictions_csv(preds, query_count, {2: (2, 0, "5" * 200_000)})
        else:
            edit = {
                "duplicate_query": (1, 0, 0.5),
                "nan_confidence": (2, 0, "nan"),
                "inf_confidence": (2, 0, "-inf"),
                "negative_predicted": (2, -5, 0.5),
                "predicted_past_references": (2, 10**9, 0.5),
                "predicted_past_int64": (2, 2**63, 0.5),
            }[case]
            _predictions_csv(preds, query_count, {2: edit})
        argv = ["evaluate", "--predictions", preds, "--manifest", manifest,
                "--out", d / "report"]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(code) and "Traceback" not in err
    if case.startswith(CALIBRATE_FLAG_CASES):
        assert flag in err
    if case.startswith("synth_seed"):
        assert "--seed" in err
    if case[len("synth_"):] in NON_FINITE_SPECS:  # the technique and field
        assert err.startswith(f"SF-SPEC: a: {case[len('synth_'):].rsplit('_', 1)[0]} ")
    if case[len("synth_"):] in HUGE_SPECS:
        assert "query_count" in err and "reference_count" in err
    if case[len("synth_"):] in EMPTY_SPLIT_SPECS:  # the fraction and the count
        assert f"fraction {case.rsplit('_', 1)[1]} of 2 queries" in err
    if code == "SF-FORMAT" and named is None:
        assert str(d / "preds.csv") in err and "row 3" in err
    elif code == "SF-FORMAT":
        assert str(named) in err
    for out in ("s.sfcal", "p.csv", "synth"):
        assert not (d / out).exists()


@pytest.mark.parametrize("damage", [*BAD_GROUND_TRUTHS, "deleted"])
def test_run_reads_no_ground_truth(pipeline_dir, damage):
    """``run`` predicts without the ground truth: with the manifest's
    ground-truth file malformed or deleted, it exits 0 and writes the
    predictions that a valid file gives, byte for byte."""
    d = pipeline_dir
    _synth_and_calibrate(d)
    run = ["run", "--manifest", d / "data" / "eval_manifest.json",
           "--config", d / "config.json", "--store", d / "store.sfcal", "--no-timestamp"]
    assert run_cli(*run, "--out", d / "valid.csv") == 0
    gt = d / "data" / "eval_gt.json"
    if damage == "deleted":
        gt.unlink()
    else:
        gt.write_text(_json_text(BAD_GROUND_TRUTHS[damage](json.loads(gt.read_text()))))
    assert run_cli(*run, "--out", d / "p.csv") == 0
    assert (d / "p.csv").read_bytes() == (d / "valid.csv").read_bytes()


@pytest.fixture(scope="module")
def score_pipeline(tmp_path_factory):
    """``pipeline_dir``'s spec and config, synthesised once: 40 calibration
    queries and 30 references over three techniques in two units."""
    d = tmp_path_factory.mktemp("score_pipeline")
    write_spec(d / "spec.json", [("a", 0.6), ("b", 0.5), ("c", 0.55)])
    write_config(d / "config.json", [["a", "b"], ["c", "a"]])
    assert run_cli("synth", "--spec", d / "spec.json", "--seed", 5,
                   "--out", d / "data") == 0
    return d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    bins=st.integers(2, 40),  # 2..max(40 calibration queries, 20)
    alpha=st.floats(0, math.inf, exclude_min=True, exclude_max=True),
    min_samples=st.integers(1, 40),
    threshold=st.floats(0, 1, exclude_min=True, exclude_max=True),
)
def test_a_store_calibrate_accepts_runs_and_compares(
    score_pipeline, bins, alpha, min_samples, threshold
):
    """Whenever ``calibrate`` exits 0 on flags drawn from their accepted
    ranges, ``run`` and ``compare`` on its store exit 0 at any threshold
    in (0, 1)."""
    d = score_pipeline
    data = d / "data"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        if run_cli("calibrate", "--manifest", data / "calib_manifest.json",
                   "--config", d / "config.json", "--out", d / "s.sfcal",
                   "--bins", bins, "--alpha", repr(alpha),
                   "--min-samples", min_samples) != 0:
            assert err.getvalue().startswith("SF-"), err.getvalue()
            return
        common = ["--manifest", data / "eval_manifest.json", "--config",
                  d / "config.json", "--store", d / "s.sfcal",
                  "--threshold", repr(threshold), "--no-timestamp"]
        assert run_cli("run", *common, "--out", d / "p.csv") == 0, err.getvalue()
        assert run_cli("compare", *common, "--out", d / "cmp") == 0, err.getvalue()


def test_synth_takes_a_seed_past_int64(pipeline_dir):
    """Only a negative ``--seed`` is refused: the generator's seed sequence
    takes any other integer, however large."""
    d = pipeline_dir
    argv = ["synth", "--spec", d / "spec.json", "--seed", 2**70, "--out", d / "data"]
    assert run_cli(*argv) == 0
    assert (d / "data" / "eval_manifest.json").exists()


# JSON values of each kind
JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "integer": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "list": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
}


def mistyped(doc, paths):
    """``doc`` with the value at one of ``paths`` replaced by a JSON value
    of another kind; ``paths`` maps a key path to the kinds it accepts."""

    def replace(node, path, value):
        if not path:
            return value
        node = node.copy()
        node[path[0]] = replace(node[path[0]], path[1:], value)
        return node

    return st.sampled_from(list(paths.items())).flatmap(
        lambda item: st.one_of(
            *(v for k, v in JSON_KINDS.items() if k not in item[1])
        ).map(lambda value: replace(doc, item[0], value))
    )


NUMBER = ("integer", "float")
CONFIG_DOC = {"threshold": 0.5, "units": [{"label": "u0", "techniques": ["a", "b"]}]}
CONFIG_PATHS = {
    (): ("object",),
    ("units",): ("list",),
    ("units", 0): ("object",),
    ("units", 0, "label"): ("string",),
    ("units", 0, "techniques"): ("list",),
    ("units", 0, "techniques", 0): ("string",),
    ("threshold",): NUMBER,
}
PROFILE = dict(technique_id="a", correct_rate=0.6, mean_m=0.75, sd_m=0.08,
               mean_mm=0.45, sd_mm=0.08, overlaps={"b": 0.3})
SPEC_DOC = {"query_count": 8, "reference_count": 4, "calibration_fraction": 0.5,
            "profiles": [PROFILE]}
SPEC_PATHS = {
    (): ("object",),
    ("profiles",): ("list",),
    ("profiles", 0): ("object",),
    ("profiles", 0, "technique_id"): ("string",),
    ("profiles", 0, "overlaps"): ("object",),
    ("profiles", 0, "overlaps", "b"): NUMBER,
    ("query_count",): ("integer",),
    ("reference_count",): ("integer",),
    ("calibration_fraction",): NUMBER,
    **{("profiles", 0, k): NUMBER for k in ("correct_rate", "mean_m", "sd_m", "mean_mm", "sd_mm")},
}

MANIFEST_DOC = {
    "query_count": 4,
    "reference_count": 3,
    "techniques": {"a": {"kind": "sfdesc", "references": "r.bin", "queries": "q.bin"}},
    "ground_truth": {"kind": "window", "k": 1},
    "reference_images": ["r0.pgm"],
    "query_images": ["q0.pgm"],
}
MANIFEST_PATHS = {
    (): ("object",),
    ("techniques",): ("object",),
    ("techniques", "a"): ("object",),
    ("techniques", "a", "references"): ("string",),
    ("techniques", "a", "queries"): ("string",),
    ("query_count",): ("integer",),
    ("reference_count",): ("integer",),
    ("ground_truth",): ("object",),
    ("ground_truth", "k"): ("integer",),
    ("reference_images",): ("list",),
    ("reference_images", 0): ("string",),
    ("query_images",): ("list",),
    ("query_images", 0): ("string",),
}

@settings(max_examples=100, deadline=None)
@given(doc=mistyped(CONFIG_DOC, CONFIG_PATHS))
def test_mistyped_config_is_format_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        load_config(path)
    assert info.value.code == "SF-FORMAT" and str(path) in str(info.value)



@settings(max_examples=100, deadline=None)
@given(doc=mistyped(MANIFEST_DOC, MANIFEST_PATHS))
def test_mistyped_manifest_is_format_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("manifest") / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        load_manifest(path)
    assert info.value.code == "SF-FORMAT" and str(path) in str(info.value)

@settings(max_examples=100, deadline=None)
@given(doc=mistyped(SPEC_DOC, SPEC_PATHS))
def test_mistyped_spec_is_format_error(tmp_path_factory, doc):
    d = tmp_path_factory.mktemp("spec")
    (d / "spec.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run_cli("synth", "--spec", d / "spec.json", "--seed", 1, "--out", d / "out")
    assert rc == 1
    assert err.getvalue().startswith("SF-FORMAT") and str(d / "spec.json") in err.getvalue()
    assert not (d / "out").exists()


def test_calibrate_bounds_bins_before_scoring(pipeline_dir, capsys, monkeypatch):
    """A --bins below 2 or past the calibration query count is rejected
    before any row is scored or any histogram allocated."""
    from switchfuse import calibration

    d = pipeline_dir
    _synth_and_calibrate(d)

    def never(*args, **kwargs):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(calibration, "collect_run", never)
    monkeypatch.setattr(calibration, "_histograms", never)
    queries = load_manifest(d / "data" / "calib_manifest.json").query_count
    assert queries > 20  # the default bin count, the bound for smaller sets
    for bins in (1, queries + 1, 10**12):
        capsys.readouterr()
        rc = run_cli("calibrate", "--manifest", d / "data" / "calib_manifest.json",
                     "--config", d / "config.json", "--out", d / "s.sfcal",
                     "--bins", bins)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("SF-INPUT") and f"2..{queries}" in err
    assert not (d / "s.sfcal").exists()


def test_pr_points_are_swept_only_for_the_files_that_hold_them(
    pipeline_dir, monkeypatch
):
    """run writes no PR points and compare writes them only with --svg, so
    neither sweeps them otherwise; evaluate sweeps once for its CSV and
    SVG."""
    from switchfuse import evaluation

    d = pipeline_dir
    _synth_and_calibrate(d)
    sweeps = []
    sweep = evaluation.pr_points

    def counted(confidence, correct):
        sweeps.append(len(confidence))
        return sweep(confidence, correct)

    monkeypatch.setattr(evaluation, "pr_points", counted)
    manifest = d / "data" / "eval_manifest.json"
    common = ["--manifest", manifest, "--config", d / "config.json",
              "--store", d / "store.sfcal"]
    assert run_cli("run", *common, "--out", d / "p.csv") == 0
    assert run_cli("compare", *common, "--out", d / "cmp") == 0
    assert sweeps == []
    assert run_cli("compare", *common, "--out", d / "cmp_svg", "--svg") == 0
    methods = ["switch-fuse", "switch-only", "fuse-all", "a", "b", "c"]
    assert len(sweeps) == len(methods)
    sweeps.clear()
    assert run_cli("evaluate", "--predictions", d / "p.csv", "--manifest", manifest,
                   "--out", d / "report", "--svg") == 0
    assert len(sweeps) == 1


def test_compare_compiles_each_table_once(pipeline_dir, monkeypatch):
    """switch-fuse and switch-only read one loaded store: each per-bin table
    its records compile is built on first use and then shared."""
    from switchfuse import calibration, evaluation

    d = pipeline_dir
    _synth_and_calibrate(d)
    load, run_method = calibration.load_store, evaluation.run_method
    stores, tables = [], {}

    def compiled():
        (store,) = stores
        out = {}
        owners = [*store.techniques.items(), *store.pairs.items()]
        owners += [(tid, record.histogram) for tid, record in store.techniques.items()]
        for key, owner in owners:
            for name in ("posterior", "matched_masses", "mismatched_masses"):
                if name in vars(owner):
                    out[key, name] = vars(owner)[name]
        return out

    def loading(path):
        stores.append(load(path))
        return stores[-1]

    def running(method, *args):
        columns = run_method(method, *args)
        tables[method] = compiled()
        return columns

    monkeypatch.setattr(calibration, "load_store", loading)
    monkeypatch.setattr(evaluation, "run_method", running)
    assert run_cli("compare", "--manifest", d / "data" / "eval_manifest.json",
                   "--config", d / "config.json", "--store", d / "store.sfcal",
                   "--out", d / "cmp") == 0
    fuse, only = tables["switch-fuse"], tables["switch-only"]
    assert ("a", "posterior") in fuse and ("a", "b") in {key for key, _ in fuse}
    for key, table in fuse.items():
        assert only[key] is table, key


def test_cli_import_leaves_scipy_out(pipeline_dir):
    # no command needs scipy, ``synth`` included: the CLI's import leaves it
    # out and so does a whole ``synth`` run
    code = (
        "import sys, switchfuse.cli; loaded = 'scipy' in sys.modules; "
        "status = switchfuse.cli.main(sys.argv[1:]); "
        "print(loaded, status, 'scipy' in sys.modules)"
    )
    d = pipeline_dir
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, "synth", "--spec", str(d / "spec.json"),
         "--seed", "5", "--out", str(d / "data")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "False 0 False"
    assert (d / "data" / "eval_manifest.json").exists()


def test_utf8_files_read_under_an_ascii_locale(pipeline_dir):
    """Every file switchfuse writes is UTF-8, and its readers decode UTF-8
    whatever the locale: under the C locale, without UTF-8 mode, ``run``
    takes a config whose unit label is a raw UTF-8 "é", and
    ``read_predictions`` reads a file that names technique "é"."""
    d = pipeline_dir
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    run_cli("calibrate", "--manifest", d / "data" / "calib_manifest.json",
            "--config", d / "config.json", "--out", d / "store.sfcal")
    config = json.loads((d / "config.json").read_text())
    config["units"][0]["label"] = "\u00e9"
    (d / "config.json").write_bytes(json.dumps(config, ensure_ascii=False).encode())
    unit = BlockDecisions(("\u00e9",), np.zeros(2, np.int64), np.full(2, 0.5),
                          np.zeros(2, bool), np.zeros(2, np.int64))
    write_predictions(np.array([3, 1]), np.array([0.5, 0.25]), (unit,), d / "named.csv")
    code = (
        "import sys; from switchfuse.cli import main; "
        "from switchfuse.reports import read_predictions; "
        "print(sys.getfilesystemencoding()); "
        "print(main(sys.argv[2:])); "
        "print([c.tolist() for c in read_predictions(sys.argv[1])])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    out = subprocess.run(
        [sys.executable, "-c", code, str(d / "named.csv"), "run",
         "--manifest", str(d / "data" / "eval_manifest.json"),
         "--config", str(d / "config.json"), "--store", str(d / "store.sfcal"),
         "--out", str(d / "preds.csv")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "ascii"  # the locale really is not UTF-8
    assert lines[-2:] == ["0", "[[0, 1], [3, 1], [0.5, 0.25]]"]
    assert (d / "preds.csv").exists()


def test_diff_outputs_same_root_is_identical(pipeline_dir):
    d = pipeline_dir
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    src = ROOT / "src"
    out = subprocess.run(
        [sys.executable, ROOT / "scripts" / "diff_outputs.py", src, src,
         "--calib-manifest", d / "data" / "calib_manifest.json",
         "--eval-manifest", d / "data" / "eval_manifest.json",
         "--config", d / "config.json"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 18 and all(ln.startswith("identical") for ln in lines)
    assert [ln.split()[1] for ln in lines if "stdout/" in ln] == [
        f"stdout/{command}.txt"
        for command in ("calibrate", "compare", "evaluate-quoted", "evaluate", "run")
    ]
    # the quoted, CRLF copy of the predictions and its evaluate report
    assert {"preds-quoted.csv", "report-quoted/switch-fuse_summary.csv",
            "report-quoted/pr_curve.svg"} <= {ln.split()[1] for ln in lines}
    # the same check on a benchmark workload, whose inputs each root
    # generates and which are compared too
    script = [sys.executable, ROOT / "scripts" / "diff_outputs.py", src, src]
    out = subprocess.run(
        [*script, "--workload", "score-r200", "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    listed = out.stdout.splitlines()
    inputs = [ln for ln in listed if ln.split()[1].startswith("inputs/")]
    assert [ln for ln in listed if ln not in inputs] == lines
    assert all(ln.startswith("identical") for ln in inputs)
    names = {ln.split()[1] for ln in inputs}
    assert {"inputs/inputs.json", "inputs/config.json", "inputs/eval_gt.json",
            "inputs/eval_manifest.json", "inputs/eval_refs.sfdesc"} <= names
    for flags, message in [
        (["--workload", "score-r200"], "go together"),
        (["--workload", "score-r200", "--seed", "3", "--config", d / "config.json"],
         "go together"),
        (["--seed", "3"], "go together"),
        ([], "or --workload and --seed"),
    ]:
        out = subprocess.run([*script, *flags], capture_output=True, text=True)
        assert out.returncode == 2 and message in out.stderr, flags
    # the first failed command is named with its exit code and stderr
    out = subprocess.run(
        [*script, "--calib-manifest", d / "config.json",
         "--eval-manifest", d / "data" / "eval_manifest.json",
         "--config", d / "config.json"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1
    assert "calibrate exited 1: SF-INPUT: " in out.stderr, out.stderr
    out = subprocess.run(
        [*script, "--workload", "nope", "--seed", "3"], capture_output=True, text=True
    )
    assert out.returncode == 1 and "unknown workload 'nope'" in out.stderr


def test_diff_outputs_generates_workload_inputs_per_root(tmp_path):
    """Each root writes the workload inputs with its own generator: a root
    whose export indents manifests differently differs in exactly the two
    manifests, and its pipeline output stays identical."""
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "switchfuse", other / "switchfuse")
    synthetic_py = other / "switchfuse" / "synthetic.py"
    text = synthetic_py.read_text()
    assert text.count("json.dumps(manifest, indent=2") == 2
    synthetic_py.write_text(
        text.replace("json.dumps(manifest, indent=2", "json.dumps(manifest, indent=1")
    )
    out = subprocess.run(
        [sys.executable, ROOT / "scripts" / "diff_outputs.py", ROOT / "src", other,
         "--workload", "score-r200", "--seed", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    differing = [ln.split()[1] for ln in out.stdout.splitlines()
                 if not ln.startswith("identical")]
    assert differing == ["inputs/calib_manifest.json:", "inputs/eval_manifest.json:"]


def test_diff_outputs_compares_each_commands_stdout(pipeline_dir, tmp_path):
    """A root that prints the priors differently, with every file it writes
    unchanged, differs in ``calibrate``'s standard output alone."""
    d = pipeline_dir
    run_cli("synth", "--spec", d / "spec.json", "--seed", 5, "--out", d / "data")
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "switchfuse", other / "switchfuse")
    cli_py = other / "switchfuse" / "cli.py"
    text = cli_py.read_text()
    assert text.count("prior_match:.6f") == 1
    cli_py.write_text(text.replace("prior_match:.6f", "prior_match:.5f"))
    out = subprocess.run(
        [sys.executable, ROOT / "scripts" / "diff_outputs.py", ROOT / "src", other,
         "--calib-manifest", d / "data" / "calib_manifest.json",
         "--eval-manifest", d / "data" / "eval_manifest.json",
         "--config", d / "config.json"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    differing = [ln.split()[1] for ln in out.stdout.splitlines()
                 if not ln.startswith("identical")]
    assert differing == ["stdout/calibrate.txt:"]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_verdict_needs_nine_of_ten_and_a_lead_beyond_the_iqr():
    bench_pairs = load_bench_pairs()
    base = [10.0, 10.5, 11.0, 11.5, 12.0, 10.2, 10.7, 11.2, 11.7, 12.2]
    metrics = [{"name": "m", "unit": "x", "better": "higher"},
               {"name": "t", "unit": "s", "better": "lower"}]

    def verdicts(change):
        runs = {
            side: [{"env": None, "failures": [], "metrics": {"m": v, "t": v}}
                   for v in values]
            for side, values in (("base", base), ("change", change))
        }
        doc = bench_pairs.summarise(
            "l", "w", 1.0, list(range(10)), {"base": "a", "change": "b"}, runs, metrics
        )
        return doc["comparison"]["m"]["verdict"], doc["comparison"]["t"]["verdict"]

    assert verdicts([v + 2.0 for v in base]) == ("better", "worse")
    assert verdicts([v - 2.0 for v in base]) == ("worse", "better")
    # 9 of 10 pairs still give a verdict; 8 do not
    assert verdicts([v + 2.0 for v in base[:9]] + [0.0]) == ("better", "worse")
    assert verdicts([v + 2.0 for v in base[:8]] + [0.0, 0.0]) == ("unchanged",) * 2
    # every pair won, but by less than the base's IQR
    assert verdicts([v + 0.1 for v in base]) == ("unchanged",) * 2


def test_bench_pairs_records_probe_and_raw_throughput(monkeypatch):
    """Each side of a ``BENCH_*.json`` keeps its runs' probe medians, raw
    wall-time throughputs and per-operation child usage (minor faults, user
    and system seconds), a run that recorded none included.  A
    ``<command>_queries_per_probe`` metric's comparison counts the pairs
    whose raw throughput of that command the working tree won, over the
    pairs in which both runs recorded one, and leaves its verdict alone."""
    bench_pairs = load_bench_pairs()
    metrics = [{"name": "m", "unit": "x", "better": "higher"},
               {"name": "run_queries_per_probe", "unit": "q/p", "better": "higher"}]
    probes = {"base": [0.002, 0.001, None], "change": [0.003, 0.001, 0.002]}
    runs = {
        side: [
            {"env": None, "failures": [], "probe_s": probe,
             "metrics": {"m": 1.0, "run_queries_per_probe": 1.0},
             "raw_qps": {} if probe is None else {"run": 1 / probe},
             **({} if probe is None else {"child_usage": {
                 "minor_faults": probe * 1e6, "user_s": probe, "system_s": probe / 2,
             }})}
            for probe in values
        ]
        for side, values in probes.items()
    }
    doc = bench_pairs.summarise(
        "l", "w", 1.0, [1, 2, 3], {"base": "a", "change": "b"}, runs, metrics
    )
    base, change = doc["sides"]["base"], doc["sides"]["change"]
    assert base["probe_s"]["values"] == [0.002, 0.001, None]
    assert base["probe_s"]["median"] == 0.0015
    assert change["probe_s"]["median"] == 0.002
    assert base["raw_qps"]["run"]["values"] == [500.0, 1000.0, None]
    assert change["raw_qps"]["run"]["median"] == 500.0
    assert base["child_usage"]["minor_faults"]["values"] == [2000.0, 1000.0, None]
    assert base["child_usage"]["minor_faults"]["unit"] == "faults/op"
    assert change["child_usage"]["user_s"]["median"] == 0.002
    assert change["child_usage"]["system_s"]["median"] == 0.001
    assert change["child_usage"]["system_s"]["unit"] == "s/op"
    # raw run throughput 500 -> 333, 1000 -> 1000, and no base value in pair 3
    assert doc["comparison"]["run_queries_per_probe"]["raw_wins"] == 0
    assert doc["comparison"]["run_queries_per_probe"]["verdict"] == "unchanged"
    assert "raw_wins" not in doc["comparison"]["m"]
    runs["change"][0]["raw_qps"]["run"] = 600.0
    doc = bench_pairs.summarise(
        "l", "w", 1.0, [1, 2, 3], {"base": "a", "change": "b"}, runs, metrics
    )
    assert doc["comparison"]["run_queries_per_probe"]["raw_wins"] == 1

    # one run: the children's usage delta around it over its attempted ops
    usage = iter([
        SimpleNamespace(ru_minflt=100, ru_utime=1.0, ru_stime=0.5),
        SimpleNamespace(ru_minflt=900, ru_utime=3.0, ru_stime=1.5),
    ])
    monkeypatch.setattr(bench_pairs.resource, "getrusage", lambda who: next(usage))
    summary = json.dumps({"attempted": 4, "metrics": {"m": {"value": 2.0}}})
    monkeypatch.setattr(
        bench_pairs.subprocess, "run",
        lambda *a, **k: SimpleNamespace(returncode=0, stdout=summary, stderr=""),
    )
    run = bench_pairs.run_once(ROOT, "w", 1, 1.0)
    assert run["metrics"] == {"m": 2.0}
    assert run["child_usage"] == {"minor_faults": 200.0, "user_s": 0.5, "system_s": 0.25}


def test_bench_pairs_rejects_an_empty_seed_range(monkeypatch, capsys):
    """A seed range that holds no seed stops at argument parsing, before the
    base revision is archived or any run starts."""
    bench_pairs = load_bench_pairs()
    assert bench_pairs.parse_seeds("3,7,11") == [3, 7, 11]
    assert bench_pairs.parse_seeds("101-103,5") == [101, 102, 103, 5]
    assert bench_pairs.parse_seeds("4-4") == [4]

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_process)
    for seeds in ("5-3", "1,5-3"):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--workload", "w", "--label", "l", "--seeds", seeds])
        assert exc.value.code == 2
        assert "empty seed range '5-3'" in capsys.readouterr().err


def test_bench_pairs_records_one_traced_run_per_side(monkeypatch):
    """Each side's traced run goes into its ``per_layer`` under the names
    and units of the per-layer metrics, every ms and µs value with its time
    in probes of that run, and ``run_once`` asks the benchmark for a traced
    run when told to."""
    bench_pairs = load_bench_pairs()
    metrics = [{"name": "m", "unit": "x", "better": "higher"}]
    layers = [{"name": "run.a", "unit": "us", "better": "lower"},
              {"name": "run.b", "unit": "ms", "better": "lower"},
              {"name": "run.c", "unit": "count", "better": "lower"}]
    runs = {side: [{"env": None, "failures": [], "metrics": {"m": 1.0}}]
            for side in ("base", "change")}
    traced = {
        "base": {"exit": 0, "failures": [], "probe_s": 0.002,
                 "metrics": {"run.a": 2.0, "run.b": 3.0, "run.c": 4.0}},
        "change": {"exit": None, "failures": ["no result"], "metrics": {}},
    }
    doc = bench_pairs.summarise(
        "l", "w", 1.0, [9, 10], {"base": "a", "change": "b"}, runs, metrics,
        traced, layers,
    )
    base, change = (doc["sides"][s]["per_layer"] for s in ("base", "change"))
    assert base == {
        "seed": 9, "exit": 0, "failures": [], "probe_s": 0.002,
        "metrics": {
            "run.a": {"unit": "us", "value": 2.0, "per_probe": pytest.approx(1e-3)},
            "run.b": {"unit": "ms", "value": 3.0, "per_probe": pytest.approx(1.5)},
            "run.c": {"unit": "count", "value": 4.0},
        },
    }
    assert change["exit"] is None and change["failures"] == ["no result"]
    assert change["probe_s"] is None
    assert change["metrics"]["run.b"] == {"unit": "ms", "value": None}

    commands = []
    summary = json.dumps({"attempted": 1, "metrics": {"run.a": {"value": 2.0}}})

    def fake_run(command, **kwargs):
        commands.append(command)
        return SimpleNamespace(returncode=0, stdout=summary, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(ROOT, "w", 1, 1.0, trace=1)["metrics"] == {"run.a": 2.0}
    bench_pairs.run_once(ROOT, "w", 1, 1.0)
    assert [c[c.index("--trace") + 1] for c in commands] == ["1", "0"]
