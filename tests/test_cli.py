import json
import struct

import numpy as np
import pytest

from switchfuse.calibration import build_store, collect_run, save_store
from switchfuse.cli import main
from switchfuse.datasets import DatasetRuntime, load_config, load_manifest
from switchfuse.errors import InvalidInputError, UndefinedEvidenceError
from switchfuse.switching import run_tripartite


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


@pytest.mark.parametrize("alpha", ["0", "-0.5", "nan"])
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
            run_tripartite(config, lambda tid, q=q: runtime.similarity(q, tid), store)
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
