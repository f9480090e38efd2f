"""Every file switchfuse writes goes through ``files.write_atomic``: a write
that fails part-way keeps the previous file and leaves no temporary beside
it, a FIFO target stays a FIFO and gets the bytes, and a directory target
fails with ``SF-IO`` and leaves nothing behind."""

import builtins
import errno
import os
import stat
import threading

import pytest

from switchfuse import calibration as cal
from switchfuse.datasets import DatasetRuntime, load_config, load_manifest, save_config
from switchfuse.descriptors import load_descriptor_set, save_descriptor_set
from switchfuse.evaluation import run_method
from switchfuse.reports import write_predictions
from tests.test_cli import run_cli, write_config, write_spec


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A synthesised and calibrated pipeline directory, with one object of
    each kind the writers below take, read back from it."""
    d = tmp_path_factory.mktemp("made")
    write_spec(d / "spec.json", [("a", 0.6), ("b", 0.5)])
    write_config(d / "config.json", [["a", "b"]])
    data = d / "data"
    assert run_cli("synth", "--spec", d / "spec.json", "--seed", 3, "--out", data) == 0
    assert run_cli("calibrate", "--manifest", data / "calib_manifest.json",
                   "--config", d / "config.json", "--out", d / "store.sfcal") == 0
    store = cal.load_store(d / "store.sfcal")
    config = load_config(d / "config.json")
    runtime = DatasetRuntime(load_manifest(data / "eval_manifest.json"))
    columns = run_method("switch-fuse", runtime, config, store)
    return {
        "dir": d,
        "store": store,
        "config": config,
        "descriptors": load_descriptor_set(data / "eval_queries_a.sfdesc"),
        "columns": columns,
    }


WRITERS = {
    "save_store": lambda made, path: cal.save_store(made["store"], path),
    "save_descriptor_set": lambda made, path: save_descriptor_set(
        made["descriptors"], path
    ),
    "save_config": lambda made, path: save_config(made["config"], path),
    "write_predictions": lambda made, path: write_predictions(
        *made["columns"], path, timestamp=False
    ),
}


class HalfWritingFile:
    """An open file whose every write stores the first half of its data
    and then fails, as on a disk that fills up."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_failing_part_way_keeps_the_previous_file(
    made, tmp_path, monkeypatch, writer
):
    target = tmp_path / "out"
    previous = b"the previous contents\n" * 50
    target.write_bytes(previous)
    real_open = builtins.open

    def half_writing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWritingFile(fh) if "w" in mode else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", half_writing_open)
        with pytest.raises(OSError):
            WRITERS[writer](made, target)
    assert target.read_bytes() == previous
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("writer", ["write_predictions", "save_store"])
def test_a_fifo_target_is_written_in_place(made, tmp_path, writer):
    WRITERS[writer](made, tmp_path / "regular")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # held open for reading and writing, so that neither the reader's open
    # nor the writer's blocks, and the reader sees the end of the data only
    # once this is closed too
    held = os.open(fifo, os.O_RDWR)
    reader = open(fifo, "rb")
    got = []
    thread = threading.Thread(target=lambda: got.append(reader.read()), daemon=True)
    thread.start()
    try:
        WRITERS[writer](made, fifo)
    finally:
        os.close(held)
    thread.join(timeout=60)
    assert not thread.is_alive()
    reader.close()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [(tmp_path / "regular").read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "regular"]


def test_run_out_directory_exits_sf_io_and_leaves_nothing(made, tmp_path, capsys):
    d, target = made["dir"], tmp_path / "preds"
    target.mkdir()
    capsys.readouterr()
    assert run_cli("run", "--manifest", d / "data" / "eval_manifest.json",
                   "--config", d / "config.json", "--store", d / "store.sfcal",
                   "--out", target) == 1
    err = capsys.readouterr().err
    assert err.startswith("SF-IO: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []
