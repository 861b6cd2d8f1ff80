"""fmm as a process: the ``python -m fmmcodec.cli`` entry, exit statuses 0 to 3 through
``sys.exit``, and a failure's one line on stderr with no traceback. What the commands print
and write is tested in-process by test_cli.py; each call here starts an interpreter and
imports numpy, about 0.2 s, so this module keeps to what only a process shows."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fmmcodec
from fmmcodec import container, core
from fmmcodec.image import RasterImage
from fmmcodec.netpbm import read_netpbm, write_netpbm

# the directory that holds the fmmcodec package these tests import, for the processes too
SOURCE = str(Path(fmmcodec.__file__).parents[1])


def fmm(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -m fmmcodec.cli`` with args in cwd, its output captured as text."""
    path = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fmmcodec.cli", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def failed(run: subprocess.CompletedProcess, status: int, prefix: str = "error: ") -> str:
    """Check that run exited with status and wrote one line to stderr, beginning with prefix,
    so no traceback; that line."""
    assert (run.returncode, run.stderr[: len(prefix)]) == (status, prefix), run.stderr
    assert run.stderr.count("\n") == 1, run.stderr
    return run.stderr


def test_round_trip_exits_zero_and_a_short_file_three(tmp_path):
    pixels = np.frombuffer(bytes(range(240)) * 4, dtype=np.uint8).reshape(24, 40)
    (tmp_path / "in.pgm").write_bytes(write_netpbm(RasterImage(pixels)))
    for args in (("compress", "in.pgm", "in.fmm"), ("decompress", "in.fmm", "out.pgm")):
        run = fmm(tmp_path, *args)
        assert (run.returncode, run.stderr) == (0, "")
    # the pixels are the input's, each sample quantized at k = 5 on its own
    out = read_netpbm((tmp_path / "out.pgm").read_bytes())
    assert out == RasterImage(core.quantize_plane(pixels))
    run = fmm(tmp_path, "inspect", "in.fmm")
    assert run.returncode == 0
    assert run.stdout.splitlines()[0] == "modulus 5, 40x24, 1 channel(s)"
    (tmp_path / "cut.fmm").write_bytes((tmp_path / "in.fmm").read_bytes()[:-1])
    failed(fmm(tmp_path, "decompress", "cut.fmm", "cut.pgm"), 3)


def test_usage_io_and_format_failures(tmp_path):
    (tmp_path / "x.pgm").write_bytes(write_netpbm(RasterImage(np.zeros((8, 8), np.uint8))))
    failed(fmm(tmp_path, "compress", "-k", "4", "x.pgm", "k4.fmm"), 1, "usage error: ")
    failed(fmm(tmp_path, "compress", "missing.pgm", "missing.fmm"), 2)
    (tmp_path / "empty").mkdir()
    failed(fmm(tmp_path, "bench", "empty"), 2)
    (tmp_path / "empty.pgm").write_bytes(b"P5 0 3 255\n")  # a 0x3 image is malformed
    failed(fmm(tmp_path, "compress", "empty.pgm", "empty.fmm"), 3)


def test_inspect_fails_with_decompress_error(tmp_path):
    # the last stream of a 3-channel strip-coded file starts with 0xFF: min_index 63, above
    # the limit 51 at k = 5 (test_errors_name_channel_block_and_bit, in-process)
    pixels = np.random.default_rng(96).integers(0, 256, (96, 96, 3), dtype=np.uint8)
    blob = container.compress(RasterImage(pixels))
    at = container.HEADER_SIZE
    for _ in range(2):
        at += 4 + int.from_bytes(blob[at : at + 4], "big")
    blob[at + 4] = 0xFF
    (tmp_path / "bad.fmm").write_bytes(blob)
    run = fmm(tmp_path, "inspect", "bad.fmm")
    error = failed(run, 3)
    assert "ch=" not in run.stdout
    assert failed(fmm(tmp_path, "decompress", "bad.fmm", "bad.ppm"), 3) == error
    message = "channel 2: block 0,0: block minimum 63 exceeds index limit 51 (bit 0)"
    assert error == f"error: {message}\n"
