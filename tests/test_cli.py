import numpy as np
import pytest

from fmmcodec import cli, container, core
from fmmcodec.image import RasterImage
from fmmcodec.netpbm import read_netpbm, write_netpbm

from golden import ORIGINAL_BLOCK


@pytest.fixture
def uniform_pgm(tmp_path):
    path = tmp_path / "uniform.pgm"
    path.write_bytes(write_netpbm(RasterImage(np.full((8, 8), 55, dtype=np.uint8))))
    return path


@pytest.fixture
def photo_ppm(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "photo.ppm"
    path.write_bytes(write_netpbm(RasterImage(rng.integers(0, 256, (24, 17, 3), dtype=np.uint8))))
    return path


class TestCompress:
    def test_reports_sizes_and_ratio(self, uniform_pgm, tmp_path, capsys):
        out = tmp_path / "u.fmm"
        assert cli.main(["compress", str(uniform_pgm), str(out)]) == 0
        text = capsys.readouterr().out
        assert "64 -> 20 bytes" in text
        assert "CR 3.20" in text
        assert out.read_bytes() == container.compress(read_netpbm(uniform_pgm.read_bytes()))

    def test_golden_block_payload(self, tmp_path, capsys):
        src = tmp_path / "block.pgm"
        src.write_bytes(write_netpbm(RasterImage(ORIGINAL_BLOCK)))
        assert cli.main(["compress", str(src), str(tmp_path / "b.fmm")]) == 0
        assert "payload 34" in capsys.readouterr().out

    def test_missing_input(self, tmp_path, capsys):
        code = cli.main(["compress", str(tmp_path / "nope.pgm"), str(tmp_path / "o.fmm")])
        assert code == cli.EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_same_path_rejected(self, uniform_pgm, capsys):
        assert cli.main(["compress", str(uniform_pgm), str(uniform_pgm)]) == cli.EXIT_USAGE

    def test_bad_modulus(self, uniform_pgm, tmp_path):
        out = str(tmp_path / "o.fmm")
        assert cli.main(["compress", str(uniform_pgm), out, "-k", "4"]) == cli.EXIT_USAGE
        assert cli.main(["compress", str(uniform_pgm), out, "-k", "x"]) == cli.EXIT_USAGE

    def test_garbage_input_image(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not an image")
        code = cli.main(["compress", str(bad), str(tmp_path / "o.fmm")])
        assert code == cli.EXIT_FORMAT


class TestDecompress:
    def test_pipeline_equals_quantization(self, photo_ppm, tmp_path, capsys):
        blob_path = tmp_path / "p.fmm"
        back_path = tmp_path / "back.ppm"
        assert cli.main(["compress", str(photo_ppm), str(blob_path)]) == 0
        assert cli.main(["decompress", str(blob_path), str(back_path)]) == 0
        original = read_netpbm(photo_ppm.read_bytes())
        back = read_netpbm(back_path.read_bytes())
        assert back == RasterImage(core.quantize_plane(original.pixels))

    def test_channel_count_picks_format(self, photo_ppm, tmp_path):
        blob_path = tmp_path / "p.fmm"
        back_path = tmp_path / "back.ppm"
        cli.main(["compress", str(photo_ppm), str(blob_path)])
        cli.main(["decompress", str(blob_path), str(back_path)])
        assert back_path.read_bytes().startswith(b"P6\n")

    def test_wrong_magic(self, tmp_path, capsys):
        bad = tmp_path / "bad.fmm"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        code = cli.main(["decompress", str(bad), str(tmp_path / "o.pgm")])
        assert code == cli.EXIT_FORMAT
        assert "magic" in capsys.readouterr().err

    def test_truncated_container(self, uniform_pgm, tmp_path, capsys):
        blob_path = tmp_path / "u.fmm"
        cli.main(["compress", str(uniform_pgm), str(blob_path)])
        blob_path.write_bytes(blob_path.read_bytes()[:-1])
        code = cli.main(["decompress", str(blob_path), str(tmp_path / "o.pgm")])
        assert code == cli.EXIT_FORMAT


class TestCompare:
    def test_lossless_against_itself(self, photo_ppm, capsys):
        assert cli.main(["compare", str(photo_ppm), str(photo_ppm)]) == 0
        text = capsys.readouterr().out
        assert "psnr lossless" in text
        assert "mse 0.000000" in text

    def test_reports_metrics(self, photo_ppm, tmp_path, capsys):
        blob_path = tmp_path / "p.fmm"
        back_path = tmp_path / "b.ppm"
        cli.main(["compress", str(photo_ppm), str(blob_path)])
        cli.main(["decompress", str(blob_path), str(back_path)])
        capsys.readouterr()
        assert cli.main(["compare", str(photo_ppm), str(back_path)]) == 0
        lines = dict(
            line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(lines["psnr"]) >= 42.11
        assert float(lines["mse"]) <= 4.0
        assert float(lines["sigma_original"]) > 0

    def test_geometry_mismatch(self, uniform_pgm, photo_ppm, capsys):
        code = cli.main(["compare", str(uniform_pgm), str(photo_ppm)])
        assert code == cli.EXIT_USAGE


class TestInspect:
    def test_uniform_block_line(self, uniform_pgm, tmp_path, capsys):
        blob_path = tmp_path / "u.fmm"
        cli.main(["compress", str(uniform_pgm), str(blob_path)])
        capsys.readouterr()
        assert cli.main(["inspect", str(blob_path)]) == 0
        assert "min=11 rep=1 bits=7" in capsys.readouterr().out

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.fmm"
        empty.write_bytes(b"")
        assert cli.main(["inspect", str(empty)]) == cli.EXIT_FORMAT

    def test_index_over_limit_fails_like_decompress(self, tmp_path, capsys):
        # 2x1 plane, k = 5: min 49, max_delta 2, deltas 0 and 3, so index 52 > 51
        path = tmp_path / "over.fmm"
        path.write_bytes(bytes.fromhex("464d4d31 01 05 00000002 00000001 01 00000003 c41180"))
        assert len(path.read_bytes()) == 22
        assert cli.main(["inspect", str(path)]) == cli.EXIT_FORMAT
        assert cli.main(["decompress", str(path), str(tmp_path / "out.pgm")]) == cli.EXIT_FORMAT


class TestBench:
    def test_rows_sorted_with_mean(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        for name in ("b.pgm", "a.pgm"):
            img = RasterImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
            (tmp_path / name).write_bytes(write_netpbm(img))
        (tmp_path / "broken.pgm").write_bytes(b"P5 but broken")
        (tmp_path / "ignored.txt").write_bytes(b"not an image")
        assert cli.main(["bench", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        names = [line.split("\t")[0] for line in lines]
        assert names == ["a.pgm", "b.pgm", "mean"]
        for line in lines[:2]:
            _, psnr_text, cr_text = line.split("\t")
            assert float(psnr_text) >= 42.11
            assert float(cr_text) > 1.0
        assert "broken.pgm" in captured.err

    def test_empty_directory(self, tmp_path, capsys):
        assert cli.main(["bench", str(tmp_path)]) == cli.EXIT_IO

    def test_missing_directory(self, tmp_path, capsys):
        assert cli.main(["bench", str(tmp_path / "nowhere")]) == cli.EXIT_IO


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
