import numpy as np
import pytest

from fmmcodec import cli, container, core
from fmmcodec.errors import CorruptStreamError
from fmmcodec.image import RasterImage
from fmmcodec.netpbm import read_netpbm, write_netpbm

from golden import ORIGINAL_BLOCK
from peaks import Peak


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

    def test_empty_image(self, tmp_path, capsys):
        bad = tmp_path / "empty.pgm"
        bad.write_bytes(b"P5 0 3 255\n")  # 0x3: a netpbm image has at least one sample
        assert cli.main(["compress", str(bad), str(tmp_path / "o.fmm")]) == cli.EXIT_FORMAT

    def test_overlong_header_field(self, tmp_path, capsys):
        bad = tmp_path / "long.pgm"
        bad.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255 " + bytes(4))
        assert cli.main(["compress", str(bad), str(tmp_path / "o.fmm")]) == cli.EXIT_FORMAT
        assert "width" in capsys.readouterr().err

    def test_verbose_prints_error_bound_and_psnr_floor(self, uniform_pgm, tmp_path, capsys):
        # for every accepted modulus the printed bound is the largest move that quantizing
        # any 8-bit sample makes, and the floor is the PSNR of an image moved that far
        values = np.arange(256)
        quoted = {5: "error bound 2, PSNR floor 42.11 dB", 13: "error bound 8, PSNR floor 30.07 dB"}
        for k in range(3, 128, 2):
            out = str(tmp_path / "o.fmm")
            assert cli.main(["-v", "compress", str(uniform_pgm), out, "-k", str(k)]) == 0
            (line,) = [s for s in capsys.readouterr().out.splitlines() if "error bound" in s]
            moved = int(np.abs(core.quantize_plane(values, k).astype(int) - values).max())
            assert line == f"error bound {moved}, PSNR floor {20 * np.log10(255 / moved):.2f} dB"
            assert line == quoted.get(k, line)  # the figures README.md quotes


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

    @pytest.mark.peak
    def test_writes_pixels_without_a_joined_copy(self, tmp_path, capsys):
        # the file is write_netpbm's bytes, written as the header and then the pixel buffer;
        # joining them first would hold the pixels twice, 2 bytes per sample at the write
        y, x = np.mgrid[0:512, 0:512]
        smooth = ((x + y) // 4 % 256).astype(np.uint8)
        blob_path, back_path = tmp_path / "s.fmm", tmp_path / "s.ppm"
        blob_path.write_bytes(container.compress(RasterImage(np.dstack([smooth] * 3))))
        with Peak() as peak:
            assert cli.main(["decompress", str(blob_path), str(back_path)]) == 0
        assert back_path.read_bytes() == write_netpbm(container.decompress(blob_path.read_bytes()))
        assert peak.bytes <= 1.9 * smooth.size * 3

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

    def test_out_of_memory(self, uniform_pgm, tmp_path, capsys, monkeypatch):
        blob_path = tmp_path / "u.fmm"
        cli.main(["compress", str(uniform_pgm), str(blob_path)])
        capsys.readouterr()

        def exhausted(data):
            raise MemoryError

        monkeypatch.setattr(container, "decompress", exhausted)
        code = cli.main(["decompress", str(blob_path), str(tmp_path / "o.pgm")])
        assert code == cli.EXIT_IO
        assert capsys.readouterr() == ("", "error: out of memory\n")


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


# fmm inspect of TestInspect.test_whole_output's image, every line
INSPECT_13X10X3 = """\
modulus 5, 13x10, 3 channel(s)
ch=0 block=0,0 min=20 rep=1 bits=7 payload=0
ch=0 block=0,1 min=1 rep=0 max=50 width=6 bits=253 payload=240 ratio=1.33
ch=0 block=1,0 min=0 rep=0 max=50 width=6 bits=109 payload=96 ratio=1.33
ch=0 block=1,1 min=3 rep=0 max=24 width=5 bits=63 payload=50 ratio=1.60
ch=1 block=0,0 min=11 rep=1 bits=7 payload=0
ch=1 block=0,1 min=11 rep=1 bits=7 payload=0
ch=1 block=1,0 min=11 rep=1 bits=7 payload=0
ch=1 block=1,1 min=11 rep=1 bits=7 payload=0
ch=2 block=0,0 min=24 rep=0 max=3 width=2 bits=141 payload=128 ratio=4.00
ch=2 block=0,1 min=24 rep=0 max=3 width=2 bits=93 payload=80 ratio=4.00
ch=2 block=1,0 min=24 rep=0 max=3 width=2 bits=45 payload=32 ratio=4.00
ch=2 block=1,1 min=24 rep=0 max=3 width=2 bits=33 payload=20 ratio=4.00
"""


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

    def test_short_file_prints_no_block(self, tmp_path, capsys):
        pixels = np.frombuffer(bytes(range(240)) * 4, dtype=np.uint8).reshape(24, 40)
        path = tmp_path / "cut.fmm"
        path.write_bytes(container.compress(RasterImage(pixels))[:-1])
        assert cli.main(["inspect", str(path)]) == cli.EXIT_FORMAT
        assert capsys.readouterr().out == ""

    def test_line_per_block_of_a_strip_coded_image(self, tmp_path, capsys):
        # 96x96 is 144 blocks a channel, so each channel is strip-coded
        pixels = np.random.default_rng(1).integers(0, 256, (96, 96, 3), dtype=np.uint8)
        src, blob_path, back = tmp_path / "rgb.ppm", tmp_path / "rgb.fmm", tmp_path / "out.ppm"
        src.write_bytes(write_netpbm(RasterImage(pixels)))
        assert cli.main(["compress", str(src), str(blob_path)]) == 0
        capsys.readouterr()
        assert cli.main(["inspect", str(blob_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 144
        assert cli.main(["decompress", str(blob_path), str(back)]) == 0
        assert read_netpbm(back.read_bytes()) == RasterImage(core.quantize_plane(pixels))

    @pytest.mark.parametrize(
        "width, height, row, col, bit",
        [(1024, 64, 5, 60, 277900), (1024, 256, 21, 100, 1106836), (5000, 64, 3, 550, 962725)],
        ids=["1024x64", "1024x256", "5000x64"],
    )
    def test_guessed_block_over_limit(self, width, height, row, col, bit, tmp_path, capsys):
        # uniform noise at k = 5 gives every block 6-bit deltas, so 6 + 1 + 6 + 64 * 6 = 397
        # bits, and block i starts at bit 397 * i; the header pass takes that bit length from
        # the stream's length and every block's start in closed form. 5000x64 is 8 block rows
        # of 625 blocks, encoded in strips of two block rows, 1,250 blocks each packed in three
        # parts; its block 2425 lies in the second strip. The bad block's min_index is set to 63, above the limit 51, which
        # leaves every block's length as it is
        pixels = np.random.default_rng(width + height).integers(0, 256, (height, width), np.uint8)
        blob = container.compress(RasterImage(pixels))
        blocks = width * height // 64
        assert len(blob) == container.HEADER_SIZE + 4 + blocks * 397 // 8
        assert container.decompress(bytes(blob)) == RasterImage(core.quantize_plane(pixels))
        assert 397 * (row * (width // 8) + col) == bit
        at = 8 * (container.HEADER_SIZE + 4) + bit
        for i in range(at, at + 6):
            blob[i >> 3] |= 0x80 >> (i & 7)
        path = tmp_path / "bad.fmm"
        path.write_bytes(blob)
        assert cli.main(["decompress", str(path), str(tmp_path / "bad.pgm")]) == cli.EXIT_FORMAT
        err = capsys.readouterr().err
        message = f"block {row},{col}: block minimum 63 exceeds index limit 51 (bit {bit})"
        assert err == f"error: channel 0: {message}\n"
        assert cli.main(["inspect", str(path)]) == cli.EXIT_FORMAT
        out, inspected = capsys.readouterr()
        assert inspected == err and out == ""

    def test_index_over_limit_fails_like_decompress(self, tmp_path, capsys):
        # 2x1 plane, k = 5: min 49, max_delta 2, deltas 0 and 3, so index 52 > 51
        path = tmp_path / "over.fmm"
        path.write_bytes(bytes.fromhex("464d4d31 01 05 00000002 00000001 01 00000003 c41180"))
        assert len(path.read_bytes()) == 22
        assert cli.main(["inspect", str(path)]) == cli.EXIT_FORMAT
        assert capsys.readouterr().out == ""
        assert cli.main(["decompress", str(path), str(tmp_path / "out.pgm")]) == cli.EXIT_FORMAT
        # the same stream after two valid channels (index 11, repeated): a
        # rejected file prints nothing, not even the header or the valid channels' blocks
        path.write_bytes(bytes.fromhex(
            "464d4d31 01 05 00000002 00000001 03 00000001 2e 00000001 2e 00000003 c41180"
        ))
        assert cli.main(["inspect", str(path)]) == cli.EXIT_FORMAT
        assert capsys.readouterr().out == ""

    def test_whole_output(self, tmp_path, capsys):
        # 13x10 tiles into 8x8, 8x5, 2x8 and 2x5 blocks. Channel 0 has a
        # repeated block beside mixed ones, channel 1 only repeated blocks
        # and channel 2 only mixed blocks.
        y, x = np.mgrid[0:10, 0:13]
        pixels = np.empty((10, 13, 3), dtype=np.uint8)
        pixels[..., 0] = np.where((y < 8) & (x < 8), 100, (y * 13 + x) * 7 % 256)
        pixels[..., 1] = 55
        pixels[..., 2] = 120 + (x + y) % 4 * 5
        path = tmp_path / "small.fmm"
        path.write_bytes(container.compress(RasterImage(pixels)))
        assert cli.main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == INSPECT_13X10X3

    def test_errors_name_channel_block_and_bit(self, tmp_path, capsys):
        # the last stream of a 3-channel strip-coded file starts with 0xFF: min_index 63,
        # above the limit 51 at k = 5. decompress, block_headers and fmm inspect all raise
        # or print the one error, naming the channel, the block and its first bit
        rng = np.random.default_rng(96)
        pixels = rng.integers(0, 256, (96, 96, 3), dtype=np.uint8)
        blob = container.compress(RasterImage(pixels))
        at = container.HEADER_SIZE
        for _ in range(2):
            at += 4 + int.from_bytes(blob[at : at + 4], "big")
        blob[at + 4] = 0xFF
        message = "channel 2: block 0,0: block minimum 63 exceeds index limit 51 (bit 0)"
        for read in (container.decompress, lambda data: list(container.block_headers(data))):
            with pytest.raises(CorruptStreamError) as caught:
                read(bytes(blob))
            assert str(caught.value) == message
        path = tmp_path / "bad.fmm"
        path.write_bytes(blob)
        assert cli.main(["inspect", str(path)]) == cli.EXIT_FORMAT
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n" and out == ""
        assert cli.main(["decompress", str(path), str(tmp_path / "bad.ppm")]) == cli.EXIT_FORMAT
        assert capsys.readouterr().err == err


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

    def test_mean_psnr_leaves_out_lossless_images(self, tmp_path, capsys):
        # a flat image of a multiple of k decodes exactly, and its inf would make the mean
        # inf; the mean is of the lossy rows, and inf only when every image is lossless
        rng = np.random.default_rng(31)
        noisy = RasterImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        flat = RasterImage(np.full((16, 16), 100, dtype=np.uint8))
        for name, img in (("a.pgm", noisy), ("b.pgm", flat), ("c.pgm", flat)):
            (tmp_path / name).write_bytes(write_netpbm(img))
        assert cli.main(["bench", str(tmp_path)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        lossy = rows[0][1]
        assert [row[:2] for row in rows[1:]] == [["b.pgm", "inf"], ["c.pgm", "inf"], ["mean", lossy]]
        assert float(lossy) < 60
        (tmp_path / "a.pgm").unlink()
        assert cli.main(["bench", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split("\t")[:2] == ["mean", "inf"]

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
