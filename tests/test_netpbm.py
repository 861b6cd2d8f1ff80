import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmmcodec.errors import NetpbmError
from fmmcodec.image import RasterImage
from fmmcodec.netpbm import read_netpbm, write_netpbm


class TestRead:
    def test_p5_basic(self):
        img = read_netpbm(b"P5 2 2 255 " + bytes([0, 85, 170, 255]))
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.plane().tolist() == [[0, 85], [170, 255]]

    def test_p6_single_red_pixel(self):
        img = read_netpbm(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]

    def test_comments_tolerated(self):
        data = b"P5 # comment\n2 # another\n1\n# third\n255\n" + bytes([3, 4])
        img = read_netpbm(data)
        assert img.plane().tolist() == [[3, 4]]

    def test_trailing_bytes_ignored(self):
        img = read_netpbm(b"P5 1 1 255 \x07extra")
        assert img.plane().tolist() == [[7]]

    def test_short_payload(self):
        with pytest.raises(NetpbmError, match="payload"):
            read_netpbm(b"P5 4 4 255 " + bytes(8))

    @pytest.mark.parametrize("maxval", [254, 256, 65535, 1])
    def test_wrong_maxval(self, maxval):
        with pytest.raises(NetpbmError, match="maxval"):
            read_netpbm(b"P5 1 1 %d \x00" % maxval)

    @pytest.mark.parametrize("magic", [b"P4", b"P2", b"P7", b"BM"])
    def test_unknown_magic(self, magic):
        with pytest.raises(NetpbmError, match="magic"):
            read_netpbm(magic + b" 1 1 255 \x00")

    def test_zero_dimensions(self):
        with pytest.raises(NetpbmError, match="dimensions"):
            read_netpbm(b"P5 0 1 255 ")

    def test_non_numeric_field(self):
        with pytest.raises(NetpbmError, match="width"):
            read_netpbm(b"P5 x 1 255 \x00")

    def test_header_cut_short(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"P5 2 2")

    def test_empty(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"")


class TestWrite:
    def test_canonical_p5(self):
        img = RasterImage(np.zeros((1, 1), dtype=np.uint8))
        assert write_netpbm(img) == b"P5\n1 1\n255\n\x00"

    def test_canonical_p6(self):
        img = RasterImage(np.full((1, 2, 3), 9, dtype=np.uint8))
        assert write_netpbm(img) == b"P6\n2 1\n255\n" + bytes([9] * 6)

    def test_write_read_write_is_stable(self):
        rng = np.random.default_rng(8)
        img = RasterImage(rng.integers(0, 256, (5, 11, 3), dtype=np.uint8))
        first = write_netpbm(img)
        second = write_netpbm(read_netpbm(first))
        assert first == second


@given(
    height=st.integers(min_value=1, max_value=32),
    width=st.integers(min_value=1, max_value=32),
    channels=st.sampled_from([1, 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_roundtrip_property(height, width, channels, seed):
    rng = np.random.default_rng(seed)
    img = RasterImage(rng.integers(0, 256, (height, width, channels), dtype=np.uint8))
    assert read_netpbm(write_netpbm(img)) == img


def test_roundtrip_many_random_images():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        shape = (int(rng.integers(1, 17)), int(rng.integers(1, 17)), rng.choice([1, 3]))
        img = RasterImage(rng.integers(0, 256, shape, dtype=np.uint8))
        assert read_netpbm(write_netpbm(img)) == img


_COMMENTS = [b"#", b"# x\n", b"\n#", b" # 7 7\n"]


def _netpbm_mutants(data: bytes, header_len: int, rng: np.random.Generator, count: int):
    """Seeded header bit flips, digit and comment insertions, and truncations."""
    for i in range(count):
        out = bytearray(data)
        at = int(rng.integers(0, header_len + 1))
        if i % 4 == 0:
            for _ in range(int(rng.integers(1, 4))):
                out[int(rng.integers(0, header_len))] ^= 1 << int(rng.integers(0, 8))
        elif i % 4 == 1:
            out[at:at] = bytes(b"0123456789"[d] for d in rng.integers(0, 10, rng.integers(1, 6)))
        elif i % 4 == 2:
            out[at:at] = _COMMENTS[int(rng.integers(0, len(_COMMENTS)))]
        else:
            del out[int(rng.integers(0, len(out))) :]
        yield bytes(out)


@pytest.mark.parametrize("channels", [1, 3])
def test_mutation_fuzz(channels):
    # every mutant of a small P5/P6 file parses or raises NetpbmError, quickly
    rng = np.random.default_rng(77 + channels)
    for _ in range(200):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)), channels)
        data = write_netpbm(RasterImage(rng.integers(0, 256, shape, dtype=np.uint8)))
        header_len = len(data) - int(np.prod(shape))
        for mutant in _netpbm_mutants(data, header_len, rng, 50):
            started = time.perf_counter()
            try:
                assert isinstance(read_netpbm(mutant), RasterImage)
            except NetpbmError:
                pass
            assert time.perf_counter() - started < 0.5
