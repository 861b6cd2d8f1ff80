import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmmcodec import container, core
from fmmcodec.errors import CorruptStreamError, FmmError, FormatError, TruncatedStreamError
from fmmcodec.image import RasterImage

from golden import ORIGINAL_BLOCK

UNIFORM_55 = RasterImage(np.full((8, 8), 55, dtype=np.uint8))

# 15-byte header, 4-byte stream length, then index 11 repeated: 0010111 padded
UNIFORM_55_BYTES = (
    b"FMM1"
    + bytes([1, 5])
    + (8).to_bytes(4, "big")
    + (8).to_bytes(4, "big")
    + bytes([1])
    + (1).to_bytes(4, "big")
    + bytes([0b00101110])
)


def frame(streams: list[bytes], width: int, height: int, k: int = 5) -> bytes:
    """Hand-assemble a container around raw channel streams."""
    out = b"FMM1" + bytes([1, k]) + width.to_bytes(4, "big") + height.to_bytes(4, "big")
    out += bytes([len(streams)])
    for stream in streams:
        out += len(stream).to_bytes(4, "big") + stream
    return out


class TestCompress:
    def test_uniform_container_bytes(self):
        assert container.compress(UNIFORM_55) == UNIFORM_55_BYTES

    def test_header_roundtrip(self):
        header = container.read_header(UNIFORM_55_BYTES)
        assert header == container.ContainerHeader(5, 8, 8, 1)

    def test_golden_block_payload_size(self):
        blob = container.compress(RasterImage(ORIGINAL_BLOCK))
        # 269 block bits pad to 34 stream bytes
        assert len(blob) == container.HEADER_SIZE + 4 + 34

    def test_recompression_is_byte_stable(self):
        rng = np.random.default_rng(11)
        img = RasterImage(rng.integers(0, 256, (21, 13, 3), dtype=np.uint8))
        blob = container.compress(img, 7)
        again = container.compress(container.decompress(blob), 7)
        assert again == blob


class TestDecompress:
    @pytest.mark.parametrize("k", [3, 5, 9])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_quantization(self, k, channels):
        rng = np.random.default_rng(k * 10 + channels)
        pixels = rng.integers(0, 256, (19, 30, channels), dtype=np.uint8)
        img = RasterImage(pixels)
        out = container.decompress(container.compress(img, k))
        assert out == RasterImage(core.quantize_plane(pixels, k))

    def test_single_pixel(self):
        img = RasterImage(np.array([[203]], dtype=np.uint8))
        out = container.decompress(container.compress(img))
        assert out.pixels.ravel().tolist() == [205]

    def test_single_zero_pixel_bytes(self):
        # one block {0}: bits 000000 1, padded to the byte 0x02
        blob = container.compress(RasterImage(np.zeros((1, 1), dtype=np.uint8)))
        assert blob == frame([b"\x02"], width=1, height=1)

    def test_quantized_image_is_fixed_point(self):
        rng = np.random.default_rng(14)
        quantized = core.quantize_plane(rng.integers(0, 256, (10, 10), dtype=np.uint8))
        img = RasterImage(quantized)
        assert container.decompress(container.compress(img)) == img

    def test_channels_decode_independently(self):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, (9, 9, 3), dtype=np.uint8)
        blob = container.compress(RasterImage(pixels))
        out = container.decompress(blob)
        for ch in range(3):
            assert np.array_equal(out.plane(ch), core.quantize_plane(pixels[:, :, ch]))

    @pytest.mark.parametrize("shape", [(256, 256), (37, 61)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_decode_memory_is_bounded(self, shape, channels):
        # uniform noise spends the most stream bits per sample; decoding it
        # must stay within a few bytes per decoded sample
        rng = np.random.default_rng(shape[0] + channels)
        img = RasterImage(rng.integers(0, 256, (*shape, channels), dtype=np.uint8))
        blob = container.compress(img)
        tracemalloc.start()
        try:
            container.decompress(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * img.pixels.size


class TestHeaderErrors:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"FMM1",
            UNIFORM_55_BYTES[: container.HEADER_SIZE - 1],
        ],
    )
    def test_too_short(self, data):
        with pytest.raises(FormatError):
            container.read_header(data)

    @pytest.mark.parametrize("magic", [b"JUNK", b"FMM2", b"fmm1"])
    def test_bad_magic(self, magic):
        with pytest.raises(FormatError, match="magic"):
            container.read_header(magic + UNIFORM_55_BYTES[4:])

    def test_bad_version(self):
        data = bytearray(UNIFORM_55_BYTES)
        data[4] = 2
        with pytest.raises(FormatError, match="version"):
            container.read_header(bytes(data))

    @pytest.mark.parametrize("k", [0, 2, 4, 129, 255])
    def test_bad_modulus(self, k):
        data = bytearray(UNIFORM_55_BYTES)
        data[5] = k
        with pytest.raises(FormatError, match="modulus"):
            container.read_header(bytes(data))

    def test_zero_dimension(self):
        blob = frame([b"\x2e"], width=0, height=8)
        with pytest.raises(FormatError, match="1x1"):
            container.read_header(blob)

    @pytest.mark.parametrize("channels", [0, 2, 4])
    def test_bad_channels(self, channels):
        data = bytearray(UNIFORM_55_BYTES)
        data[14] = channels
        with pytest.raises(FormatError, match="channels"):
            container.read_header(bytes(data))


class TestStreamErrors:
    def test_truncated_stream_bytes(self):
        with pytest.raises(CorruptStreamError):
            container.decompress(UNIFORM_55_BYTES[:-1])

    def test_missing_length_prefix(self):
        with pytest.raises(CorruptStreamError):
            container.decompress(UNIFORM_55_BYTES[: container.HEADER_SIZE])

    def test_trailing_bytes(self):
        with pytest.raises(CorruptStreamError, match="trailing"):
            container.decompress(UNIFORM_55_BYTES + b"\x00")

    def test_stream_longer_than_blocks(self):
        blob = frame([bytes([0b00101110, 0]) ], width=8, height=8)
        with pytest.raises(CorruptStreamError, match="blocks need"):
            container.decompress(blob)

    def test_stream_shorter_than_grid(self):
        # an 8x16 plane needs two blocks; supply only the one
        blob = frame([bytes([0b00101110])], width=8, height=16)
        with pytest.raises(TruncatedStreamError):
            container.decompress(blob)

    def test_index_over_limit(self):
        # 1x1 block: min 46, not repeated, max_delta 5, single delta 7
        # decodes to index 53 > 51 although 46 + 5 passes the field check
        stream = bytes([0b101110_0_0, 0b00101_111])  # 101110 0 000101 111
        blob = frame([stream], width=1, height=1)
        with pytest.raises(CorruptStreamError):
            container.decompress(blob)
        # the block walk behind inspect rejects it too, naming the block
        with pytest.raises(CorruptStreamError, match="block 0,0"):
            list(container.iter_block_fields(blob))

    def test_huge_declared_plane_fails_fast(self):
        # 16384x16384 needs 2048 * 2048 blocks of at least 7 bits each; a
        # 5-byte stream of five repeated blocks cannot hold them, so it is
        # rejected before a plane is allocated or a block is read
        stream = int("0000001" * 5 + "00000", 2).to_bytes(5, "big")
        blob = frame([stream], width=16384, height=16384)
        assert len(blob) == 24
        started = time.perf_counter()
        with pytest.raises(TruncatedStreamError):
            container.decompress(blob)
        assert time.perf_counter() - started < 0.05


class TestIterBlockFields:
    def test_grid_order_and_coords(self):
        rng = np.random.default_rng(5)
        img = RasterImage(rng.integers(0, 256, (13, 21), dtype=np.uint8))
        blob = container.compress(img)
        seen = [(ch, f.row, f.col) for ch, f in container.iter_block_fields(blob)]
        assert seen == [(0, row, col) for row in range(2) for col in range(3)]

    def test_three_channels(self):
        img = RasterImage(np.zeros((8, 8, 3), dtype=np.uint8))
        channels = [ch for ch, _ in container.iter_block_fields(container.compress(img))]
        assert channels == [0, 1, 2]


@given(
    height=st.integers(min_value=1, max_value=24),
    width=st.integers(min_value=1, max_value=24),
    channels=st.sampled_from([1, 3]),
    k=st.sampled_from([3, 5, 7, 127]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(height, width, channels, k, seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
    blob = container.compress(RasterImage(pixels), k)
    header = container.read_header(blob)
    assert (header.modulus, header.width, header.height) == (k, width, height)
    out = container.decompress(blob)
    assert out == RasterImage(core.quantize_plane(pixels, k))


def _mutants(blob: bytes, rng: np.random.Generator, count: int):
    """Seeded bit flips and truncations of a container.

    A third of the flips land in the high bytes of the width and height,
    which is where a flip declares a plane far larger than its stream.
    """
    for i in range(count):
        if i % 4 == 3:
            yield blob[: int(rng.integers(0, len(blob)))]
            continue
        data = bytearray(blob)
        for _ in range(int(rng.integers(1, 5))):
            if i % 4 == 0:
                byte = int(rng.choice([6, 7, 8, 10, 11, 12]))
            else:
                byte = int(rng.integers(0, len(data)))
            data[byte] ^= 1 << int(rng.integers(0, 8))
        yield bytes(data)


@pytest.mark.parametrize("k", [3, 5, 9, 127])
@pytest.mark.parametrize("channels", [1, 3])
def test_mutation_fuzz(k, channels):
    # every mutant decodes or raises an FmmError subclass, quickly; any
    # other exception (MemoryError, IndexError, a numpy error) fails the test.
    # The block walk behind inspect rejects exactly the mutants decode rejects.
    rng = np.random.default_rng(1000 + k * 10 + channels)
    for _ in range(6):
        shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)), channels)
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        if rng.integers(0, 2):
            pixels[: shape[0] // 2] = pixels[0, 0]  # repeated blocks too
        blob = container.compress(RasterImage(pixels), k)
        for data in _mutants(blob, rng, 150):
            started = time.perf_counter()
            try:
                container.decompress(data)
                decoded = True
            except FmmError:
                decoded = False
            assert time.perf_counter() - started < 0.5
            try:
                list(container.iter_block_fields(data))
                walked = True
            except FmmError:
                walked = False
            assert walked == decoded
