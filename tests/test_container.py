import collections
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmmcodec import bitstream, container, core
from fmmcodec.errors import CorruptStreamError, FmmError, FormatError, TruncatedStreamError
from fmmcodec.image import RasterImage

from golden import ORIGINAL_BLOCK
from peaks import Peak
from spec import reference_decode, reference_stream
from spies import spy

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


def _noise_cases(mid: list, seed=lambda height, width, channels: height + channels) -> list:
    """(shape, seed) of a memory bound's noise images: four plane shapes at 1 and 3 channels,
    seeded height + channels, then the mid-plane shapes, seeded seed(*shape). The ids keep
    the form they had when the mid-plane shapes were a test of their own."""
    wide = [(256, 256), (37, 61), (8, 16384), (16384, 8)]
    cases = [
        pytest.param((*s, c), s[0] + c, id=f"{c}-shape{i}") for c in (1, 3) for i, s in enumerate(wide)
    ]
    return cases + [pytest.param(s, seed(*s), id=f"shape{i}") for i, s in enumerate(mid)]


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

    @pytest.mark.parametrize("k", [3, 5, 7, 9, 13, 33, 127])  # the tiny_mixed moduli
    def test_matches_whole_plane_composition(self, k):
        # compress quantizes strip by strip into one buffer; the oracle is each channel's
        # quantized plane encoded alone by the same encoder, then framed. Planes of
        # 63, 64 and 65 blocks sit either side of the size fork, 8x16384 makes strips along
        # one block row and 9x4100 splits them mid-row; three channels are strided views
        rng = np.random.default_rng(k)
        shapes = [(1, 1), (24, 31), (56, 72), (63, 64), (40, 104), (57, 71), (9, 4100)]
        for height, width, channels in [(*s, c) for s in shapes for c in (1, 3)] + [(8, 16384, 1)]:
            pixels = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
            pixels[: height // 2, : width // 2] = pixels[0, 0]  # repeated blocks beside mixed
            img = RasterImage(pixels)
            streams = [bytearray() for _ in range(channels)]
            for c, stream in enumerate(streams):
                bitstream.append_samples(stream, core.quantize_plane(img.plane(c), k), k)
            assert container.compress(img, k) == frame(streams, width, height, k)


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

    @pytest.mark.parametrize(
        "shape, seed",
        _noise_cases(
            [(8, 512, 3), (64, 64, 3), (128, 128, 3), (8, 512, 1), (64, 64, 1), (80, 80, 1), (128, 128, 1)]
        ),
    )
    def test_decode_memory_is_bounded(self, shape, seed):
        # uniform noise spends the most stream bits per sample; decoding it must stay within
        # a few bytes per decoded sample. Planes of 64 to 256 blocks decode as four strips
        # each, so a strip's working set falls on few samples; an image of such noise planes
        # must stay in bound, even of one plane, which is itself the pixel array
        rng = np.random.default_rng(seed)
        img = RasterImage(rng.integers(0, 256, shape, dtype=np.uint8))
        blob = container.compress(img)
        with Peak() as peak:
            container.decompress(blob)
        assert peak.bytes <= 5 * img.pixels.size

    @pytest.mark.parametrize("shape", [(8, 16384), (16384, 8)])
    def test_chase_windows_are_bounded(self, shape, monkeypatch):
        # the header pass builds windows a chunk of two groups' reach at a time, a group being
        # 8 * STRIP_BLOCKS blocks, whatever the plane's shape, even where one block row is a
        # whole stream of four groups. Blocks of many delta widths are stepped over more than
        # one chunk; uniform noise, whose blocks after the first group are guessed, needs a
        # window for the first group alone
        w = core.index_table()[-1].bit_length()
        strip = 8 * bitstream.STRIP_BLOCKS  # blocks, each at most a full header and 64 deltas
        bound = 2 * ((strip * (2 * w + 1 + 64 * w) >> 3) + 2)
        rng = np.random.default_rng(shape[0])
        noise = rng.integers(0, 256, shape, dtype=np.uint8)
        grid = -(-shape[0] // 8), -(-shape[1] // 8)
        spans = rng.integers(1, 256, grid).repeat(8, axis=0).repeat(8, axis=1)  # per block
        chunks = spy(monkeypatch, bitstream, "_windows", lambda _, data, start, stop: stop - start)
        for pixels, stepped in [(noise % spans.astype(np.uint8), True), (noise, False)]:
            chunks.clear()
            blob = container.compress(RasterImage(pixels))
            assert container.decompress(blob) == RasterImage(core.quantize_plane(pixels))
            assert (len(chunks) > 1) == stepped and max(chunks) <= bound

    def test_one_channel_decodes_in_place(self):
        # a one-channel image is its decoded plane, so decompress holds the plane and
        # the header pass's per-block arrays, not a second pixel array. It peaks at 1.437
        # bytes per sample, the plane, those arrays and a decoding strip of 1,024 blocks
        # (1.327 with strips of 512)
        rng = np.random.default_rng(17)
        img = RasterImage(rng.integers(0, 256, (1024, 1024), dtype=np.uint8))
        blob = container.compress(img)
        with Peak() as peak:
            out = container.decompress(blob)
        assert peak.bytes <= 1.5 * img.pixels.size
        assert out == RasterImage(core.quantize_plane(img.pixels))

    @pytest.mark.parametrize(
        "shape, seed",
        _noise_cases(
            [(8, 512, 3), (64, 64, 3), (128, 128, 3), (16, 4088, 1), (200, 200, 1), (24, 2720, 1), (8, 8192, 1)],
            lambda height, width, channels: height + 3,
        ),
    )
    def test_encode_memory_is_bounded(self, shape, seed):
        # the per-block loop measures 1.6 to 3.2 bytes per sample and the strip codec 1.6 to
        # 3.4; a temporary with a byte per bit of a whole plane's fields, or of a whole block
        # row's on the 8-row plane (8+ bytes per sample), must not pass. Planes of 64 to
        # 1,024 blocks encode as one strip each, so a strip's working set falls on few
        # samples; an image of three such noise planes must stay in bound, and so must one
        # plane of 513 to 1,024 blocks, whose strip is quantized in its row words, with no
        # copy of its samples, and whose rows are packed in two parts and placed 2 fields a
        # step: 625 blocks in 25 block rows, and 1,020, 1,022 and 1,024 in three, two and one
        # (3.1 to 3.2 bytes per sample; 4.92 with a translated copy of the strip held, the
        # rows packed at once and 3 fields a step)
        rng = np.random.default_rng(seed)
        img = RasterImage(rng.integers(0, 256, shape, dtype=np.uint8))
        with Peak() as peak:
            container.compress(img)
        assert peak.bytes <= 4 * img.pixels.size

    def test_one_channel_encodes_near_its_indices(self):
        # a uint16 copy of the plane beside the channel's indices and the strips' working
        # set (3.0 B/sample) must not pass
        rng = np.random.default_rng(29)
        img = RasterImage(rng.integers(0, 256, (1024, 1024), dtype=np.uint8))
        with Peak() as peak:
            container.compress(img)
        assert peak.bytes <= 2.75 * img.pixels.size

    @pytest.mark.parametrize("shape", [(1024, 1024, 1), (512, 512, 3)])
    def test_holds_no_index_plane_or_second_stream(self, shape):
        # compress holds its one output buffer (0.78 B/sample of noise) and one strip's
        # working set; a channel's index plane (1 B per channel sample) or a second copy of
        # a stream beside them must not pass
        rng = np.random.default_rng(shape[2])
        img = RasterImage(rng.integers(0, 256, shape, dtype=np.uint8))
        with Peak() as peak:
            container.compress(img)
        assert peak.bytes <= 1.25 * img.pixels.size


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
        # inspect's block headers reject it too, naming the block
        with pytest.raises(CorruptStreamError, match="block 0,0"):
            list(container.block_headers(blob))

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


class TestBlockHeaders:
    def test_grid_order_and_coords(self):
        rng = np.random.default_rng(5)
        img = RasterImage(rng.integers(0, 256, (13, 21), dtype=np.uint8))
        blob = container.compress(img)
        seen = [(ch, row, col) for ch, row, col, *_ in container.block_headers(blob)]
        assert seen == [(0, row, col) for row in range(2) for col in range(3)]

    def test_strip_coded_fields_match_plane(self):
        # a 72x600 plane is strip-coded (675 whole blocks, 75 to a block row); inspect's
        # fields come from the fast header pass and must equal those of the plane's blocks
        rng = np.random.default_rng(19)
        pixels = rng.integers(0, 256, (72, 600, 3), dtype=np.uint8)
        pixels[:30] = pixels[0, 0]
        blob = container.compress(RasterImage(pixels))
        expected = []
        for channel in range(3):
            indices = core.quantize_plane(pixels[:, :, channel]) // 5
            spec = reference_decode(reference_stream(indices), 72, 600, 5)
            fields = zip(spec.lows, spec.spreads, np.diff(spec.starts).tolist())
            for i, (lo, spread, bits) in enumerate(fields):
                row, col = divmod(i, 75)
                expected.append((channel, row, col, 64, lo, spread, spread.bit_length(), bits))
        assert list(container.block_headers(blob)) == expected

    @pytest.mark.parametrize("height, width", [(96, 96), (24, 40)])
    def test_one_header_pass_per_channel(self, height, width, monkeypatch):
        # 96x96 planes have 144 blocks, so every channel is strip-coded: block_headers
        # takes each channel's fields from the pass its decode ran, with no second pass,
        # and the strip decoder leaves that pass's starts as it found them. 24x40 planes
        # have 15 blocks, which the per-block loop decodes, so the pass runs after it, once.
        # container binds no private name of bitstream, which the spies would not replace
        privates = {n for n in vars(bitstream) if n.startswith("_") and not n.startswith("__")}
        assert not privates & set(vars(container))
        rng = np.random.default_rng(47)
        pixels = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        blob = container.compress(RasterImage(pixels))
        strips, kept = bitstream._decode_strips, []

        def decoded(stream, heads, plane, *grammar):
            starts = heads[0].copy()
            end = strips(stream, heads, plane, *grammar)
            kept.append(np.array_equal(heads[0], starts))
            return end

        passes = spy(monkeypatch, bitstream, "_chase", lambda heads, *_: heads)
        monkeypatch.setattr(bitstream, "_decode_strips", decoded)
        blocks = -(-height // 8) * -(-width // 8)
        assert len(list(container.block_headers(blob))) == 3 * blocks
        assert len(passes) == 3
        assert kept == [True] * 3 * (blocks >= bitstream.STRIP_BLOCKS)

    def test_three_channels(self):
        img = RasterImage(np.zeros((8, 8, 3), dtype=np.uint8))
        channels = [ch for ch, *_ in container.block_headers(container.compress(img))]
        assert channels == [0, 1, 2]

    def test_suspended_headers_leave_the_buffer_resizable(self):
        # compress returns a bytearray: once the first block is yielded, the generator must
        # hold no view into it, or resizing it raises BufferError
        blob = container.compress(RasterImage(np.zeros((8, 16, 3), dtype=np.uint8)))
        headers = container.block_headers(blob)
        assert next(headers)[:3] == (0, 0, 0)
        blob += b"x"
        assert len(list(headers)) == 3 * 2 - 1

    def test_memory_is_one_plane_not_the_image(self):
        # every channel is decoded and dropped before any block is yielded, so no pixel
        # array of the whole image (1 B/sample more) is alive
        rng = np.random.default_rng(31)
        img = RasterImage(rng.integers(0, 256, (256, 256, 3), dtype=np.uint8))
        blob = container.compress(img)
        with Peak() as peak:
            collections.deque(container.block_headers(blob), maxlen=0)
        assert peak.bytes <= 1.3 * img.pixels.size


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
    # inspect's block headers reject exactly the mutants decode rejects, with its error.
    rng = np.random.default_rng(1000 + k * 10 + channels)
    for i in range(7):
        if i < 6:
            shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)), channels)
        else:  # a plane of STRIP_BLOCKS or more blocks, coded in strips
            shape = (int(rng.integers(57, 80)), int(rng.integers(57, 80)), channels)
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        if rng.integers(0, 2):
            pixels[: shape[0] // 2] = pixels[0, 0]  # repeated blocks too
        blob = container.compress(RasterImage(pixels), k)
        for data in _mutants(blob, rng, 150):
            started = time.perf_counter()
            try:
                container.decompress(data)
                decoded = None
            except FmmError as exc:
                decoded = type(exc), str(exc)
            assert time.perf_counter() - started < 0.5
            try:
                list(container.block_headers(data))
                walked = None
            except FmmError as exc:
                walked = type(exc), str(exc)
            assert walked == decoded
