import time
import traceback
import tracemalloc
from array import array
from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fmmcodec import bitstream, container, core
from fmmcodec.bitstream import (
    _BIT_LENGTH,
    _CELLS,
    _ONES,
    BLOCK_SIZE,
    STRIP_BLOCKS,
    _advance,
    _cells,
    _grid,
    _strips,
    _unpack_rows,
    block_fields,
    decode_plane,
)
from fmmcodec.errors import CorruptStreamError, FmmError, ModulusError, TruncatedStreamError
from fmmcodec.image import RasterImage

from golden import BLOCK_BITS, INDEX_BLOCK
from streams import encode_indices

MODULI = range(3, 128, 2)


def reference_block_bits(values: np.ndarray, k: int = 5) -> str:
    """Independent string-based encoder used to cross-check the packer."""
    w = (255 // k).bit_length()
    lo, hi = int(values.min()), int(values.max())
    bits = format(lo, f"0{w}b")
    if hi == lo:
        return bits + "1"
    spread = hi - lo
    bits += "0" + format(spread, f"0{w}b")
    dw = spread.bit_length()
    fields = [format(delta, f"0{dw}b") for delta in range(spread + 1)]
    return bits + "".join(fields[v - lo] for v in values.ravel().tolist())


def reference_plane_bits(plane: np.ndarray, k: int = 5) -> str:
    """reference_block_bits over the row-major 8x8 grid, concatenated."""
    height, width = plane.shape
    return "".join(
        reference_block_bits(plane[y : y + 8, x : x + 8], k)
        for y in range(0, height, 8)
        for x in range(0, width, 8)
    )


def bits_to_bytes(bits: str) -> bytes:
    padded = bits + "0" * (-len(bits) % 8)
    return int(padded, 2).to_bytes(len(padded) // 8, "big") if padded else b""


def only_block(stream: bytes, rows: int, cols: int, k: int = 5) -> tuple[int, int, int, int]:
    """(min, max_delta, delta width, bits) of the one block of a rows x cols plane's stream."""
    fields = block_fields(stream, rows, cols, k)
    *_, (lo,), (spread,), (dw,), (bits,) = [column.tolist() for column in fields]
    return lo, spread, dw, bits


def block_bits(stream: bytes, rows: int, cols: int, k: int = 5) -> int:
    """Bit length of the one block of a rows x cols plane's stream."""
    return only_block(stream, rows, cols, k)[3]


blocks = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([3, 5, 9, 127]),
    st.randoms(use_true_random=False),
)


class TestBlockCodec:
    def test_uniform_block_bits(self):
        stream = encode_indices(np.full((8, 8), 11, dtype=np.uint8))
        assert block_bits(stream, 8, 8) == 7
        assert stream == bytes([0b00101110])

    def test_golden_block_matches_reference(self):
        arr = INDEX_BLOCK
        stream = encode_indices(arr)
        bits = reference_block_bits(arr)
        assert block_bits(stream, 8, 8) == len(bits) == BLOCK_BITS
        assert stream == bits_to_bytes(bits)

    @given(blocks)
    @settings(max_examples=150)
    def test_roundtrip(self, case):
        rows, cols, k, rnd = case
        top = 255 // k
        arr = np.array(
            [[rnd.randint(0, top) for _ in range(cols)] for _ in range(rows)],
            dtype=np.uint8,
        )
        stream = encode_indices(arr, k)
        bits = reference_block_bits(arr, k)
        assert block_bits(stream, rows, cols, k) == len(bits)
        assert stream == bits_to_bytes(bits)
        assert np.array_equal(decode_plane(stream, rows, cols, k), arr)

    def test_single_cell_zero_block(self):
        stream = encode_indices(np.zeros((1, 1), dtype=np.uint8))
        assert block_bits(stream, 1, 1) == 7
        assert stream == bits_to_bytes("0000001")

    def test_roundtrip_many_random_blocks(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            k = int(rng.choice([3, 5, 7, 9, 127]))
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            arr = rng.integers(0, 255 // k + 1, (rows, cols)).astype(np.uint8)
            out = decode_plane(encode_indices(arr, k), rows, cols, k)
            assert np.array_equal(out, arr)

    def test_blocks_concatenate_unaligned(self):
        # a 3x10 plane tiles into a 3x8 and a 3x2 block; the second block
        # starts at bit 7, inside the first byte
        a = np.full((3, 8), 2, dtype=np.uint8)
        b = np.array([[0, 5], [1, 3], [4, 2]], dtype=np.uint8)
        stream = encode_indices(np.hstack([a, b]))
        assert stream == bits_to_bytes(reference_block_bits(a) + reference_block_bits(b))
        blob = container.compress(RasterImage(np.hstack([a, b]) * np.uint8(5)))
        tiles = [fields[1:4] for fields in container.block_headers(blob)]
        assert tiles == [(0, 0, 3 * 8), (0, 1, 3 * 2)]
        plane = decode_plane(stream, 3, 10)
        assert np.array_equal(plane[:, :8], a)
        assert np.array_equal(plane[:, 8:], b)

    def test_full_block_bit_bounds(self):
        # a full 8x8 block at k = 5 spans 7 bits (uniform) to 397 (max spread)
        lo = encode_indices(np.zeros((8, 8), dtype=np.uint8))
        spread = np.zeros((8, 8), dtype=np.uint8)
        spread[0, 0] = 51
        hi = encode_indices(spread)
        assert block_bits(lo, 8, 8) == 7
        assert block_bits(hi, 8, 8) == 6 + 1 + 6 + 64 * 6 == 397

    def test_rejects_bad_shapes(self):
        for shape in [(0, 8), (8,), (2, 2, 2)]:
            with pytest.raises(ValueError):
                bitstream.append_samples(bytearray(), np.zeros(shape, dtype=np.uint8))

    def test_appends_samples_after_what_out_holds(self):
        # the encoder takes uint8 samples only: other integers' bytes are not samples
        samples = np.random.default_rng(8).integers(0, 256, (9, 70), dtype=np.uint8)
        out, alone = bytearray(b"head"), bytearray()
        bitstream.append_samples(out, samples, 7)
        bitstream.append_samples(alone, core.quantize_plane(samples, 7), 7)
        assert out == b"head" + alone
        for bad in [samples.astype(np.int64), samples[:0], samples[None]]:
            with pytest.raises(ValueError):
                bitstream.append_samples(bytearray(), bad, 7)

    def test_decoder_fields(self):
        stream = encode_indices(INDEX_BLOCK)
        lo, max_delta, dw, bits = only_block(stream, 8, 8)
        assert (lo, max_delta, dw) == (42, 8, 4)  # max_delta > 0: not repeated
        assert bits == BLOCK_BITS
        assert 64 * dw == 256  # payload bits
        assert np.array_equal(decode_plane(stream, 8, 8), INDEX_BLOCK)

    def test_decoder_fields_repeated(self):
        stream = encode_indices(np.full((4, 7), 9, dtype=np.uint8))
        lo, max_delta, dw, bits = only_block(stream, 4, 7)
        assert (lo, max_delta, dw) == (9, 0, 0)  # repeated: no max_delta, no payload
        assert bits == 7

    def test_rejects_zero_max_delta(self):
        stream = bits_to_bytes("001010" "0" "000000")
        with pytest.raises(CorruptStreamError):
            decode_plane(stream, 2, 2)

    def test_rejects_min_over_limit(self):
        stream = bits_to_bytes("111111" "1")  # 63 > 51, impossible for k = 5
        with pytest.raises(CorruptStreamError):
            decode_plane(stream, 2, 2)

    def test_rejects_range_over_limit(self):
        stream = bits_to_bytes("110010" "0" "000101")  # 50 + 5 > 51
        with pytest.raises(CorruptStreamError):
            decode_plane(stream, 2, 2)

    def test_rejects_range_one_over_limit(self):
        # 50 + 2 > 51 although both deltas decode within the limit
        stream = bits_to_bytes("110010" "0" "000010" "00" "01")
        with pytest.raises(CorruptStreamError, match="block range"):
            decode_plane(stream, 1, 2)

    def test_truncated_deltas(self):
        # promises 4-bit deltas that never arrive
        stream = bits_to_bytes("000000" "0" "001000")
        with pytest.raises(TruncatedStreamError):
            decode_plane(stream, 8, 8)


# Plane geometries on both sides of STRIP_BLOCKS: small planes (the
# per-block loop), and wide-short, tall-narrow and square planes of 64+
# blocks (the strip codec), most of them with partial edge blocks. The
# widest span two or three decoding strips; test_strip_encoder_matches_oracle
# covers encoding strips split along a block row and many strip ends.
geometries = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.integers(1, 9), st.integers(505, 560)),
    st.tuples(st.integers(505, 560), st.integers(1, 9)),
    st.tuples(st.integers(57, 75), st.integers(57, 75)),
    st.tuples(st.integers(9, 20), st.integers(1025, 1100)),
)


@pytest.mark.parametrize("k", MODULI)
@given(
    shape=geometries,
    span=st.integers(min_value=0, max_value=85),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(shape=(8, 520), span=85, seed=1)
@example(shape=(520, 8), span=85, seed=2)
@example(shape=(61, 77), span=3, seed=3)
@example(shape=(17, 1030), span=85, seed=5)
@settings(max_examples=20, deadline=None)
def test_plane_bytes_match_reference(k, shape, span, seed):
    # span 0 gives constant planes; random planes draw their range too, so
    # every delta width, up to 7 bits for k = 3, occurs
    rng = np.random.default_rng(seed)
    span = min(span, 255 // k)
    lo = int(rng.integers(0, 255 // k - span + 1))
    plane = (lo + rng.integers(0, span + 1, shape)).astype(np.uint8)
    if seed % 2:
        plane[: shape[0] // 2] = lo  # repeated blocks next to mixed ones
    stream = encode_indices(plane, k)
    assert stream == bits_to_bytes(reference_plane_bits(plane, k))
    assert np.array_equal(decode_plane(stream, *shape, k), plane)


def walked_plane(stream: bytes, height: int, width: int, k: int) -> np.ndarray:
    """decode_plane on the per-block loop alone, whatever the plane's size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "STRIP_BLOCKS", -(-height // 8) * -(-width // 8) + 1)
        return decode_plane(stream, height, width, k)


def outcome(decode, stream: bytes, height: int, width: int, k: int):
    """Decoded plane, or the class and message of the FmmError the decoder raised."""
    try:
        return decode(stream, height, width, k)
    except FmmError as exc:
        return type(exc), str(exc)


def test_strip_decoder_agrees_with_block_walk():
    # above STRIP_BLOCKS, decode_plane reads headers one by one but gathers
    # deltas a strip at a time; on valid, bit-flipped and truncated streams
    # it must give the block walk's pixels or raise its exception class
    # with the same message
    rng = np.random.default_rng(29)
    seen = set()
    for case in range(60):
        k = int(rng.choice([3, 5, 9, 13, 127]))
        height, width = [(8, 520), (520, 8), (67, 75), (64, 64), (20, 1030)][case % 5]
        assert -(-height // 8) * -(-width // 8) >= bitstream.STRIP_BLOCKS
        top = 255 // k
        # every third plane sits just below the limit, where a flipped delta
        # can decode above it although the block's fields pass
        low = max(top - 3, 0) if case % 3 == 0 else 0
        plane = rng.integers(low, top + 1, (height, width)).astype(np.uint8)
        plane[: height // 3] = plane[0, 0]
        stream = encode_indices(plane, k)
        mutants = [stream]
        for _ in range(30):
            data = bytearray(stream)
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
            mutants.append(bytes(data))
        mutants += [stream[: int(rng.integers(0, len(stream)))] for _ in range(5)]
        for data in mutants:
            walked = outcome(walked_plane, data, height, width, k)
            decoded = outcome(decode_plane, data, height, width, k)
            if isinstance(walked, tuple):
                assert decoded == walked
            else:
                assert np.array_equal(decoded, walked)
            seen.add(walked[0] if isinstance(walked, tuple) else np.ndarray)
    assert seen == {np.ndarray, CorruptStreamError, TruncatedStreamError}


def test_strip_decoder_raises_in_block_order():
    # block 0,0 decodes index 49 + 3 = 52 > 51, then block 0,1 promises
    # 384 delta bits the stream does not hold; the walk meets block 0,0
    # first, so the strip decoder must raise its error, not the truncation
    first = format(49, "06b") + "0" + format(2, "06b") + "11" + "00" * 63
    second = format(0, "06b") + "0" + format(51, "06b") + "0" * 300
    stream = bits_to_bytes(first + second)
    assert 8 * len(stream) >= 64 * 7  # passes the size bound of 64 blocks
    for decode in (walked_plane, decode_plane):
        with pytest.raises(CorruptStreamError, match="block 0,0"):
            decode(stream, 8, 512, 5)


@pytest.mark.parametrize(
    "height, width, bad, name",
    [(8, 1024, 70, "block 0,70"), (80, 64, 75, "block 9,3"), (24, 1030, 300, "block 2,42")],
)
def test_strip_decoder_names_the_block(height, width, bad, name):
    # every block is repeated except number bad in stream order, which
    # decodes index 49 + 3 = 52 > 51; strips start mid-row and mid-plane,
    # and both decoders must name the block by its place in the plane
    blocks = -(-height // 8) * -(-width // 8)
    repeated = format(0, "06b") + "1"
    over = format(49, "06b") + "0" + format(2, "06b") + "11" + "00" * 63
    stream = bits_to_bytes(repeated * bad + over + repeated * (blocks - bad - 1))
    for decode in (walked_plane, decode_plane):
        with pytest.raises(CorruptStreamError, match=name):
            decode(stream, height, width, 5)


def test_block_errors_name_their_first_bit():
    # a block error ends with the block's first bit, whichever check fails, even once the
    # deltas' end is known: block 0,1 follows block 0,0's 6 + 1 + 6 + 64 bits, at bit 77
    first = format(0, "06b") + "0" + format(1, "06b") + "01" * 32
    for second, error, message in [
        (format(63, "06b") + "1", CorruptStreamError, "block 0,1: block minimum 63 exceeds"),
        (format(49, "06b") + "0" + format(2, "06b") + "11" * 64, CorruptStreamError,
         "block 0,1 decodes an index above limit 51"),
        (format(0, "06b") + "0" + format(51, "06b") + "0" * 8, TruncatedStreamError,
         "block 0,1: needed 384 bits"),
    ]:
        with pytest.raises(error, match=rf"^{message}.* \(bit 77\)$"):
            decode_plane(bits_to_bytes(first + second), 8, 16, 5)
    # on a strip-coded plane, whose fast path gives up so the per-block loop raises
    repeated = format(0, "06b") + "1"
    over = format(49, "06b") + "0" + format(2, "06b") + "11" + "00" * 63
    stream = bits_to_bytes(repeated * 70 + over + repeated * 57)
    with pytest.raises(CorruptStreamError, match=r"^block 0,70 decodes .* \(bit 490\)$"):
        decode_plane(stream, 8, 1024, 5)


@pytest.mark.parametrize("coding", ["2810c8", "241b70", "28382880"])
def test_non_canonical_codings_decode_alike(coding):
    # the README's format section: at k = 5 the 2x2 block [[10, 11], [12, 11]] decodes alike
    # as encoded, with min_index 9 and max_delta 3, and with max_delta 7 (3-bit deltas)
    assert decode_plane(bytes.fromhex(coding), 2, 2, 5).tolist() == [[10, 11], [12, 11]]


def test_non_canonical_strip_plane_decodes_like_the_block_loop():
    # every block of a 64-block, strip-coded 8x512 plane is written with min_index one below
    # its smallest index, so with a max_delta one above its spread, constant blocks too.
    # The strip path decodes it as the per-block loop does, and block_fields reports the
    # min and max_delta that the stream carries
    rng = np.random.default_rng(65)
    plane = rng.integers(1, 52, (8, 512)).astype(np.uint8)
    plane[:, :128] = plane[0, 0]
    acc = nbits = 0
    heads = []
    for x in range(0, 512, 8):
        cells = plane[:, x : x + 8].ravel().tolist()
        lo = min(cells) - 1
        spread = max(cells) - lo
        dw = spread.bit_length()
        acc = acc << 13 | lo << 7 | spread  # min_index, repetition bit 0, max_delta
        for index in cells:
            acc = acc << dw | (index - lo)
        nbits += 13 + 64 * dw
        heads.append((lo, spread, dw, 13 + 64 * dw))
    stream = (acc << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")

    def walk(*args):
        raise AssertionError("the strip-coded plane fell back to the per-block loop")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "_decode_blocks", walk)
        assert np.array_equal(decode_plane(stream, 8, 512, 5), plane)
        fields = block_fields(stream, 8, 512, 5)
    assert np.array_equal(walked_plane(stream, 8, 512, 5), plane)
    assert list(zip(*(column.tolist() for column in fields[3:]))) == heads


@pytest.mark.parametrize("k", [4, 129, 5.0])
def test_codec_entry_points_validate_the_modulus(k):
    samples = np.zeros((8, 8), dtype=np.uint8)
    stream = encode_indices(samples)
    with pytest.raises(ModulusError):
        bitstream.append_samples(bytearray(), samples, k)
    with pytest.raises(ModulusError):
        decode_plane(stream, 8, 8, k)
    with pytest.raises(ModulusError):
        block_fields(stream, 8, 8, k)


def test_short_stream_rejected_before_any_block():
    # 4 blocks need at least 4 * 7 = 28 bits; 3 bytes hold only 24
    with pytest.raises(TruncatedStreamError, match="at least 28 bits"):
        decode_plane(bytes(3), 16, 16)


# strip-coded planes: one block row or column of 65 blocks, edge blocks on both sides,
# and 129 blocks to a block row with edge blocks
STRIP_SHAPES = [(8, 520), (520, 8), (61, 77), (17, 1030), (20, 1030)]


def plane_heads(plane: np.ndarray, k: int):
    """(min, max_delta, delta width, deltas start bit) of every block, and the end bit of the
    plane's stream, from the plane alone: no decoder is involved."""
    w = (255 // k).bit_length()
    heads, pos = [], 0
    for y in range(0, plane.shape[0], 8):
        for x in range(0, plane.shape[1], 8):
            block = plane[y : y + 8, x : x + 8]
            lo, spread = int(block.min()), int(block.max() - block.min())
            dw = spread.bit_length()
            start = pos + w + 1 + w * (spread > 0)
            heads.append((lo, spread, dw, start))
            pos = start + block.size * dw
    return heads, pos


def chased(stream: bytes, height: int, width: int, k: int):
    """plane_heads' heads and end bit from the fast header pass."""
    w = (255 // k).bit_length()
    starts, lows, spreads = bitstream._chase(stream, height, width, 255 // k)
    fields = zip(lows.tolist(), spreads.tolist(), starts[:-1].tolist())
    heads = [(lo, s, s.bit_length(), start + w + 1 + w * (s > 0)) for lo, s, start in fields]
    return heads, int(starts[-1])


def test_chase_matches_scan():
    # over all moduli, the fast pass must find exactly the heads and end bit of the
    # plane's blocks; a repeated last block puts the last header in the final byte or
    # two, where the pass reads a zero-padded window. On mutants, decode_plane must give
    # the pixels, or the error class and message, of the per-block loop alone
    rng = np.random.default_rng(31)
    tails, seen = set(), set()
    for k in MODULI:
        top = 255 // k
        w = top.bit_length()
        for i, (height, width) in enumerate(STRIP_SHAPES):
            span = int(rng.integers(0, top + 1))
            lo = int(rng.integers(0, top - span + 1))
            plane = (lo + rng.integers(0, span + 1, (height, width))).astype(np.uint8)
            if (k + i) % 3:
                plane[(height - 1) // 8 * 8 :, (width - 1) // 8 * 8 :] = lo
            stream = encode_indices(plane, k)
            heads, end = chased(stream, height, width, k)
            assert (heads, end) == plane_heads(plane, k)
            if not heads[-1][1]:
                tails.add(len(stream) - (end - w - 1) // 8)  # bytes from the last header on
            if i != k % 5:
                continue
            mutants = [stream[: int(rng.integers(0, len(stream)))], stream + bytes(1)]
            for _ in range(3):
                data = bytearray(stream)
                for _ in range(int(rng.integers(1, 4))):
                    data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
                mutants.append(bytes(data))
            for data in mutants:
                expected = outcome(walked_plane, data, height, width, k)
                decoded = outcome(decode_plane, data, height, width, k)
                if isinstance(expected, tuple):
                    assert decoded == expected
                else:
                    assert np.array_equal(decoded, expected)
                seen.add(expected[0] if isinstance(expected, tuple) else np.ndarray)
    assert tails == {1, 2}
    assert seen == {np.ndarray, CorruptStreamError, TruncatedStreamError}


REPEATED = format(0, "06b") + "1"
OVER_LIMIT = format(49, "06b") + "0" + format(2, "06b") + "11" + "00" * 63  # decodes 52 > 51


@pytest.mark.parametrize(
    "bad, message",
    [
        (format(63, "06b") + "1", "block minimum 63 exceeds index limit 51"),
        (format(10, "06b") + "0" + format(0, "06b"), "zero max_delta is not canonical"),
        (format(50, "06b") + "0" + format(5, "06b") + "000" * 64, r"block range 50\+5 exceeds"),
    ],
)
def test_failed_check_falls_back_to_scan(bad, message):
    # block 70 of an 8x1024 plane has a bad header of a length the pass steps over, so
    # the pass ends at the stream's end and only its vectorised checks send the plane to
    # the per-block loop, which raises the error and names the block
    blocks = [REPEATED] * 128
    blocks[70] = bad
    stream = bits_to_bytes("".join(blocks))
    assert bitstream._chase(stream, 8, 1024, 51) is None
    with pytest.raises(CorruptStreamError, match="^block 0,70: .*" + message):
        decode_plane(stream, 8, 1024, 5)
    # block 3 decodes above the limit: the loop meets it first and raises that
    blocks[3] = OVER_LIMIT
    stream = bits_to_bytes("".join(blocks))
    with pytest.raises(CorruptStreamError, match="block 0,3 decodes an index above limit 51"):
        decode_plane(stream, 8, 1024, 5)


def test_pass_overrun_falls_back_to_scan():
    # blocks 60 and 64 each hold 64 one-bit deltas. Cutting the stream inside the last
    # block's deltas leaves the pass's end past the stream's; raising block 60's max_delta
    # from 1 to 51 makes the pass jump 384 delta bits past it. The per-block loop names both
    varied = format(0, "06b") + "0" + format(1, "06b") + "01" * 32
    blocks = [REPEATED] * 65
    blocks[60] = blocks[64] = varied
    stream = bits_to_bytes("".join(blocks))
    blocks[60] = varied.replace(format(1, "06b"), format(51, "06b"), 1)
    corrupted = bits_to_bytes("".join(blocks))
    for data, message in [
        (stream[:-2], "block 0,64: needed 64 bits, only 53"),
        (corrupted, "block 0,60: needed 384 bits"),
    ]:
        assert bitstream._chase(data, 8, 520, 51) is None
        with pytest.raises(TruncatedStreamError, match=message):
            decode_plane(data, 8, 520, 5)


@pytest.mark.parametrize("k", [3, 5, 127])
def test_valid_strips_never_scan(k):
    # valid strip-coded planes, their last header in the final byte, decode by the
    # fast path alone and never reach the per-block loop; with one byte more, they
    # are rejected from the strips' end bit, still without the per-block loop
    def walk(*args):
        raise AssertionError("a valid strip-coded plane fell back to the per-block loop")

    rng = np.random.default_rng(k)
    for height, width in STRIP_SHAPES[:3]:
        plane = rng.integers(0, 255 // k + 1, (height, width)).astype(np.uint8)
        plane[(height - 1) // 8 * 8 :, (width - 1) // 8 * 8 :] = plane[-1, -1]
        stream = encode_indices(plane, k)
        message = f"^stream is {len(stream) + 1} bytes but its blocks need {len(stream)}$"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "_decode_blocks", walk)
            assert np.array_equal(decode_plane(stream, height, width, k), plane)
            for extra in (b"\x00", b"\xff"):
                with pytest.raises(CorruptStreamError, match=message):
                    decode_plane(stream + extra, height, width, k)


def test_only_block_loop_raises_stream_errors():
    # the header pass and the strip decoder give up and raise nothing: on mutants of
    # strip-coded planes every error comes from the per-block loop, or from the size bound
    # and trailing-bytes check of _decode, the decode behind decode_plane and block_fields
    rng = np.random.default_rng(37)
    raisers, seen = set(), set()
    for k in (3, 5, 127):
        for height, width in STRIP_SHAPES:
            top = 255 // k
            plane = rng.integers(max(top - 3, 0), top + 1, (height, width)).astype(np.uint8)
            plane[: height // 2] = plane[0, 0]
            stream = encode_indices(plane, k)
            mutants = [stream[: int(rng.integers(0, len(stream)))] for _ in range(3)]
            mutants += [stream + bytes(1), stream[:-1]]
            for _ in range(8):
                data = bytearray(stream)
                data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
                mutants.append(bytes(data))
            for data in mutants:
                try:
                    decode_plane(data, height, width, k)
                except FmmError as exc:
                    raisers.add(traceback.extract_tb(exc.__traceback__)[-1].name)
                    seen.add(type(exc))
    assert raisers == {"_decode_blocks", "_decode"}
    assert seen == {CorruptStreamError, TruncatedStreamError}


def test_large_corrupt_plane_rejected_in_bounded_time_and_memory():
    # a truncated stream of a 1024x1024 noise plane fails the header pass, and the
    # per-block loop then finds the truncation in its last block
    rng = np.random.default_rng(41)
    plane = rng.integers(0, 52, (1024, 1024)).astype(np.uint8)
    data = encode_indices(plane)[:-3]
    started = time.perf_counter()
    with pytest.raises(TruncatedStreamError, match="block 127,127: "):
        decode_plane(data, 1024, 1024, 5)
    assert time.perf_counter() - started < 1.0
    tracemalloc.start()  # timed apart, as tracing slows the loop several times over
    try:
        with pytest.raises(TruncatedStreamError):
            decode_plane(data, 1024, 1024, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * plane.size


def test_pack_matches_reference():
    # _pack joins the cells' width-bit binary strings, and _unpack spreads them back into
    # byte lanes, for every cell count and width
    rng = np.random.default_rng(47)
    for cells in range(1, 65):
        for width in range(1, 8):
            draws = rng.integers(0, 1 << width, (3, cells)).tolist() + [[(1 << width) - 1] * cells]
            for values in draws:
                lanes = int.from_bytes(bytes(values), "big")
                packed = int("".join(format(v, f"0{width}b") for v in values), 2)
                assert bitstream._pack(lanes, cells, width) == packed
                assert bitstream._unpack(packed, cells, width) == lanes


def test_row_unpack_matches_unpack():
    # each uint64 holds a block row's 8 fields in its top 8 * dw bits above random bits;
    # the numpy unpack must spread them into byte lanes as _unpack does, for every width
    rng = np.random.default_rng(43)
    widths = np.repeat(np.arange(8, dtype=np.uint8), 40)
    rows = rng.integers(0, 2**64, (3, len(widths)), dtype=np.uint64)
    expected = [
        [bitstream._unpack(int(f) >> (64 - 8 * int(dw)), 8, int(dw)) for f, dw in zip(r, widths)]
        for r in rows
    ]
    assert bitstream._unpack_rows(rows.copy(), widths).tolist() == expected


def test_row_pack_matches_pack():
    # each uint64 holds 8 byte lanes of dw-bit values; the numpy row pack must squeeze its
    # first c lanes as _pack does, for every width and column count, on random lanes and
    # on lanes of all ones
    rng = np.random.default_rng(53)
    widths, cols = np.meshgrid(np.arange(8, dtype=np.uint8), np.arange(1, 9), indexing="ij")
    widths, cols = np.repeat(widths.ravel(), 4), np.repeat(cols.ravel(), 4)
    top = (1 << widths.astype(np.int64)) - 1
    lanes = rng.integers(0, 256, (len(widths), 8)) & top[:, None]
    lanes[::4] = top[::4, None]
    words = np.frombuffer(lanes.astype(np.uint8).tobytes(), dtype=">u8").astype(np.uint64)
    expected = [
        bitstream._pack(int.from_bytes(bytes(row[:c]), "big"), c, dw)
        for row, c, dw in zip(lanes.tolist(), cols.tolist(), widths.tolist())
    ]
    assert bitstream._pack_rows(words, widths, cols).tolist() == expected


@pytest.mark.parametrize("strip_blocks, encoding, decoding", [(64, 1, 4), (16, 4, 4), (8, 8, 8)])
def test_strip_sizes_follow_strip_blocks(strip_blocks, encoding, decoding):
    # both directions read STRIP_BLOCKS when they run, so setting it moves the encoder's
    # strips of 8 * STRIP_BLOCKS blocks, which the header pass walks too, and the decoding
    # strips alike, save that decoding strips take a quarter of the plane's blocks where
    # that is fewer
    plane = np.random.default_rng(3).integers(0, 52, (64, 512)).astype(np.uint8)  # 512 blocks
    expected = encode_indices(plane)
    real, strips = bitstream._strips, []

    def counted(*args):
        strips.append(list(real(*args)))
        return strips[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
        patch.setattr(bitstream, "_strips", counted)
        stream = encode_indices(plane)
        assert np.array_equal(decode_plane(stream, 64, 512), plane)
    assert stream == expected
    assert [len(each) for each in strips] == [encoding, encoding, decoding]


def edge_plane(height: int, width: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Constant-top blocks but for the last block column and, if the last block row is short,
    its odd block columns: those span lo..top, a spread of 2^(W-1), so their delta width is W
    and each is followed by the header of a constant-top block, whose first W bits read top."""
    top = 255 // k
    lo = top - (1 << (top.bit_length() - 1))
    plane = np.full((height, width), top, dtype=np.uint8)
    grid_rows, grid_cols = -(-height // 8), -(-width // 8)
    for by in range(grid_rows):
        for bx in range(grid_cols):
            if bx == grid_cols - 1 or (by == grid_rows - 1 and height % 8 and bx % 2):
                block = plane[by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8]
                block[...] = rng.choice([lo, top], block.shape)
                block[0, 0], block[-1, -1] = lo, top
    return plane


def junk_over_limit(stream: bytes, plane: np.ndarray, k: int) -> bool:
    """Whether a lane the strip decoder reads past an edge block's columns or rows, from the
    bits that follow the block's row, would decode above the index limit."""
    heads, _ = plane_heads(plane, k)
    bits = "".join(format(byte, "08b") for byte in stream) + "0" * 512
    height, width = plane.shape
    grid_cols = -(-width // 8)
    for i, (lo, _, dw, start) in enumerate(heads):
        rows, cols = min(8, height - i // grid_cols * 8), min(8, width - i % grid_cols * 8)
        for y in range(8):
            for x in range(cols if y < rows else 0, 8):
                at = start + (y * cols + x) * dw
                if dw and lo + int(bits[at : at + dw], 2) > 255 // k:
                    return True
    return False


@pytest.mark.parametrize(
    "height, width, k", [(9, 4100, 5), (3, 2060, 3), (16, 321, 3), (18, 523, 9)]
)
def test_lane_decoder_agrees_with_block_walk(height, width, k):
    # the strip decoder reads each block row of 8 cells as one word, so lanes past an edge
    # block's columns or rows hold the bits that follow; built so those would decode above
    # the limit, valid streams must still decode, and on bit-flipped and truncated streams
    # it must give the block walk's pixels or its error class and message. Block rows of
    # 513 and 258 blocks make decoding strips start mid-row, and the 16x321 plane ends in a
    # one-column block of 7-bit deltas whose rows read past the end of the stream
    rng = np.random.default_rng(height * width)
    plane = edge_plane(height, width, k, rng)
    stream = encode_indices(plane, k)
    assert junk_over_limit(stream, plane, k)
    if width % 8 == 1 and height % 8 == 0:
        _, _, dw, start = plane_heads(plane, k)[0][-1]
        assert dw == 7 and start + 7 * dw + 8 * dw > 8 * len(stream)
    assert np.array_equal(decode_plane(stream, height, width, k), plane)
    mutants = [stream[: int(rng.integers(0, len(stream)))] for _ in range(4)]
    for _ in range(16):
        data = bytearray(stream)
        for _ in range(int(rng.integers(1, 4))):
            data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
        mutants.append(bytes(data))
    for data in [stream, *mutants]:
        walked = outcome(walked_plane, data, height, width, k)
        decoded = outcome(decode_plane, data, height, width, k)
        if isinstance(walked, tuple):
            assert decoded == walked
        else:
            assert np.array_equal(decoded, walked)


def test_strip_words_reach_the_farthest_row():
    # the strip decoder reads all 8 rows of every block, so a bottom-edge block of one row
    # has rows 1 to 7 read past its end; at k = 3 a full-spread 8-column block has 56-bit
    # rows, and its row 7 starts 6 * 56 bits past its end. A 9x256 plane decodes in strips
    # of 16 blocks, the last two along its one-row block row, whose blocks all spread over
    # 0..85; a varying number of repeated blocks before its last block shifts where that
    # row lands, up to the 6th word past the words that hold the strip's bytes
    def walk(*args):
        raise AssertionError("a valid strip-coded plane fell back to the per-block loop")

    rng = np.random.default_rng(71)
    reaches = set()
    for repeated in range(16):
        plane = rng.integers(0, 86, (9, 256)).astype(np.uint8)
        plane[8] = rng.choice([0, 85], 256)
        plane[8, ::8], plane[8, 7::8] = 0, 85
        plane[8, 256 - 8 * (repeated + 1) : -8] = 85
        stream = encode_indices(plane, 3)
        heads, end = plane_heads(plane, 3)
        _, spread, _, deltas = heads[48]  # the last strip's first block
        origin = deltas - 8 - 7 * (spread > 0) >> 3
        size = (end + 7 >> 3) - origin
        row_7 = heads[-1][3] + 7 * 8 * heads[-1][2] - 8 * origin
        reaches.add((row_7 >> 6) - (size + 7 >> 3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "_decode_blocks", walk)
            assert np.array_equal(decode_plane(stream, 9, 256, 3), plane)
    assert max(reaches) == 5


# The strip encoder that the row-word encoder replaced, kept verbatim as the oracle for
# test_strip_encoder_matches_oracle: it is fast enough for planes the string reference is not.
def _encode_strip(
    strip: np.ndarray, w: int, out: bytearray, acc: int, nbits: int
) -> tuple[int, int]:
    """Append the blocks of a strip to out, all at once; returns the new carry.

    Each block becomes a row of 3 + 64 fields (min, repetition, max_delta,
    deltas) with a value and a width. Edge padding keeps each block's min
    and max; a cell outside an edge block and every delta of a repeated
    block gets width and value 0, so the nonzero widths spell the block
    grammar. Every field is added into the 16-bit window at the byte where
    it starts, and each byte is the high half of its own window joined
    with the low half of the one before.
    """
    rows, width = strip.shape
    grid_rows, grid_cols = _grid(rows, width)
    grid = (grid_rows, BLOCK_SIZE, grid_cols, BLOCK_SIZE)
    if rows % BLOCK_SIZE or width % BLOCK_SIZE:
        strip = np.pad(strip, ((0, -rows % BLOCK_SIZE), (0, -width % BLOCK_SIZE)), mode="edge")
    cells = strip.reshape(grid).swapaxes(1, 2).reshape(-1, _CELLS)
    lo = cells.min(axis=1)
    spread = cells.max(axis=1) - lo
    values = np.empty((len(cells), 3 + _CELLS), dtype=np.uint16)
    values[:, 0] = lo
    values[:, 1] = spread == 0
    values[:, 2] = spread
    np.subtract(cells, lo[:, None], out=values[:, 3:])
    widths = np.empty(values.shape, dtype=np.uint8)
    widths[:, :2] = w, 1
    widths[:, 2] = np.where(spread, w, 0)
    widths[:, 3:] = _BIT_LENGTH[spread, None]
    if strip.shape != (rows, width):
        inside = (np.arange(len(strip)) < rows)[:, None] & (np.arange(strip.shape[1]) < width)
        inside = inside.reshape(grid).swapaxes(1, 2).reshape(-1, _CELLS)
        values[:, 3:] *= inside
        widths[:, 3:] *= inside
    values, widths = values.ravel(), widths.ravel()
    starts = np.zeros(len(widths) + 1, dtype=np.int64)
    starts[0] = nbits
    starts[1:] = widths
    np.cumsum(starts, out=starts)
    starts, total = starts[:-1], int(starts[-1])
    shifts = starts.astype(np.uint8)
    shifts &= 7
    shifts += widths
    np.subtract(16, shifts, out=shifts)
    values <<= shifts
    starts >>= 3
    # the fields in one window have disjoint bits, so their sum is their OR
    sums = np.zeros((total >> 3) + 1, dtype=np.uint16)
    np.add.at(sums, starts, values)
    packed = (sums >> 8).astype(np.uint8)
    packed[1:] |= sums[:-1].astype(np.uint8)
    packed[0] |= acc << (8 - nbits)
    out += packed[: total >> 3].data
    return int(packed[-1]) >> (8 - (total & 7)), total & 7


def oracle_plane(plane: np.ndarray, k: int) -> bytes:
    """The stream of a plane from _encode_strip above, in strips of 64 blocks."""
    w = (255 // k).bit_length()
    out = bytearray()
    acc = nbits = 0
    for strip in bitstream._strips(*plane.shape, 64):
        acc, nbits = _encode_strip(plane[strip], w, out, acc, nbits)
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def photo_plane(k: int, rng: np.random.Generator) -> np.ndarray:
    """Index plane of a 512x512 smooth image whose noise grows from none at its left edge,
    so repeated blocks sit next to mixed ones of every delta width."""
    y, x = np.mgrid[0:512, 0:512]
    smooth = 128 + 90 * np.sin(x / 41 + rng.uniform(0, 6)) * np.cos(y / 57)
    noisy = smooth + rng.normal(0, 1, smooth.shape) * np.linspace(0, 40, 512)
    samples = core.quantize_plane(np.clip(np.rint(noisy), 0, 255).astype(np.uint8), k)
    return samples // k


@pytest.mark.parametrize("k", [3, 5, 127])
def test_strip_encoder_matches_oracle(k):
    # the row-word encoder writes the old strip encoder's bytes on every strip shape, on
    # photo-like planes and on 1024x1024 noise; block rows of 513 blocks split strips
    # mid-row, and 16-block strips carry a partial byte across many strip ends
    rng = np.random.default_rng(k)
    top = 255 // k
    shapes = STRIP_SHAPES + [(9, 4100), (20, 4100)]
    planes = [rng.integers(0, top + 1, shape).astype(np.uint8) for shape in shapes]
    planes += [photo_plane(k, rng) for _ in range(2)]
    for plane in planes[::2]:
        plane[: plane.shape[0] // 2] = plane[0, 0]  # repeated blocks next to mixed ones
    for plane in planes:
        expected = oracle_plane(plane, k)
        assert encode_indices(plane, k) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "STRIP_BLOCKS", 2)
            assert encode_indices(plane, k) == expected
    noise = rng.integers(0, top + 1, (1024, 1024)).astype(np.uint8)
    assert encode_indices(noise, k) == oracle_plane(noise, k)


# The header pass and strip decoder that the windowed pass and the per-plane strip operands
# replaced, kept verbatim as the oracle of the decoder tests below.
def _chase(
    stream: bytes | memoryview, height: int, width: int, top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Checked headers of a whole plane in one pass: (starts, mins, max_deltas), or None.

    Each step goes from one block's repetition bit to the next block's by a
    table indexed by that bit and max_delta (one table per cell count), reading
    the final byte zero-padded. numpy then reads every header at once and makes
    _decode_blocks' header checks on them. starts holds each block's first bit
    and, last, the plane's end; a repeated block's max_delta reads 0. None means
    the pass ran past the stream or a check failed: only _decode_blocks defines
    which error that is. Bytes past the blocks are left to decode_plane.
    """
    w = top.bit_length()
    low, shift = (2 << w) - 1, 15 - w
    reps = array("q")
    append = reps.append
    q = w  # the first block's repetition bit
    for rows, count in ((BLOCK_SIZE, height // BLOCK_SIZE), (height % BLOCK_SIZE, 1)):
        cells = _cells(rows, width)
        tables = {n: _advance(w, n) for n in set(cells)}
        row = [tables[n] for n in cells]
        for _ in range(count):
            for table in row:
                append(q)
                i = q >> 3
                try:
                    window = stream[i] << 8 | stream[i + 1]
                except IndexError:
                    if i >= len(stream):
                        return None
                    window = stream[i] << 8
                q += table[window >> (shift - (q & 7)) & low]
    if (q - w + 7) >> 3 > len(stream):
        return None
    append(q)
    starts = np.frombuffer(reps, dtype=np.int64)
    starts -= w
    # a header is at most 2 * 7 + 1 bits: from any bit offset it lies in 3 bytes; bytes
    # past the end read as the last one, and only bits the end check rejects come from them
    at = starts[:-1] >> 3
    data = np.frombuffer(stream, dtype=np.uint8)
    head = data[at].astype(np.int32)
    for _ in range(2):
        at += 1
        head <<= 8
        head |= data.take(at, mode="clip")
    offset = starts[:-1].astype(np.uint8)
    offset &= 7
    head >>= np.subtract(23 - 2 * w, offset, out=offset)
    varied = (head & (1 << w)) == 0
    spreads = head.astype(np.uint8)
    spreads &= (1 << w) - 1
    spreads *= varied
    head >>= w + 1
    lows = head.astype(np.uint8)
    lows &= (1 << w) - 1
    if (varied & (spreads == 0)).any() or (lows + spreads > top).any():
        return None
    return starts, lows, spreads


def _decode_strips(
    stream: bytes | memoryview,
    chased: tuple[np.ndarray, np.ndarray, np.ndarray],
    plane: np.ndarray,
    top: int,
) -> bool:
    """Decode a plane's strips from _chase's headers; False, the plane part written, if an
    index decodes above top."""
    w = top.bit_length()
    starts, lows, spreads = chased
    pos = first = 0
    for ys, xs in _strips(*plane.shape, 4 * STRIP_BLOCKS):
        out = plane[ys, xs]
        rows, width = out.shape
        grid_rows, grid_cols = grid = _grid(rows, width)
        count = grid_rows * grid_cols
        end = int(starts[first + count])
        lo, spread = lows[first : first + count], spreads[first : first + count]
        widths = _BIT_LENGTH[spread].reshape(grid)
        origin = pos & ~7
        deltas = np.where(spread, 2 * w + 1 - origin, w + 1 - origin)
        deltas += starts[first : first + count]
        cols = np.minimum(width - np.arange(0, width, BLOCK_SIZE), BLOCK_SIZE)
        # row y of a block of c columns starts at bit deltas + y * c * dw
        at = np.arange(BLOCK_SIZE, dtype=np.int64)[:, None, None] * (widths * cols)
        at += deltas.reshape(grid)
        data = stream[pos >> 3 : (end + 7) >> 3]
        # whole words and 8 more, as rows past an edge block's end read up to 6 * 56 bits on
        pad = bytes(72 - len(data) % 8)
        words = np.frombuffer(b"".join((data, pad)), dtype=">u8").astype(np.uint64)
        i = at >> 6
        bits = at.view(np.uint64)
        bits &= 63
        fields = words.take(i)
        fields <<= bits
        tail = words[1:].take(i)
        tail >>= np.subtract(np.uint64(64), bits, out=bits)  # to 0 where bits is 64
        fields |= tail
        del i, tail, at, bits, words  # before the unpack makes its temporaries
        _unpack_rows(fields, widths)
        fields += lo.reshape(grid).astype(np.uint64) * np.uint64(_ONES[BLOCK_SIZE])
        # the lanes as bytes, lane 0 first on any host, in the strip's pixel rows
        cells = np.empty((grid_rows, BLOCK_SIZE, grid_cols * BLOCK_SIZE), dtype=np.uint8)
        cells.view(">u8").transpose(1, 0, 2)[...] = fields
        out[:] = cells.reshape(grid_rows * BLOCK_SIZE, -1)[:rows, :width]
        del fields, cells  # before the next strip makes its own
        if out.max() > top:
            return False
        pos, first = end, first + count
    return True


def decoded(chase, strips, stream: bytes, height: int, width: int, k: int):
    """(starts, lows, spreads) of a header pass, or None, and then the plane its strip decoder
    writes, or False if that gives up or returns an end bit other than the pass's."""
    heads = chase(stream, height, width, 255 // k)
    if heads is None:
        return None, None
    plane = np.zeros((height, width), dtype=np.uint8)
    end = strips(stream, heads, plane, 255 // k)  # which must leave the headers as they are
    if end is True:  # the oracle's strips return True, the decoder's the end bit or None
        end = int(heads[0][-1])
    return heads, end == int(heads[0][-1]) and plane


def oracle_decodes(stream: bytes, height: int, width: int, k: int) -> bool:
    """Whether the oracle decodes the stream, after checking that the decoder agrees."""
    expected, plane = decoded(_chase, _decode_strips, stream, height, width, k)
    heads, got = decoded(bitstream._chase, bitstream._decode_strips, stream, height, width, k)
    assert (heads is None) == (expected is None)
    if expected is not None:
        assert all(np.array_equal(a, b) for a, b in zip(heads, expected))
        assert (got is False) == (plane is False)
        assert plane is False or np.array_equal(got, plane)
    return plane is not None and plane is not False


@pytest.mark.parametrize("k", [3, 5, 127])
def test_decoder_matches_oracle(k):
    # the windowed header pass finds the oracle's headers and the strip decoder writes its
    # planes on every strip shape, block rows of 513 blocks, photo-like planes and 1024x1024
    # noise; on streams one byte short, cut to half or with a bit flipped in a header, the
    # pass gives up, or the strips do, exactly when the oracle's do
    rng = np.random.default_rng(k + 59)
    top = 255 // k
    w = top.bit_length()
    shapes = STRIP_SHAPES + [(9, 4100), (20, 4100)]
    planes = [rng.integers(0, top + 1, shape).astype(np.uint8) for shape in shapes]
    planes += [photo_plane(k, rng) for _ in range(2)]
    for plane in planes[::2]:
        plane[: plane.shape[0] // 2] = plane[0, 0]  # repeated blocks next to mixed ones
    planes.append(rng.integers(0, top + 1, (1024, 1024)).astype(np.uint8))
    outcomes = set()
    for plane in planes:
        stream = encode_indices(plane, k)
        assert oracle_decodes(stream, *plane.shape, k)
        heads, _ = plane_heads(plane, k)
        mutants = [stream[:-1], stream[: len(stream) // 2]]
        for _ in range(4):
            _, spread, _, start = heads[int(rng.integers(0, len(heads)))]
            bit = start - int(rng.integers(1, w + 1 + w * (spread > 0) + 1))
            data = bytearray(stream)
            data[bit >> 3] ^= 0x80 >> (bit & 7)
            mutants.append(bytes(data))
        for data in mutants:
            outcomes.add(oracle_decodes(data, *plane.shape, k))
    assert outcomes == {False, True}


def test_chase_chunks_match_oracle():
    # with strips of a few blocks the pass builds windows for many chunks of two strips'
    # reach and must still find the oracle's starts; its last chunk ends on the stream's
    # final byte, whose window it reads zero-padded; and a stream cut inside the last
    # chunk makes it give up
    rng = np.random.default_rng(61)
    spans = rng.integers(1, 52, (65, 1)).repeat(8, axis=0)  # block rows of many lengths
    plane = (rng.integers(0, 52, (520, 24)) % spans).astype(np.uint8)
    stream = encode_indices(plane)
    expected = _chase(stream, 520, 24, 51)
    real, chunks = bitstream._windows, []

    def spied(data, start, stop):
        chunks.append((start, stop))
        return real(data, start, stop)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "_windows", spied)
        for strip_blocks in range(1, 9):
            patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
            chunks.clear()
            heads = bitstream._chase(stream, 520, 24, 51)
            assert all(np.array_equal(a, b) for a, b in zip(heads, expected))
            assert len(chunks) > (10 if strip_blocks == 1 else 1)
            assert chunks[-1][1] == len(stream)
            last = chunks[-1][0]
            for cut in {last + 1, (last + len(stream)) // 2, len(stream) - 1}:
                assert bitstream._chase(stream[:cut], 520, 24, 51) is None
                assert _chase(stream[:cut], 520, 24, 51) is None


def rewritten(stream: bytes, fields: list[tuple[int, int, Callable[[int], int]]]) -> bytes:
    """The stream with each (bit, size, change) field, size bits from that bit, replaced by
    change of its value."""
    bits, total = int.from_bytes(stream, "big"), 8 * len(stream)
    for at, size, change in fields:
        shift = total - at - size
        value = bits >> shift & ((1 << size) - 1)
        bits += (change(value) - value) << shift
    return bits.to_bytes(len(stream), "big")


@pytest.mark.parametrize("height, width, strip_blocks", [(520, 24, 2), (8, 16384, STRIP_BLOCKS)])
def test_fast_path_seams_match_block_loop(height, width, strip_blocks):
    # multi-chunk planes of both strip orientations: 520x24 in strips of whole block rows
    # (16-block strips, as STRIP_BLOCKS is 2 here) and one block row of 2,048 blocks in
    # runs of 512 along it
    seen = fast_path_seams(height, width, strip_blocks, 5, height * width + 67)
    assert seen == {np.ndarray, CorruptStreamError, TruncatedStreamError}


@pytest.mark.slow
@pytest.mark.parametrize("k", [3, 5, 127])
@pytest.mark.parametrize(
    "height, width, strip_blocks",
    [(520, 24, 2), (8, 16384, STRIP_BLOCKS), (16384, 8, STRIP_BLOCKS)],
)
def test_fast_path_seams_sweep(height, width, strip_blocks, k):
    # the long sweep of the test above: more seeds, every delta width of k = 3 and the
    # 2-bit fields of k = 127, and a plane of one block column in strips of 512 blocks
    seen = set()
    for seed in range(32):
        seen |= fast_path_seams(height, width, strip_blocks, k, seed)
    assert seen == {np.ndarray, CorruptStreamError, TruncatedStreamError}


def fast_path_seams(height: int, width: int, strip_blocks: int, k: int, seed: int) -> set:
    """Check mutants of a plane's stream at the fast path's seams; the outcomes seen.

    Mutants flip bits at and near the pass's chunk switches, the strips' first headers
    and the last block, cut the stream inside the last block, and recode a block there
    with min_index one lower or give it another max_delta, which the encoder never writes
    but both decoders accept where every index stays in range. decode_plane must give the
    per-block loop's pixels or its error class and message; and a mutant the loop accepts
    must decode with the loop patched out too, as the fast path gives up only on streams
    the loop rejects, so that a wrong chunk rebase cannot hide behind the fallback.
    """

    def walk(*args):
        raise AssertionError("an accepted stream fell back to the per-block loop")

    top = 255 // k
    w = top.bit_length()
    rng = np.random.default_rng(seed)
    grid = _grid(height, width)
    spans = rng.integers(1, top + 2, grid).repeat(8, axis=0).repeat(8, axis=1)[:height, :width]
    plane = (rng.integers(0, top + 1, (height, width)) % spans).astype(np.uint8)  # some repeated
    stream = encode_indices(plane, k)
    heads, end = plane_heads(plane, k)
    starts = [deltas - (w + 1) - w * (spread > 0) for _, spread, _, deltas in heads] + [end]
    real, chunks = bitstream._windows, []

    def spied(data, start, stop):
        chunks.append(start)
        return real(data, start, stop)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
        patch.setattr(bitstream, "_windows", spied)
        assert np.array_equal(decode_plane(stream, height, width, k), plane)
    assert len(chunks) > 1
    seams = [8 * byte for byte in chunks[1:]]
    for blocks in (8 * strip_blocks, min(8 * strip_blocks, -(-len(heads) // 4))):
        first = 0
        for ys, xs in _strips(height, width, blocks):
            seams.append(starts[first])
            rows, cols = _grid(ys.stop - ys.start, xs.stop - xs.start)
            first += rows * cols
    seams += starts[-2:]
    near = np.minimum(np.searchsorted(starts, seams, side="right") - 1, len(heads) - 1)
    mutants = [stream]
    for _ in range(16):
        bit = int(rng.choice(seams)) + int(rng.integers(-16, 17))
        bit = min(max(bit, 0), 8 * len(stream) - 1)
        data = bytearray(stream)
        data[bit >> 3] ^= 0x80 >> (bit & 7)
        mutants.append(bytes(data))
    mutants += [stream[: int(rng.integers(starts[-2] // 8, len(stream)))] for _ in range(2)]
    for i in rng.choice(near, 6).tolist():  # blocks that a seam falls in
        lo, spread, dw, deltas = heads[i]
        if not spread:
            fields = [(starts[i], w, lambda _: int(rng.integers(0, 1 << w)))]
        elif lo and (spread + 1).bit_length() == dw and rng.integers(0, 2):
            # the same pixels from min_index one lower: every delta and max_delta one higher
            cells = (starts[i + 1] - deltas) // dw
            fields = [(starts[i], w, lambda v: v - 1), (starts[i] + w + 1, w, lambda v: v + 1)]
            fields += [(deltas + j * dw, dw, lambda v: v + 1) for j in range(cells)]
        else:  # max_delta of the same delta width, so the same pixels, or any
            bounds = (1 << dw >> 1, 1 << dw) if rng.integers(0, 2) else (1, 1 << w)
            fields = [(starts[i] + w + 1, w, lambda _: int(rng.integers(*bounds)))]
        mutants.append(rewritten(stream, fields))
    seen = set()
    for data in mutants:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
            expected = outcome(walked_plane, data, height, width, k)
            decoded = outcome(decode_plane, data, height, width, k)
            if isinstance(expected, tuple):
                assert decoded == expected
                seen.add(expected[0])
                continue
            assert np.array_equal(decoded, expected)
            seen.add(np.ndarray)
            patch.setattr(bitstream, "_decode_blocks", walk)
            assert np.array_equal(decode_plane(data, height, width, k), expected)
    return seen
