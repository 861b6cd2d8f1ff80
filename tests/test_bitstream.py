import math
import re
import time
import traceback
from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fmmcodec import bitstream, container, core
from fmmcodec.bitstream import BLOCK_SIZE, STRIP_BLOCKS, _grid, _strips, block_fields, decode_plane
from fmmcodec.errors import CorruptStreamError, FmmError, ModulusError, TruncatedStreamError
from fmmcodec.image import RasterImage

from golden import BLOCK_BITS, INDEX_BLOCK
from spec import (
    Decoded,
    Fault,
    bits_to_bytes,
    block_coding,
    reference_block_bits,
    reference_decode,
    reference_plane_bits,
    reference_stream,
)
from peaks import Peak
from spies import spy
from streams import decode_indices, encode_indices

MODULI = range(3, 128, 2)


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
        assert np.array_equal(decode_indices(stream, rows, cols, k), arr)

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
            out = decode_indices(encode_indices(arr, k), rows, cols, k)
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
        plane = decode_indices(stream, 3, 10)
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
        assert np.array_equal(decode_indices(stream, 8, 8), INDEX_BLOCK)

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
# blocks (the strip codec), most of them with partial edge blocks. Each
# larger plane is one encoding strip and four to six decoding strips;
# test_strip_encoder_matches_oracle checks encoding strips split along a
# block row and many strip ends against the string encoder.
geometries = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.integers(1, 9), st.integers(505, 560)),
    st.tuples(st.integers(505, 560), st.integers(1, 9)),
    st.tuples(st.integers(57, 75), st.integers(57, 75)),
    st.tuples(st.integers(9, 20), st.integers(1025, 1100)),
)


def drawn_plane(shape: tuple[int, int], span: int, seed: int, k: int) -> np.ndarray:
    """An index plane whose indices lie up to span above a random minimum, its top half all
    that minimum where seed is odd, so repeated blocks sit next to mixed ones. Span 0 gives
    a constant plane; random planes draw their range too, so every delta width occurs."""
    rng = np.random.default_rng(seed)
    span = min(span, 255 // k)
    lo = int(rng.integers(0, 255 // k - span + 1))
    plane = (lo + rng.integers(0, span + 1, shape)).astype(np.uint8)
    if seed % 2:
        plane[: shape[0] // 2] = lo
    return plane


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
    plane = drawn_plane(shape, span, seed, k)
    stream = encode_indices(plane, k)
    assert stream == reference_stream(plane, k)
    assert np.array_equal(decode_indices(stream, *shape, k), plane)


def no_block_loop(*args):
    """A stand-in for _decode_blocks where the fast path must decode a stream by itself."""
    raise AssertionError("a strip-coded stream fell back to the per-block loop")


def outcome(decode, stream: bytes, height: int, width: int, k: int):
    """Decoded plane, or the class and message of the FmmError the decoder raised."""
    try:
        return decode(stream, height, width, k)
    except FmmError as exc:
        return type(exc), str(exc)


def named(result) -> str:
    """An outcome in words: its error's class and message or place, or its plane's shape."""
    if isinstance(result, tuple):
        return f"{result[0].__name__}: {', '.join(map(str, result[1:]))}"
    return f"a plane of shape {result.shape}"


def assert_same_outcome(got, expected) -> None:
    """Assert that two outcomes agree: equal planes, or equal errors, by class and message or
    by class and place. A failure names both, and the first sample where two planes of one
    shape differ."""
    if isinstance(got, tuple) or isinstance(expected, tuple):
        same, where = type(got) is type(expected) and got == expected, ""
    else:
        same, where = np.array_equal(got, expected), ""
        if not same and got.shape == expected.shape:
            where = f", first unlike at {np.argwhere(got != expected)[0].tolist()}"
    assert same, f"decoded {named(got)}, expected {named(expected)}{where}"


def flipped(stream: bytes, count: int, rng: np.random.Generator) -> list[bytes]:
    """count copies of stream, each with 1 to 3 random bits flipped."""
    mutants = []
    for _ in range(count):
        data = bytearray(stream)
        for _ in range(int(rng.integers(1, 4))):
            data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
        mutants.append(bytes(data))
    return mutants


def located(result):
    """An outcome with a block error's message cut to the spec's terms: the block, (row, col),
    and the bit that it names. The trailing-bytes message stays whole, and the size bound's
    is cut to None and None."""
    if not isinstance(result, tuple):
        return result
    place = re.fullmatch(r"block (\d+),(\d+)\b.* \(bit (\d+)\)", result[1])
    if place is None:
        return result if result[1].startswith("stream is ") else (result[0], None, None)
    row, col, bit = map(int, place.groups())
    return result[0], (row, col), bit


def spec_outcome(spec: Decoded | Fault, stream: bytes, k: int):
    """The spec's outcome of stream in located's terms: its plane times k, or its fault's
    class, block and first bit, or for trailing bytes the message its end bit gives."""
    if isinstance(spec, Decoded):
        return spec.plane * np.uint8(k)
    if spec.check == "trailing":
        return spec.error, f"stream is {len(stream)} bytes but its blocks need {spec.bit + 7 >> 3}"
    return spec[:3]


def decodes_like_spec(
    spec: Decoded | Fault, stream: bytes, height: int, width: int, k: int
) -> type:
    """Check decode_plane against the spec's outcome of stream; the kind of outcome."""
    got = located(outcome(decode_plane, stream, height, width, k))
    assert_same_outcome(got, spec_outcome(spec, stream, k))
    return spec.error if isinstance(spec, Fault) else np.ndarray


def follows_spec(stream: bytes, height: int, width: int, k: int) -> type:
    """Check decode_plane, block_fields and the header pass against the spec; the kind of
    outcome. A stream the spec accepts also decodes with the per-block loop patched out
    where the strip codec takes the plane, as the fast path gives up only on streams the
    loop rejects, so that a fault of the fast path cannot hide behind the fallback."""
    spec = chase_follows_spec(stream, height, width, k)
    kind = decodes_like_spec(spec, stream, height, width, k)
    fields = outcome(lambda *args: np.stack(block_fields(*args)[3:]), stream, height, width, k)
    if isinstance(spec, Fault):
        assert_same_outcome(located(fields), spec_outcome(spec, stream, k))
        return kind
    widths = [spread.bit_length() for spread in spec.spreads]
    assert_same_outcome(fields, np.array([spec.lows, spec.spreads, widths, np.diff(spec.starts)]))
    if len(spec.lows) >= bitstream.STRIP_BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "_decode_blocks", no_block_loop)
            assert np.array_equal(decode_plane(stream, height, width, k), spec.plane * np.uint8(k))
    return kind


def spec_mutants(plane: np.ndarray, k: int, rng: np.random.Generator) -> list[bytes]:
    """The string encoder's stream of an index plane and mutants of it: cut, one byte longer,
    with 1 to 3 bits flipped or a header bit flipped; with a block in another coding that
    decodes alike, its min_index lower and its max_delta larger, as in the README; and with
    that block's deltas 2 bits wide from min_index top - 2, one of them 3, above the limit."""
    top = 255 // k
    w = top.bit_length()
    bits = reference_plane_bits(plane, k)
    stream = bits_to_bytes(bits)
    mutants = [stream, stream + bytes(1), stream[: int(rng.integers(0, len(stream)))]]
    mutants += flipped(stream, 2, rng)
    heads = reference_decode(stream, *plane.shape, k)
    starts = heads.starts
    i = int(rng.integers(0, len(heads.lows)))
    low, spread = heads.lows[i], heads.spreads[i]
    bit = int(rng.integers(starts[i], starts[i] + w + 1 + w * (spread > 0)))
    mutants.append(bits_to_bytes(bits[:bit] + "10"[int(bits[bit])] + bits[bit + 1 :]))
    y, x = divmod(i, _grid(*plane.shape)[1])
    cells = plane[8 * y : 8 * y + 8, 8 * x : 8 * x + 8].ravel().tolist()
    lo = int(rng.integers(0, min(low, top - 1) + 1))  # below the limit, to leave max_delta room
    wider = int(rng.integers(max(low + spread - lo, 1), top - lo + 1))
    over = (top - 2 + rng.integers(0, 3, len(cells))).tolist()
    over[int(rng.integers(0, len(cells)))] = top + 1
    for coding in block_coding(cells, lo, wider, w), block_coding(over, top - 2, 2, w):
        mutants.append(bits_to_bytes(bits[: starts[i]] + coding + bits[starts[i + 1] :]))
    return mutants


@pytest.mark.parametrize("k", [3, 5, 127])
@given(
    shape=geometries,
    span=st.integers(min_value=0, max_value=85),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    strip_blocks=st.sampled_from([STRIP_BLOCKS, 2]),
)
@example(shape=(7, 9), span=85, seed=7, strip_blocks=STRIP_BLOCKS)
@example(shape=(8, 520), span=85, seed=1, strip_blocks=STRIP_BLOCKS)
@example(shape=(520, 8), span=85, seed=2, strip_blocks=2)
@example(shape=(17, 1030), span=85, seed=5, strip_blocks=2)
@example(shape=(5, 1030), span=85, seed=3, strip_blocks=STRIP_BLOCKS)
@example(shape=(1030, 5), span=85, seed=4, strip_blocks=2)
@settings(max_examples=8, deadline=None)
def test_decoders_follow_spec(k, shape, span, seed, strip_blocks):
    # decode_plane and block_fields against the spec on mutants of planes on both sides of
    # the STRIP_BLOCKS fork. With STRIP_BLOCKS at 2, a strip-coded plane's groups are 16
    # blocks, so the header pass builds windows for many chunks and guesses over many runs.
    # A 5x1030 plane is one edge block row and no full one, a 1030x5 plane one edge column
    plane = drawn_plane(shape, span, seed, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
        for data in spec_mutants(plane, k, np.random.default_rng(seed + 1)):
            follows_spec(data, *shape, k)


def test_strip_decoder_agrees_with_spec():
    # above STRIP_BLOCKS, decode_plane reads headers one by one but gathers
    # deltas a strip at a time; on valid, bit-flipped and truncated streams
    # it must give the spec's pixels or raise the class of its first fault,
    # naming its block and bit
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
        mutants = [stream, *flipped(stream, 30, rng)]
        mutants += [stream[: int(rng.integers(0, len(stream)))] for _ in range(5)]
        for data in mutants:
            spec = reference_decode(data, height, width, k)
            seen.add(decodes_like_spec(spec, data, height, width, k))
    assert seen == {np.ndarray, CorruptStreamError, TruncatedStreamError}


def test_strip_decoder_raises_in_block_order():
    # block 0,0 decodes index 49 + 3 = 52 > 51, then block 0,1 promises
    # 384 delta bits the stream does not hold; the spec meets block 0,0
    # first, so the strip decoder must raise its error, not the truncation
    first = format(49, "06b") + "0" + format(2, "06b") + "11" + "00" * 63
    second = format(0, "06b") + "0" + format(51, "06b") + "0" * 300
    stream = bits_to_bytes(first + second)
    assert 8 * len(stream) >= 64 * 7  # passes the size bound of 64 blocks
    assert reference_decode(stream, 8, 512, 5)[:3] == (CorruptStreamError, (0, 0), 0)
    with pytest.raises(CorruptStreamError, match="block 0,0"):
        decode_plane(stream, 8, 512, 5)


@pytest.mark.parametrize(
    "height, width, bad, name",
    [(8, 1024, 70, "block 0,70"), (80, 64, 75, "block 9,3"), (24, 1030, 300, "block 2,42")],
)
def test_strip_decoder_names_the_block(height, width, bad, name):
    # every block is repeated except number bad in stream order, which
    # decodes index 49 + 3 = 52 > 51; strips start mid-row and mid-plane,
    # and decode_plane must name the block by its place in the plane, as the spec does
    blocks = -(-height // 8) * -(-width // 8)
    repeated = format(0, "06b") + "1"
    over = format(49, "06b") + "0" + format(2, "06b") + "11" + "00" * 63
    stream = bits_to_bytes(repeated * bad + over + repeated * (blocks - bad - 1))
    spec = reference_decode(stream, height, width, 5)
    assert name == "block {},{}".format(*spec.block)
    assert decodes_like_spec(spec, stream, height, width, 5) is CorruptStreamError


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


@pytest.mark.parametrize(
    "stream, indices, bits",
    [
        (bytes.fromhex("2810c8"), [[10, 11], [12, 11]], 21),
        (bytes.fromhex("241b70"), [[10, 11], [12, 11]], 21),
        (bytes.fromhex("28382880"), [[10, 11], [12, 11]], 25),
        (bits_to_bytes(reference_block_bits(INDEX_BLOCK)), INDEX_BLOCK.tolist(), BLOCK_BITS),
    ],
    ids=["2810c8", "241b70", "28382880", "golden"],
)
def test_non_canonical_codings_decode_alike(stream, indices, bits):
    # the README's format section: at k = 5 the 2x2 block [[10, 11], [12, 11]] decodes alike
    # as encoded, with min_index 9 and max_delta 3, and with max_delta 7 (3-bit deltas); and
    # the golden 8x8 block's 269 bits. The spec reads each so, and both decoders follow it
    height, width = np.shape(indices)
    spec = reference_decode(stream, height, width, 5)
    assert spec.plane.tolist() == indices and spec.starts == [0, bits]
    assert follows_spec(stream, height, width, 5) is np.ndarray


def test_non_canonical_strip_plane_decodes_like_the_spec():
    # every block of a 64-block, strip-coded 8x512 plane is written with min_index one below
    # its smallest index, so with a max_delta one above its spread, constant blocks too.
    # The strip path decodes it by itself, as the spec does, and block_fields reports the
    # min and max_delta that the stream carries
    rng = np.random.default_rng(65)
    plane = rng.integers(1, 52, (8, 512)).astype(np.uint8)
    plane[:, :128] = plane[0, 0]
    blocks = [plane[:, x : x + 8].ravel().tolist() for x in range(0, 512, 8)]
    heads = [(min(cells) - 1, max(cells) - min(cells) + 1) for cells in blocks]
    stream = bits_to_bytes("".join(block_coding(c, *head, 6) for c, head in zip(blocks, heads)))
    assert follows_spec(stream, 8, 512, 5) is np.ndarray
    assert np.array_equal(decode_indices(stream, 8, 512, 5), plane)
    fields = block_fields(stream, 8, 512, 5)
    assert list(zip(fields[3].tolist(), fields[4].tolist())) == heads


@pytest.mark.parametrize("k", MODULI)
def test_decode_plane_inverts_append_samples(k):
    # decode_plane gives back the quantized samples that append_samples took: on planes of
    # 1, 8, 56 and 63 blocks (the per-block loop) and of 64, 72 and 132 (the strip codec),
    # with edge blocks of 1 to 7 rows and columns, and repeated blocks beside mixed ones
    rng = np.random.default_rng(k + 83)
    shapes = [(1, 1), (3, 61), (56, 64), (55, 71), (57, 57), (8, 512), (67, 59), (9, 521)]
    for i, shape in enumerate(shapes):
        samples = rng.integers(0, 256, shape, dtype=np.uint8)
        if i % 2:
            samples[: shape[0] // 2] = samples[0, 0]
        out = bytearray()
        bitstream.append_samples(out, samples, k)
        assert np.array_equal(decode_plane(out, *shape, k), core.quantize_plane(samples, k))


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


@pytest.mark.parametrize("height, width", [(0, 8), (8, 0), (0, 0)])
def test_empty_plane_dimensions_rejected(height, width):
    message = f"dimensions must be at least 1x1, got {width}x{height}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        decode_plane(bytes(8), height, width)


def bit_string(data: np.ndarray) -> str:
    return "".join(format(byte, "08b") for byte in data.tobytes())


# the header pass reads keys of W + 1 bits and headers of 2 * W + 1 bits, for W from 2
# (k = 127) to 7 (k = 3)
@pytest.mark.parametrize("n", sorted({n for w in range(2, 8) for n in (w + 1, 2 * w + 1)}))
@pytest.mark.parametrize("size", [1, 2, 5])
def test_bits_at_reads_any_offset(n, size):
    # every bit offset of the stream, then a byte's offsets past its end: bytes past the
    # end read as the last byte
    data = np.random.default_rng(8 * n + size).integers(0, 256, size, dtype=np.uint8)
    bits = bit_string(data) + bit_string(data[-1:]) * 4
    at = np.arange(8 * size + 8)
    want = [int(bits[a : a + n], 2) for a in at.tolist()]
    assert bitstream._bits_at(data, at, n).tolist() == want
    assert bitstream._bits_at(data, at[::-3], n).tolist() == want[::-3]


@pytest.mark.parametrize("start, stop", [(0, 6), (0, 5), (1, 6), (2, 4), (5, 6), (6, 6)])
def test_windows_join_each_byte_and_the_next(start, stop):
    # a window whose stop is the stream's end reads 0 past its last byte
    data = np.random.default_rng(start * 7 + stop).integers(0, 256, 6, dtype=np.uint8)
    bits = bit_string(data) + "0" * 8
    want = [int(bits[8 * i : 8 * i + 16], 2) for i in range(start, stop)]
    assert bitstream._windows(data, start, stop).tolist() == want


# strip-coded planes: one block row or column of 65 blocks, edge blocks on both sides,
# and 129 blocks to a block row with edge blocks
STRIP_SHAPES = [(8, 520), (520, 8), (61, 77), (17, 1030), (20, 1030)]


def chase_follows_spec(stream: bytes, height: int, width: int, k: int) -> Decoded | Fault:
    """Check the header pass against the spec; the spec's outcome. The pass gives the spec's
    starts, mins and max deltas, or None where its first fault is a header's or a truncation;
    it reads no deltas and no bytes past the blocks, so after other faults it may give either."""
    spec = reference_decode(stream, height, width, k)
    got = bitstream._chase(stream, height, width, 255 // k)
    if isinstance(spec, Decoded):
        assert got is not None, "the header pass gave up on a stream the spec accepts"
        assert [part.tolist() for part in got] == [spec.starts, spec.lows, spec.spreads]
    elif spec.check not in ("index", "trailing"):
        assert got is None, f"the header pass read a stream whose first fault is {spec}"
    return spec


def test_chase_matches_scan():
    # over all moduli, the fast pass must find exactly the spec's heads and end bit; a
    # repeated last block puts the last header in the final byte or two, where the pass
    # reads a zero-padded window. On mutants, decode_plane must give the spec's pixels, or
    # the class, block and bit of its first fault
    rng = np.random.default_rng(31)
    tails, seen = set(), set()
    for k in MODULI:
        top = 255 // k
        for i, (height, width) in enumerate(STRIP_SHAPES):
            span = int(rng.integers(0, top + 1))
            lo = int(rng.integers(0, top - span + 1))
            plane = (lo + rng.integers(0, span + 1, (height, width))).astype(np.uint8)
            if (k + i) % 3:
                plane[(height - 1) // 8 * 8 :, (width - 1) // 8 * 8 :] = lo
            stream = encode_indices(plane, k)
            spec = chase_follows_spec(stream, height, width, k)
            if not spec.spreads[-1]:
                tails.add(len(stream) - spec.starts[-2] // 8)  # bytes from the last header on
            if i != k % 5:
                continue
            mutants = [stream[: int(rng.integers(0, len(stream)))], stream + bytes(1)]
            mutants += flipped(stream, 3, rng)
            for data in mutants:
                spec = chase_follows_spec(data, height, width, k)
                seen.add(decodes_like_spec(spec, data, height, width, k))
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
    rng = np.random.default_rng(k)
    for height, width in STRIP_SHAPES[:3]:
        plane = rng.integers(0, 255 // k + 1, (height, width)).astype(np.uint8)
        plane[(height - 1) // 8 * 8 :, (width - 1) // 8 * 8 :] = plane[-1, -1]
        stream = encode_indices(plane, k)
        message = f"^stream is {len(stream) + 1} bytes but its blocks need {len(stream)}$"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "_decode_blocks", no_block_loop)
            assert np.array_equal(decode_indices(stream, height, width, k), plane)
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
    with Peak() as peak:  # timed apart, as tracing slows the loop several times over
        with pytest.raises(TruncatedStreamError):
            decode_plane(data, 1024, 1024, 5)
    assert peak.bytes <= 1.5 * plane.size


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
    # the numpy unpack must spread them into byte lanes as _unpack does, for every width,
    # given a width per word or one scalar width for all
    rng = np.random.default_rng(43)
    widths = np.repeat(np.arange(8, dtype=np.uint8), 40)
    rows = rng.integers(0, 2**64, (3, len(widths)), dtype=np.uint64)
    expected = [
        [bitstream._unpack(int(f) >> (64 - 8 * int(dw)), 8, int(dw)) for f, dw in zip(r, widths)]
        for r in rows
    ]
    assert bitstream._unpack_rows(rows.copy(), widths).tolist() == expected
    for dw in range(8):
        same = widths == dw
        got = bitstream._unpack_rows(rows[:, same].copy(), widths[same][0])
        assert got.tolist() == [[row[i] for i in np.flatnonzero(same)] for row in expected]


def test_row_pack_matches_pack():
    # each uint64 holds 8 byte lanes of dw-bit values; the numpy row pack must squeeze them,
    # and dropping the last 8 - c fields its first c lanes, as _pack does, for every width
    # and column count, on random lanes and on lanes of all ones, with a width per word or
    # one int width
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
    drops = ((8 - cols) * widths).astype(np.uint64)
    assert (bitstream._pack_rows(words.copy(), widths) >> drops).tolist() == expected
    for dw in range(8):
        same = widths == dw
        packed = bitstream._pack_rows(words[same], dw) >> drops[same]
        assert packed.tolist() == [expected[i] for i in np.flatnonzero(same)]


@pytest.mark.parametrize("k", [3, 5, 127])
def test_block_loop_finds_repeated_blocks_by_count(k, monkeypatch):
    # the per-block loop tells a repeated block by one count of its first index: the 12
    # blocks of a constant 24x31 plane take neither min nor max, and those of noise, none
    # of them repeated, each one call of both. Both streams are the string encoder's
    calls = []
    for name in ("min", "max"):
        spy(monkeypatch, bitstream, name, lambda *_, name=name: name, calls)
    top = 255 // k
    noise = np.random.default_rng(k + 127).integers(0, top + 1, (24, 31))
    for plane, blocks in ((np.full((24, 31), top // 2), 0), (noise, 12)):
        calls.clear()
        stream = encode_indices(plane, k)
        assert calls == ["min", "max"] * blocks
        assert stream == reference_stream(plane, k)


@pytest.mark.parametrize(
    "strip_blocks, encoding, decoding", [(64, 1, 4), (16, 2, 4), (8, 4, 4), (4, 8, 8)]
)
def test_strip_sizes_follow_strip_blocks(strip_blocks, encoding, decoding):
    # both directions read STRIP_BLOCKS when they run, so setting it moves their strips:
    # encoding strips of 16 * STRIP_BLOCKS blocks on any plane, here 1,024, 256, 128 and
    # 64 blocks of whole block rows of 64, and decoding strips of as many or of a quarter
    # of the plane's blocks where that is fewer; the header pass walks blocks in stream
    # order, not strips
    plane = np.random.default_rng(3).integers(0, 52, (64, 512)).astype(np.uint8)  # 512 blocks
    expected = encode_indices(plane)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
        strips = spy(patch, bitstream, "_strips", lambda _, *args: list(_strips(*args)))
        stream = encode_indices(plane)
        assert np.array_equal(decode_indices(stream, 64, 512), plane)
    assert stream == expected
    assert [len(each) for each in strips] == [encoding, decoding]


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


def junk_over_limit(stream: bytes, heads: Decoded, k: int) -> bool:
    """Whether a lane the strip decoder reads past an edge block's columns or rows, from the
    bits that follow the block's row, would decode above the index limit; heads is the
    spec's reading of stream."""
    bits = "".join(format(byte, "08b") for byte in stream) + "0" * 512
    height, width = heads.plane.shape
    grid_cols = -(-width // 8)
    w = (255 // k).bit_length()
    for i, (lo, spread) in enumerate(zip(heads.lows, heads.spreads)):
        rows, cols = min(8, height - i // grid_cols * 8), min(8, width - i % grid_cols * 8)
        dw, start = spread.bit_length(), heads.starts[i] + 2 * w + 1
        for y in range(8):
            for x in range(cols if y < rows else 0, 8):
                at = start + (y * cols + x) * dw
                if dw and lo + int(bits[at : at + dw], 2) > 255 // k:
                    return True
    return False


@pytest.mark.parametrize(
    "height, width, k", [(9, 4100, 5), (3, 2060, 3), (16, 321, 3), (18, 523, 9)]
)
def test_lane_decoder_agrees_with_spec(height, width, k):
    # the strip decoder reads each block row of 8 cells as one word, so lanes past an edge
    # block's columns or rows hold the bits that follow; built so those would decode above
    # the limit, valid streams must still decode, and on bit-flipped and truncated streams
    # it must give the spec's pixels or the class, block and bit of its first fault. Block
    # rows of 513 and 258 blocks make decoding strips start mid-row, and the 16x321 plane
    # ends in a one-column block of 7-bit deltas whose rows read past the end of the stream
    rng = np.random.default_rng(height * width)
    plane = edge_plane(height, width, k, rng)
    stream = encode_indices(plane, k)
    heads = reference_decode(reference_stream(plane, k), height, width, k)
    assert junk_over_limit(stream, heads, k)
    if width % 8 == 1 and height % 8 == 0:
        # its deltas follow a header of 2 * 7 + 1 bits
        dw, start = heads.spreads[-1].bit_length(), heads.starts[-2] + 15
        assert dw == 7 and start + 7 * dw + 8 * dw > 8 * len(stream)
    assert np.array_equal(decode_indices(stream, height, width, k), plane)
    mutants = [stream[: int(rng.integers(0, len(stream)))] for _ in range(4)]
    mutants += flipped(stream, 16, rng)
    for data in [stream, *mutants]:
        decodes_like_spec(reference_decode(data, height, width, k), data, height, width, k)


def test_strip_words_reach_the_farthest_row():
    # the strip decoder reads all 8 rows of every block, so a bottom-edge block of one row
    # has rows 1 to 7 read past its end; at k = 3 a full-spread 8-column block has 56-bit
    # rows, and its row 7 starts 6 * 56 bits past its end. A 9x256 plane decodes in strips
    # of 16 blocks, the last two along its one-row block row, whose blocks all spread over
    # 0..85; a varying number of repeated blocks before its last block shifts where that
    # row lands, up to the 6th word past the words that hold the strip's bytes
    rng = np.random.default_rng(71)
    reaches = set()
    for repeated in range(16):
        plane = rng.integers(0, 86, (9, 256)).astype(np.uint8)
        plane[8] = rng.choice([0, 85], 256)
        plane[8, ::8], plane[8, 7::8] = 0, 85
        plane[8, 256 - 8 * (repeated + 1) : -8] = 85
        stream = encode_indices(plane, 3)
        heads = reference_decode(reference_stream(plane, 3), 9, 256, 3)
        starts = heads.starts
        origin = starts[48] >> 3  # the last strip's first block
        size = (starts[-1] + 7 >> 3) - origin
        # the last block's row 7: 7 rows of 8 deltas past its header of 2 * 7 + 1 bits
        row_7 = starts[-2] + 15 + 7 * 8 * heads.spreads[-1].bit_length() - 8 * origin
        reaches.add((row_7 >> 6) - (size + 7 >> 3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "_decode_blocks", no_block_loop)
            assert np.array_equal(decode_indices(stream, 9, 256, 3), plane)
    assert max(reaches) == 5


def photo_plane(k: int, rng: np.random.Generator, size: int = 512) -> np.ndarray:
    """Index plane of a size x size smooth image whose noise grows from none at its left
    edge, so repeated blocks sit next to mixed ones of every delta width."""
    y, x = np.mgrid[0:size, 0:size]
    smooth = 128 + 90 * np.sin(x / 41 + rng.uniform(0, 6)) * np.cos(y / 57)
    noisy = smooth + rng.normal(0, 1, smooth.shape) * np.linspace(0, 40, size)
    samples = core.quantize_plane(np.clip(np.rint(noisy), 0, 255).astype(np.uint8), k)
    return samples // k


def strip_planes(k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random index planes of every strip shape and of block rows of 513 blocks, and two
    photo-like planes; every other one has its top half repeated next to mixed blocks."""
    shapes = STRIP_SHAPES + [(9, 4100), (20, 4100)]
    planes = [rng.integers(0, 255 // k + 1, shape).astype(np.uint8) for shape in shapes]
    planes += [photo_plane(k, rng) for _ in range(2)]
    for plane in planes[::2]:
        plane[: plane.shape[0] // 2] = plane[0, 0]
    return planes


def blocks_of(_, samples, *args) -> int:
    """The blocks of an _encode_strip call's strip."""
    return math.prod(_grid(*samples.shape))


@pytest.mark.parametrize("k", [3, 5, 127])
def test_strip_encoder_matches_oracle(k):
    # the row-word encoder writes the string encoder's bytes on every strip shape, on
    # photo-like planes and on 1024x1024 noise; with STRIP_BLOCKS at 2, block rows of 513
    # blocks split strips of 32 mid-row and 32-block strips carry a partial byte across
    # many strip ends. Every plane encodes in strips of 1,024 blocks, or as one strip if
    # smaller, and a strip of more than 512 blocks packs its rows in two parts: 1024x1024
    # noise in 16 strips, a 277x1020 plane of blocks of every delta width in 4 and then a
    # strip of 3 block rows, the last of them short, a 33x8300 one along each block row in
    # one of 1,024 and an edge strip of 14, down to the last block row of one pixel row, so
    # the carry crosses long strips into short ones, and a 203x197 plane of 650 blocks,
    # edge blocks and all, in one. The encoder gives numpy back its ufunc buffer size
    rng = np.random.default_rng(k)
    buffers = np.getbufsize()
    for plane in strip_planes(k, rng):
        expected = reference_stream(plane, k)
        assert encode_indices(plane, k) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "STRIP_BLOCKS", 2)
            assert encode_indices(plane, k) == expected
    top = 255 // k
    planes = [rng.integers(0, top + 1, (1024, 1024))]
    for shape in [(277, 1020), (33, 8300), (203, 197)]:
        spans = rng.integers(1, top + 2, _grid(*shape)).repeat(8, axis=0).repeat(8, axis=1)
        planes.append(rng.integers(0, top + 1, shape) % spans[: shape[0], : shape[1]])
    strip_sizes = [[1024] * 16, [1024] * 4 + [384], [1024, 14] * 5, [650]]
    for plane, blocks in zip(planes, strip_sizes):
        plane = plane.astype(np.uint8)
        with pytest.MonkeyPatch.context() as patch:
            strips = spy(patch, bitstream, "_encode_strip", blocks_of)
            stream = encode_indices(plane, k)
        assert strips == blocks and np.getbufsize() == buffers
        assert stream == reference_stream(plane, k)


@pytest.mark.parametrize("k", [3, 5, 9, 127])
def test_strip_encoder_joins_each_header_to_row_0_where_they_fit(k):
    # a header and a whole row take 2W + 1 + 8W bits: where that is at most 64, at every
    # modulus but 3 (W = 7), they are placed as one field, so a block places 8 fields, not
    # 9. A 256x256 photo-like plane is one strip of 1,024 blocks, whose blocks place 2
    # fields a part, and a 128x256 noise plane one of 512, whose blocks place 3
    rng = np.random.default_rng(k)
    planes = [photo_plane(k, rng, 256), rng.integers(0, 255 // k + 1, (128, 256))]
    parts = [[2, 2, 2, 2, 1], [3, 3, 3]] if k == 3 else [[2, 2, 2, 2], [3, 3, 2]]
    for plane, fields in zip(planes, parts):
        with pytest.MonkeyPatch.context() as patch:
            placed = spy(patch, bitstream, "_place", lambda _, packed, ends, f: f.shape)
            stream = encode_indices(plane, k)
        assert placed == [(n, plane.size // 64) for n in fields]
        assert stream == reference_stream(plane, k)


@pytest.mark.parametrize("k", [3, 5, 13, 33, 101, 127])
def test_strip_quantizer_matches_spec_on_channel_views(k):
    # the strip encoder quantizes samples in its row words: each channel of a 16x512x3 image
    # is a strided view of 2x64 blocks, one strip, and holds every byte value, the top k // 2
    # of which wrap in to_indices' add and must still take index 255 // k (13, 33 and 101
    # have 255 % k > k // 2). Channel 0 rises along each row, so its blocks at 248 to 255
    # are the wrap range alone; channel 1 is shuffled and channel 2 falls along each row
    rng = np.random.default_rng(k)
    rising = np.tile(np.arange(256, dtype=np.uint8), 32).reshape(16, 512)
    pixels = np.stack([rising, rng.permutation(rising.ravel()).reshape(16, 512), 255 - rising], 2)
    for channel in range(3):
        plane = RasterImage(pixels).plane(channel)
        assert plane.strides[1] == 3
        out = bytearray()
        with pytest.MonkeyPatch.context() as patch:
            strips = spy(patch, bitstream, "_encode_strip", blocks_of)
            bitstream.append_samples(out, plane, k)
        assert strips == [128]
        assert out == reference_stream(core.quantize_plane(plane, k) // k, k)


@pytest.mark.parametrize("k", [3, 5, 127])
def test_decoder_matches_oracle(k):
    # decode_plane, block_fields and the header pass follow the spec on spec_mutants of
    # every strip shape and block rows of 513 blocks; on photo-like planes, whose streams the
    # spec reads in 0.05 s, whole and one byte short; and on 256x1024 noise, whose header
    # pass guesses over runs of 512, 1,024 and 2,048 blocks
    rng = np.random.default_rng(k + 59)
    outcomes = set()
    for plane in strip_planes(k, rng):
        stream = encode_indices(plane, k)
        mutants = spec_mutants(plane, k, rng) if plane.size < 512 * 512 else [stream, stream[:-1]]
        for data in mutants:
            outcomes.add(follows_spec(data, *plane.shape, k))
    noise = rng.integers(0, 255 // k + 1, (256, 1024)).astype(np.uint8)
    assert follows_spec(encode_indices(noise, k), 256, 1024, k) is np.ndarray
    assert outcomes == {np.ndarray, CorruptStreamError, TruncatedStreamError}


def test_chase_chunks_match_oracle():
    # with groups of a few blocks the pass builds windows for many chunks of two groups'
    # reach and must still find the spec's starts; its last chunk ends on the stream's
    # final byte, whose window it reads zero-padded; and a stream cut inside the last
    # chunk makes it give up
    rng = np.random.default_rng(61)
    spans = rng.integers(1, 52, (65, 1)).repeat(8, axis=0)  # block rows of many lengths
    plane = (rng.integers(0, 52, (520, 24)) % spans).astype(np.uint8)
    stream = encode_indices(plane)
    with pytest.MonkeyPatch.context() as patch:
        chunks = spy(patch, bitstream, "_windows", chunk_of)
        for strip_blocks in range(1, 9):
            patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
            chunks.clear()
            assert isinstance(chase_follows_spec(stream, 520, 24, 5), Decoded)
            assert len(chunks) > (10 if strip_blocks == 1 else 1)
            assert chunks[-1][1] == len(stream)
            last = chunks[-1][0]
            for cut in {last + 1, (last + len(stream)) // 2, len(stream) - 1}:
                assert chase_follows_spec(stream[:cut], 520, 24, 5).error is TruncatedStreamError


def test_one_window_chunk_ends_at_the_stream_end():
    # the blocks of a photo-like plane have mixed lengths, so the pass steps every group,
    # building windows a chunk of two groups' reach at a time; once a chunk holds the
    # stream's last byte it builds none, where each further chunk would end there too
    for size in (512, 1024):
        plane = photo_plane(5, np.random.default_rng(size), size)
        stream = encode_indices(plane)
        with pytest.MonkeyPatch.context() as patch:
            chunks = spy(patch, bitstream, "_windows", chunk_of)
            calls = spy(patch, bitstream, "_first_odd", run_of)
            assert np.array_equal(decode_indices(stream, size, size), plane)
        ends = [stop for _, stop in chunks].count(len(stream))
        assert calls == [] and len(chunks) > 1 and ends <= 1


def uniform_plane(height: int, width: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random indices, each block's first cell 0 and last 255 // k, so that every block's
    (repetition, max_delta) key has bit length W and the blocks of a cell count one length."""
    top = 255 // k
    plane = rng.integers(0, top + 1, (height, width)).astype(np.uint8)
    plane[::BLOCK_SIZE, ::BLOCK_SIZE] = 0
    ends = [np.minimum(np.arange(BLOCK_SIZE, n + BLOCK_SIZE, BLOCK_SIZE), n) for n in plane.shape]
    plane[np.ix_(ends[0] - 1, ends[1] - 1)] = top
    return plane


@pytest.mark.parametrize("k", [3, 5, 127])
def test_guessed_strips_match_oracle(k):
    # a 132x1001 plane decodes in strips of 630, 630, 630 and 252 blocks of 64, 8, 32 and 4
    # cells. Its blocks spread over 0..255 // k, so the pass steps the first 512 blocks and
    # guesses the others, but for one odd block, repeated or of 1-bit deltas, at the first,
    # middle or last block of the second strip, at the first of the third, whose guess lies in
    # the stream as a strip follows, or last in the plane, repeated, so that its key's second
    # byte lies past the stream's end. The pass must find the spec's starts; on streams cut
    # inside a guessed strip or with a bit of a guessed block's max_delta flipped, the
    # spec's starts or None, as decode_plane gives the spec's plane or its fault
    rng = np.random.default_rng(k + 89)
    top = 255 // k
    w = top.bit_length()
    height, width = 132, 1001
    grid_cols = _grid(height, width)[1]
    firsts = [0]
    for ys, xs in _strips(height, width, 8 * STRIP_BLOCKS):
        rows, cols = _grid(ys.stop - ys.start, xs.stop - xs.start)
        firsts.append(firsts[-1] + rows * cols)
    assert firsts == [0, 630, 1260, 1890, 2142]
    outcomes = set()
    for n, odd in enumerate([630, 945, 1259, 1260, 2141]):
        plane = uniform_plane(height, width, k, rng)
        y, x = divmod(odd, grid_cols)
        block = plane[8 * y : 8 * y + 8, 8 * x : 8 * x + 8]
        if n % 2:  # deltas of 1 bit
            block[...] = rng.integers(top - 1, top + 1, block.shape)
            block[0, 0], block[-1, -1] = top - 1, top
        else:
            block[...] = top // 2
        stream = encode_indices(plane, k)
        heads = reference_decode(reference_stream(plane, k), height, width, k)
        starts = heads.starts
        mutants = [stream]
        for strip in (1, 2):
            at = int(rng.integers(starts[firsts[strip]], starts[firsts[strip + 1]]))
            mutants.append(stream[: at >> 3])
            i = int(rng.integers(firsts[strip], firsts[strip + 1]))
            if heads.spreads[i]:  # a flipped max_delta bit, the top one or any
                bit = starts[i] + w + 1 + int(rng.integers(0, w)) * int(rng.integers(0, 2))
                data = bytearray(stream)
                data[bit >> 3] ^= 0x80 >> (bit & 7)
                mutants.append(bytes(data))
        for data in mutants:
            spec = chase_follows_spec(data, height, width, k)
            outcomes.add(decodes_like_spec(spec, data, height, width, k))
        assert np.array_equal(decode_indices(stream, height, width, k), plane)
    assert outcomes == {np.ndarray, CorruptStreamError, TruncatedStreamError}


def test_noise_plane_is_guessed():
    # every block of 1024x1024 uniform noise has 6-bit deltas at k = 5: the pass steps the
    # first of its 32 groups of 8 * STRIP_BLOCKS blocks over one window and guesses the rest,
    # where stepping them all builds a window for each chunk of two groups' reach
    samples = np.random.default_rng(97).integers(0, 256, (1024, 1024), dtype=np.uint8)
    stream = bytearray()
    bitstream.append_samples(stream, samples, 5)
    with pytest.MonkeyPatch.context() as patch:
        chunks = spy(patch, bitstream, "_windows", chunk_of)
        assert np.array_equal(decode_plane(stream, 1024, 1024, 5), core.quantize_plane(samples))
    assert 1 <= len(chunks) <= 2


def test_repeated_plane_is_guessed():
    # every block of a constant 1024x1024 plane is repeated, w + 1 bits: the pass steps the
    # first group of 8 * STRIP_BLOCKS blocks and guesses the rest in runs that double, but
    # for the last two blocks, whose keys lie in the stream's last byte. The whole stream
    # lies in one window, so only the passes show that the pass guessed
    samples = np.full((1024, 1024), 128, dtype=np.uint8)
    stream = bytearray()
    bitstream.append_samples(stream, samples, 5)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy(patch, bitstream, "_first_odd", run_of)
        assert np.array_equal(decode_plane(stream, 1024, 1024, 5), core.quantize_plane(samples))
    assert calls == [(n, n) for n in (512, 1024, 2048, 4096, 8190)]


@pytest.mark.parametrize("height, width", [(256, 256), (8, 8192)])
def test_zero_width_group_makes_no_guess(height, width):
    # 1,024 headers of min_index 0, repetition 0 and max_delta 0: every stepped block
    # advances 2 * W + 1 bits, as a block of 0-bit deltas would, but no valid block has that
    # key, so the pass guesses no run of them and decode_plane raises the spec's fault
    stream = bits_to_bytes("0" * 13 * 1024)  # 6 + 1 + 6 bits a header
    with pytest.MonkeyPatch.context() as patch:
        calls = spy(patch, bitstream, "_first_odd", run_of)
        got = outcome(decode_plane, stream, height, width, 5)
    assert calls == []
    assert reference_decode(stream, height, width, 5)[:3] == (CorruptStreamError, (0, 0), 0)
    message = "block 0,0: non-repeated block with zero max_delta is not canonical (bit 0)"
    assert got == (CorruptStreamError, message)


def test_noise_cut_past_guessed_strip_end():
    # every block of 1024x1024 uniform noise has 6-bit deltas at k = 5, 397 bits: the pass
    # steps blocks 0 to 511 and guesses blocks 512 to 1023, 1024 to 2047, 2048 to 4095,
    # 4096 to 8191 and 8192 to 16383, a run each. The stream cut inside each run, in a
    # block's header, in a block's deltas or in the run's last byte: the pass proves the
    # keys that lie in the stream, but the run's end lies past the stream's end, so it
    # gives up, and decode_plane names the short block and its first bit, as the spec
    samples = np.random.default_rng(97).integers(0, 256, (1024, 1024), dtype=np.uint8)
    stream = bytearray()
    bitstream.append_samples(stream, samples, 5)
    for first, last in [(512, 1023), (1024, 2047), (2048, 4095), (4096, 8191), (8192, 16383)]:
        cuts = {
            first + 2: (397 * (first + 2) >> 3) + 1,  # inside its 13-bit header
            first + 3: (397 * (first + 3) + 13 >> 3) + 20,  # inside its deltas
            last: (397 * (last + 1) + 7 >> 3) - 1,  # the run's last byte gone
        }
        for block, cut in cuts.items():
            data = bytes(stream[:cut])
            spec = chase_follows_spec(data, 1024, 1024, 5)
            assert spec[:3] == (TruncatedStreamError, divmod(block, 128), 397 * block)
            assert decodes_like_spec(spec, data, 1024, 1024, 5) is TruncatedStreamError


def test_odd_block_ends_the_guessed_run():
    # every block of a 1024x1024 plane has W-bit deltas, so the pass steps its first group
    # of 8 * STRIP_BLOCKS blocks over one window and guesses the rest in runs that double.
    # A repeated block at block row 9, block 1189, ends the run of blocks 1024 to 2047
    # after 165 keys. The steps go on from it: its group, which holds it, makes no guess,
    # and the next, blocks 1701 to 2212, makes it again, so runs double from block 2213 to
    # the plane's end. Block 1189 lies past the first chunk's reach, so the pass builds
    # windows from its first byte
    rng = np.random.default_rng(101)
    plane = uniform_plane(1024, 1024, 5, rng)
    odd = plane.copy()
    odd[72:80, 296:304] = 7  # block 9,37
    doubling = [(n, n) for n in (512, 1024, 2048, 4096)]
    for indices, runs, rebased in (
        (plane, doubling + [(8192, 8192)], []),
        (odd, [(512, 512), (1024, 165)] + doubling + [(6491, 6491)], [1189]),
    ):
        stream = encode_indices(indices, 5)
        with pytest.MonkeyPatch.context() as patch:
            chunks = spy(patch, bitstream, "_windows", chunk_of)
            calls = spy(patch, bitstream, "_first_odd", run_of)
            spec = chase_follows_spec(stream, 1024, 1024, 5)
        assert np.array_equal(spec.plane, indices)
        assert calls == runs
        assert [start for start, _ in chunks] == [0] + [spec.starts[i] >> 3 for i in rebased]
        assert np.array_equal(decode_indices(stream, 1024, 1024, 5), indices)


def chunk_of(_, data, start, stop) -> tuple[int, int]:
    """A _windows call's chunk: its first byte and stop."""
    return start, stop


def run_of(right, data, at, guess, w) -> tuple[int, int]:
    """A _first_odd call's run: the keys it read and the index it returned."""
    return len(at), right


def test_plane_turning_mixed_steps_each_group():
    # with strips of 64 blocks, a 256x256 plane's first 8 strips have W-bit deltas and its
    # other blocks alternate 1-bit deltas with 2- or 3-bit ones. Runs double from a strip,
    # 1, 2 and then 4 strips, until one meets the first mixed block, block 512, and the
    # pass steps the rest of the plane, 8 groups. With 2-bit ones no group of them earns
    # a guess; with 3-bit ones each does, as its blocks average 2 bits a cell, and its
    # run stops at its first key: one numpy pass per stepped group but the last, not one
    # per block
    for wide, stops in ((2, 1), (3, 8)):
        rng = np.random.default_rng(103)
        plane = uniform_plane(256, 256, 5, rng)
        mixed = rng.integers(0, 1 << wide, (128, 256))
        ones = (np.arange(16 * 32).reshape(16, 32) % 2).repeat(8, 0).repeat(8, 1) == 1
        mixed[ones] %= 2
        mixed[::8, ::8] = 0
        mixed[7::8, 7::8] = np.where(ones[7::8, 7::8], 1, (1 << wide) - 1)
        plane[128:] = 10 + mixed
        stream = encode_indices(plane, 5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "STRIP_BLOCKS", 8)
            calls = spy(patch, bitstream, "_first_odd", run_of)
            assert isinstance(chase_follows_spec(stream, 256, 256, 5), Decoded)
        assert calls[:3] == [(64, 64), (128, 128), (256, 256)]
        assert [right for _, right in calls[3:]] == [0] * stops
        assert [keys for keys, _ in calls[4:]] == [64] * (stops - 1)


@pytest.mark.parametrize(
    "height, width", [(1, 1), (5, 3), (17, 23), (65, 63), (9, 4100), (4100, 9)]
)
def test_cells_before_counts_block_sizes(height, width):
    # the cells before each block, and last the plane's, from which the header pass guesses
    # and block_fields takes each block's: sums of each block's rows times its columns
    sizes = [
        min(8, height - y) * min(8, width - x)
        for y in range(0, height, 8)
        for x in range(0, width, 8)
    ]
    before = [0, *np.cumsum(sizes).tolist()]
    assert bitstream._cells_before_each(height, width).tolist() == before
    stream = encode_indices(np.zeros((height, width), dtype=np.uint8))
    assert block_fields(stream, height, width)[2].tolist() == sizes


def test_advance_tables_are_built_once_per_modulus():
    # the header pass takes each cell count's table of block lengths from a cache, so a
    # second plane of one modulus, edge blocks and all, builds no table
    rng = np.random.default_rng(107)
    misses = []
    for _ in range(2):
        plane = rng.integers(0, 52, (67, 75))
        assert decode_indices(encode_indices(plane), 67, 75).tolist() == plane.tolist()
        misses.append(bitstream._advance.cache_info().misses)
    assert misses[1] == misses[0]


@pytest.mark.parametrize(
    "height, width, strips, runs",
    [(64, 5000, 16, [512, 1024, 2048, 904]), (40, 4100, 10, [512, 1024, 517])],
)
def test_guessed_runs_cross_strip_shapes(height, width, strips, runs):
    # block rows of 625 and of 513 blocks cut strips of 8 * STRIP_BLOCKS blocks into 512
    # and 113 blocks and into 512 and 1. Every block has W-bit deltas, so the pass steps the
    # first 512 blocks and checks its guess over runs that double across those changes of
    # shape, in fewer passes than such strips. It must find the spec's starts; on a stream
    # cut inside the run of blocks 1024 to 2047, which crosses changes of shape, it gives
    # up, and decode_plane gives the spec's plane or fault
    rng = np.random.default_rng(height + width)
    plane = uniform_plane(height, width, 5, rng)
    stream = encode_indices(plane, 5)
    assert len(list(_strips(height, width, 8 * STRIP_BLOCKS))) == strips
    with pytest.MonkeyPatch.context() as patch:
        calls = spy(patch, bitstream, "_first_odd", run_of)
        spec = chase_follows_spec(stream, height, width, 5)
    assert calls == [(n, n) for n in runs] and len(calls) < strips
    cut = stream[: (spec.starts[1600] >> 3) + 20]  # inside block 1600
    short = chase_follows_spec(cut, height, width, 5)
    assert decodes_like_spec(spec, stream, height, width, 5) is np.ndarray
    assert decodes_like_spec(short, cut, height, width, 5) is TruncatedStreamError
    assert np.array_equal(spec.plane, plane)
    assert short.block == divmod(1600, _grid(height, width)[1])


@pytest.mark.parametrize("k", [3, 5, 127])
def test_guessed_runs_match_spec(k):
    # with strips of 64 blocks, a 261x256 plane of W-bit deltas is 16 strips of 64 blocks
    # and an edge-shaped strip of 32 blocks of 5x8 cells. The pass steps strip 0 and checks
    # runs of strips 1, 2-3, 4-7 and 8-15, and then of the 32 blocks left, the edge strip's.
    # An odd block, repeated or of 1-bit deltas, at the first block of strip 8, a
    # middle one of strip 11, the last of strip 15 or one of the edge strip is the first
    # wrong key of its run, and the pass steps on from it. The pass must find the spec's
    # starts; on streams cut inside the last block of a run, after its key, or with a bit of
    # a block's max_delta flipped, the spec's starts or None, as decode_plane gives the
    # spec's plane or its fault
    rng = np.random.default_rng(k + 107)
    top = 255 // k
    w = top.bit_length()
    height, width = 261, 256
    clean = [(64, 64), (128, 128), (256, 256), (512, 512), (32, 32)]
    outcomes = set()
    for odd in (None, 512, 11 * 64 + 29, 1023, 1040):
        plane = uniform_plane(height, width, k, rng)
        if odd is not None:
            y, x = divmod(odd, 32)
            block = plane[8 * y : 8 * y + 8, 8 * x : 8 * x + 8]
            if odd % 2:  # deltas of 1 bit
                block[...] = rng.integers(top - 1, top + 1, block.shape)
                block[0, 0], block[-1, -1] = top - 1, top
            else:
                block[...] = top // 2
        stream = encode_indices(plane, k)
        heads = reference_decode(reference_stream(plane, k), height, width, k)
        starts = heads.starts
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "STRIP_BLOCKS", 8)
            calls = spy(patch, bitstream, "_first_odd", run_of)
            assert np.array_equal(decode_indices(stream, height, width, k), plane)
        if odd is None:
            assert calls == clean
        else:  # the first pass to meet the odd block stops there
            first = next(i for i, (keys, right) in enumerate(calls) if right < keys)
            assert sum(keys for keys, _ in calls[:first]) + calls[first][1] == odd - 64
        mutants = [stream]
        for last in (1023, len(heads.lows) - 1):  # the last blocks of the run 8-15 and the plane
            mutants.append(stream[: (starts[last] + w + 1 + 7 >> 3) + 1])
        for i in (odd or 512, int(rng.integers(64, len(heads.lows)))):
            if heads.spreads[i]:  # a flipped max_delta bit
                bit = starts[i] + w + 1 + int(rng.integers(0, w))
                data = bytearray(stream)
                data[bit >> 3] ^= 0x80 >> (bit & 7)
                mutants.append(bytes(data))
        for data in mutants:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bitstream, "STRIP_BLOCKS", 8)
                spec = chase_follows_spec(data, height, width, k)
                outcomes.add(decodes_like_spec(spec, data, height, width, k))
    assert outcomes == {np.ndarray, CorruptStreamError, TruncatedStreamError}


@pytest.mark.parametrize("k", [3, 5, 127])
def test_one_width_strips_match_spec(k):
    # a 99x325 plane of 13x41 blocks, with edge rows and columns, decodes in 4 strips of a
    # quarter of its blocks; every block of each strip has one delta width, W bits but for
    # the second strip, whose blocks are all repeated, of width 0, so each strip unpacks its
    # rows with scalar operands. A delta rewritten to all ones in the third strip decodes an
    # index above 255 // k there: decode_plane must raise the spec's fault, block 9,17
    rng = np.random.default_rng(k + 109)
    top = 255 // k
    w = top.bit_length()
    height, width = 99, 325
    plane = uniform_plane(height, width, k, rng)
    plane[32:64] = np.arange(41).repeat(8)[:width] % (top + 1)  # strip 2's blocks, repeated
    stream = encode_indices(plane, k)
    heads = reference_decode(reference_stream(plane, k), height, width, k)

    def width_of(_, fields, dw):
        return int(dw) if np.ndim(dw) == 0 else None  # None for a width per block

    with pytest.MonkeyPatch.context() as patch:
        widths = spy(patch, bitstream, "_unpack_rows", width_of)
        patch.setattr(bitstream, "_decode_blocks", no_block_loop)
        assert np.array_equal(decode_indices(stream, height, width, k), plane)
    assert widths == [w, 0, w, w]
    i = 9 * 41 + 17  # block 9,17
    start = heads.starts[i]
    assert heads.lows[i] == 0 and heads.spreads[i].bit_length() == w
    at = start + 2 * w + 1 + w * int(rng.integers(0, 64))
    data = rewritten(stream, [(at, w, lambda _: 2**w - 1)])
    with pytest.MonkeyPatch.context() as patch:
        widths = spy(patch, bitstream, "_unpack_rows", width_of)
        got = outcome(decode_plane, data, height, width, k)
    assert widths == [w, 0, w]  # the third strip gives up
    assert reference_decode(data, height, width, k)[:3] == (CorruptStreamError, (9, 17), start)
    assert got == (CorruptStreamError, f"block 9,17 decodes an index above limit {top} "
                   f"(bit {start})")


@pytest.mark.parametrize("k", [3, 5, 127])
def test_one_width_strips_pack_with_scalars(k):
    # with STRIP_BLOCKS at 4, a 64x256 plane of 8x32 blocks encodes in 4 strips of 64 full
    # blocks: W-bit blocks, repeated blocks, of width 0, whose rows shift by 64 to nothing,
    # blocks of mixed widths and W-bit blocks again. Each strip packs its rows in two
    # parts, as it has more than 8 * STRIP_BLOCKS blocks. _pack_rows takes one int width on
    # the one-width strips and a width per block on the mixed one, and so on both strips of
    # a 20x250 plane of W-bit blocks, 64 blocks and then 32, whose edge blocks have rows of
    # 2 columns and the last strip's 4 rows. Every stream is the string encoder's
    rng = np.random.default_rng(k + 113)
    top = 255 // k
    w = top.bit_length()
    plane = uniform_plane(64, 256, k, rng)
    plane[16:32] = np.arange(32).repeat(8) % (top + 1)  # strip 2's blocks, repeated
    spans = rng.integers(1, top + 2, (2, 32)).repeat(8, axis=0).repeat(8, axis=1)
    plane[32:48] = rng.integers(0, top + 1, (16, 256)) % spans  # strip 3's, of mixed widths

    def width_of(_, words, dw):
        return dw if isinstance(dw, int) else None  # None for a width per block

    cases = [
        (plane, [w, w, 0, 0, None, None, w, w]),
        (uniform_plane(20, 250, k, rng), [None, None, None]),
    ]
    for plane, expected in cases:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bitstream, "STRIP_BLOCKS", 4)
            widths = spy(patch, bitstream, "_pack_rows", width_of)
            stream = encode_indices(plane, k)
        assert widths == expected
        assert stream == reference_stream(plane, k)


def test_buffer_is_set_only_past_32_strips_of_blocks():
    # numpy's ufunc buffer is set to 1,024 elements, and back, around coding a plane of
    # more than 32 * STRIP_BLOCKS blocks, in both directions: 264x512 is 2,112 blocks, and
    # 256x512, 2,048 blocks, codes under the default, which a setting would cost 2 to 4 us
    rng = np.random.default_rng(127)
    default = np.getbufsize()
    for height, sizes in ((256, []), (264, [1024, default])):
        samples = rng.integers(0, 256, (height, 512), dtype=np.uint8)
        stream = bytearray()
        with pytest.MonkeyPatch.context() as patch:
            calls = spy(patch, np, "setbufsize", lambda _, size: size)
            bitstream.append_samples(stream, samples, 5)
            encoding = calls.copy()
            decoded = decode_plane(stream, height, 512, 5)
        assert encoding == sizes and calls == sizes + sizes
        assert np.array_equal(decoded, core.quantize_plane(samples))


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
def test_fast_path_seams_match_spec(height, width, strip_blocks):
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
    but the decoders accept where every index stays in range. With STRIP_BLOCKS at
    strip_blocks, decode_plane must follow the spec, and decode an accepted mutant with the
    per-block loop patched out too, so that a wrong chunk rebase cannot hide behind the
    fallback.
    """
    top = 255 // k
    w = top.bit_length()
    rng = np.random.default_rng(seed)
    grid = _grid(height, width)
    spans = rng.integers(1, top + 2, grid).repeat(8, axis=0).repeat(8, axis=1)[:height, :width]
    plane = (rng.integers(0, top + 1, (height, width)) % spans).astype(np.uint8)  # some repeated
    stream = encode_indices(plane, k)
    heads = reference_decode(reference_stream(plane, k), height, width, k)
    starts = heads.starts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
        chunks = spy(patch, bitstream, "_windows", chunk_of)
        assert np.array_equal(decode_indices(stream, height, width, k), plane)
    assert len(chunks) > 1
    seams = [8 * start for start, _ in chunks[1:]]
    for blocks in (8 * strip_blocks, min(8 * strip_blocks, -(-len(heads.lows) // 4))):
        first = 0
        for ys, xs in _strips(height, width, blocks):
            seams.append(starts[first])
            rows, cols = _grid(ys.stop - ys.start, xs.stop - xs.start)
            first += rows * cols
    seams += starts[-2:]
    near = np.minimum(np.searchsorted(starts, seams, side="right") - 1, len(heads.lows) - 1)
    mutants = [stream]
    for _ in range(16):
        bit = int(rng.choice(seams)) + int(rng.integers(-16, 17))
        bit = min(max(bit, 0), 8 * len(stream) - 1)
        data = bytearray(stream)
        data[bit >> 3] ^= 0x80 >> (bit & 7)
        mutants.append(bytes(data))
    mutants += [stream[: int(rng.integers(starts[-2] // 8, len(stream)))] for _ in range(2)]
    for i in rng.choice(near, 6).tolist():  # blocks that a seam falls in
        lo, spread = heads.lows[i], heads.spreads[i]
        dw, deltas = spread.bit_length(), starts[i] + 2 * w + 1
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitstream, "STRIP_BLOCKS", strip_blocks)
        for data in mutants:
            seen.add(follows_spec(data, height, width, k))
    return seen
