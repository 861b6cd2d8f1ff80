import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmmcodec import netpbm
from fmmcodec.errors import NetpbmError
from fmmcodec.image import RasterImage
from fmmcodec.netpbm import _MAGIC_CHANNELS, _MAX_DIGITS, read_netpbm, write_netpbm

from peaks import Peak
from spies import spy


class TestRead:
    def test_p5_basic(self):
        img = read_netpbm(b"P5 2 2 255 " + bytes([0, 85, 170, 255]))
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.pixels[:, :, 0].tolist() == [[0, 85], [170, 255]]

    def test_p6_single_red_pixel(self):
        img = read_netpbm(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]

    def test_comments_tolerated(self):
        data = b"P5 # comment\n2 # another\n1\n# third\n255\n" + bytes([3, 4])
        img = read_netpbm(data)
        assert img.pixels[:, :, 0].tolist() == [[3, 4]]

    def test_trailing_bytes_ignored(self):
        img = read_netpbm(b"P5 1 1 255 \x07extra")
        assert img.pixels[:, :, 0].tolist() == [[7]]

    def test_short_payload(self):
        with pytest.raises(NetpbmError, match="payload"):
            read_netpbm(b"P5 4 4 255 " + bytes(8))

    @pytest.mark.peak
    def test_payload_is_viewed_not_copied(self):
        # the image is a view of the input bytes: reading a 512x512 RGB image allocates
        # no second payload (1 byte per sample)
        rng = np.random.default_rng(5)
        data = b"P6\n512 512\n255\n" + rng.integers(0, 256, 512 * 512 * 3, dtype=np.uint8).tobytes()
        with Peak() as peak:
            image = read_netpbm(data)
        assert peak.bytes < 0.05 * image.pixels.size
        assert image.pixels.tobytes() == data[15:]

    def test_mutable_input_is_copied(self):
        # a bytearray changed after the read leaves the image as it was read
        data = bytearray(b"P5 2 1 255 " + bytes([3, 4]))
        image = read_netpbm(data)
        data[-2:] = bytes([9, 9])
        assert image.pixels[:, :, 0].tolist() == [[3, 4]]

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

    def test_overlong_field(self):
        # int() refuses over 4,300 digits with a bare ValueError
        with pytest.raises(NetpbmError, match="width"):
            read_netpbm(b"P5 " + b"1" * 5000 + b" 1 255 " + bytes(4))

    def test_leading_zeros_are_not_digits(self):
        img = read_netpbm(b"P5 " + b"0" * 5000 + b"2 1 255 " + bytes([3, 4]))
        assert img.pixels[:, :, 0].tolist() == [[3, 4]]

    def test_header_cut_short(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"P5 2 2")

    def test_empty(self):
        with pytest.raises(NetpbmError):
            read_netpbm(b"")


def test_image_leaves_caller_array_writeable():
    # the image shares the caller's C-contiguous uint8 array through a read-only view
    px = np.zeros((4, 4, 3), np.uint8)
    image = RasterImage(px)
    assert px.flags.writeable and not image.pixels.flags.writeable
    assert np.shares_memory(image.pixels, px)


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


def test_long_filler_is_fast():
    # a whitespace run is one step of the lexer, not one per byte
    data = b"P5" + b" " * 2**20 + b"2 1 255 " + bytes([3, 4])
    started = time.perf_counter()
    assert read_netpbm(data).pixels[:, :, 0].tolist() == [[3, 4]]
    assert time.perf_counter() - started < 0.1


@pytest.mark.peak
def test_comment_run_memory_is_bounded():
    # 128 KB of comments: the lexer keeps no state per comment it passes, as a
    # pattern that repeats a group over comments would (about 15 MB here)
    data = b"P5" + b"#\n" * 2**16 + b"2 1 255 " + bytes([3, 4])
    with Peak() as peak:
        image = read_netpbm(data)
    assert image.pixels[:, :, 0].tolist() == [[3, 4]]
    assert peak.bytes < 16_384


def _lexer_calls(monkeypatch) -> list[str]:
    """The fields that netpbm's lexer reads from here on, in order."""
    return spy(monkeypatch, netpbm, "_token", lambda _, data, pos, field: field)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 3), (31, 24, 3), (7, 1000, 1), (2, 70001, 1)])
def test_canonical_header_is_one_match(shape, monkeypatch):
    # write_netpbm's header is read by one match: the lexer is never reached
    img = RasterImage(np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8))
    data = write_netpbm(img)
    calls = _lexer_calls(monkeypatch)
    assert read_netpbm(data) == img
    assert calls == []


@pytest.mark.parametrize("space", [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
def test_plain_headers_are_one_match(space, monkeypatch):
    # runs of each whitespace byte between the fields and fields of up to 20 digits, zero
    # padded: no comment, so one match reads them, with the lexer's pixels
    payload = bytes([3, 4, 5, 6, 7, 8])
    headers = [
        b"P5%s2%s3%s255%s" % (space, space * 3, space * 2, space),
        b"P6%s%s%s%s%s%s%s" % (space * 5, b"2".zfill(20), space, b"1".zfill(20), space * 2,
                                b"255".zfill(20), space),
    ]
    calls = _lexer_calls(monkeypatch)
    for data in (header + payload for header in headers):
        assert _outcome(read_netpbm, data) == _outcome(_reference_read, data)
    assert calls == []


@pytest.mark.parametrize(
    "header",
    [
        b"P5 # comment\n2 3 255 ",  # a comment
        b"P5 2 3 255#\n",  # a # right after the maxval, not the whitespace byte
        b"P5 " + b"2".zfill(21) + b" 3 255 ",  # a field of 21 digits
        b"P5 2 3 " + b"255".zfill(21) + b"\n",
        b"P6\n2 1\n#\n255\n",
        b" P5 2 3 255 ",  # whitespace before the magic
    ],
)
def test_other_headers_reach_the_lexer(header, monkeypatch):
    # any header the match does not take is the lexer's, with its pixels or error
    data = header + bytes(range(6))
    calls = _lexer_calls(monkeypatch)
    assert _outcome(read_netpbm, data) == _outcome(_reference_read, data)
    assert calls[:1] == ["magic"]


# The byte-at-a-time header lexer that the regular expression replaced, kept
# verbatim as the oracle for test_header_lexer_matches_reference.
_WHITESPACE = b" \t\n\r\x0b\x0c"


def _skip_filler(data: bytes, pos: int) -> int:
    """Advance past whitespace and # comments."""
    while pos < len(data):
        byte = data[pos : pos + 1]
        if byte == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        elif byte in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    pos = _skip_filler(data, pos)
    start = pos
    while pos < len(data):
        byte = data[pos : pos + 1]
        if byte in _WHITESPACE or byte == b"#":
            break
        pos += 1
    if pos == start:
        raise NetpbmError(f"header ended while reading {field}")
    return data[start:pos], pos


def _int_field(data: bytes, pos: int, field: str) -> tuple[int, int]:
    token, pos = _token(data, pos, field)
    if not token.isdigit():
        raise NetpbmError(f"{field} must be a decimal integer, got {token!r}")
    if len(token) > _MAX_DIGITS:
        token = token.lstrip(b"0") or b"0"
        if len(token) > _MAX_DIGITS:
            raise NetpbmError(f"{field} has more than {_MAX_DIGITS} significant digits")
    return int(token), pos


def _reference_read(data: bytes) -> RasterImage:
    magic, pos = _token(data, 0, "magic")
    channels = _MAGIC_CHANNELS.get(magic)
    if channels is None:
        raise NetpbmError(f"unsupported magic {magic!r}, expected P5 or P6")
    width, pos = _int_field(data, pos, "width")
    height, pos = _int_field(data, pos, "height")
    maxval, pos = _int_field(data, pos, "maxval")
    if width < 1 or height < 1:
        raise NetpbmError(f"dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise NetpbmError(f"maxval must be 255, got {maxval}")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise NetpbmError("maxval must be followed by a single whitespace byte")
    pos += 1
    expected = width * height * channels
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise NetpbmError(
            f"payload too short: need {expected} bytes, found {len(payload)}"
        )
    samples = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return RasterImage(samples)


# Filler pieces, the last two comments that run on into the next field, and bytes
# next to netpbm whitespace that are not whitespace in it
_FILLER = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"  \n\t", b"# x\n", b"#\n", b"#", b"#\r"]
_FILLER_P = np.array([1] * 9 + [0.15] * 2) / 9.3
_NEAR = [b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x85", b"\xa0", b"\x00", b"\xff", b"#"]


def _random_header(rng: np.random.Generator) -> bytes:
    """A P5/P6-like header of random filler, fields and stray bytes, cut at random."""
    magic = [b"P5", b"P6", b"P4", b"P", b"p5"][int(rng.choice(5, p=[0.45, 0.45, 0.04, 0.03, 0.03]))]
    parts = [magic]
    for value in (rng.integers(1, 5), rng.integers(1, 5), 255):
        fillers = rng.choice(len(_FILLER), int(rng.random() > 0.05) * rng.integers(1, 4), p=_FILLER_P)
        parts += [_FILLER[int(i)] for i in fillers]
        digits = b"%d" % value
        if rng.random() < 0.2:
            digits = b"0" * int(rng.choice([1, 19, 25])) + digits
        if rng.random() < 0.1:
            digits = bytes(b"0123456789"[d] for d in rng.integers(0, 10, rng.integers(1, 24)))
        parts.append(digits)
    parts.append([b" ", b"\n", b"\r", b"\t", b"\x0b", b"\x0c", b"#\n", b"", b"\x85"][int(rng.integers(0, 9))])
    data = bytearray(b"".join(parts) + bytes(rng.integers(0, 256, 60, dtype=np.uint8)))
    for _ in range(int(rng.random() < 0.3) * int(rng.integers(1, 3))):
        at = int(rng.integers(0, len(data) + 1))
        data[at:at] = _NEAR[int(rng.integers(0, len(_NEAR)))]
    if rng.random() < 0.2:
        data[int(rng.integers(0, len(data))) :] = b""
    return bytes(data)


def _outcome(read, data: bytes):
    try:
        return read(data).pixels.tolist()
    except NetpbmError as exc:
        return type(exc), str(exc)


def test_header_lexer_matches_reference(monkeypatch):
    # on seeded random headers the regular-expression lexer gives the byte-at-a-time
    # lexer's pixels, or its exception class and message, and so does the one match that
    # reads comment-free headers
    rng = np.random.default_rng(2024)
    calls = _lexer_calls(monkeypatch)
    parsed = 0
    paths = dict.fromkeys([(lexed, ok) for lexed in (False, True) for ok in (False, True)], 0)
    for _ in range(4000):
        data = _random_header(rng)
        expected = _outcome(_reference_read, data)
        calls.clear()
        assert _outcome(read_netpbm, data) == expected, data
        parsed += isinstance(expected, list)
        paths[bool(calls), isinstance(expected, list)] += 1
    assert 400 < parsed < 3600  # both outcomes are well represented
    # and so is each on both paths; about 7% of these headers are comment-free
    assert min(paths.values()) > 50, paths
