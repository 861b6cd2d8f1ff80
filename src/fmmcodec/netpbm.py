"""Binary netpbm (P5 grayscale, P6 RGB) parsing and serialization.

Only maxval 255 is accepted: the codec is defined on 8-bit samples. Reads
tolerate ``#`` comments anywhere header whitespace may appear; writes emit
one canonical form, so write - read - write is byte-stable.
"""

from __future__ import annotations

import numpy as np

from .errors import NetpbmError
from .image import RasterImage

_WHITESPACE = b" \t\n\r\x0b\x0c"

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}


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
    return int(token), pos


def read_netpbm(data: bytes) -> RasterImage:
    """Parse binary P5/P6 bytes into an image.

    Exactly one whitespace byte separates the maxval from the payload, per
    the format; trailing bytes after the payload are ignored.
    """
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


def write_netpbm(image: RasterImage) -> bytes:
    """Serialize to the canonical binary form: read(write(img)) == img."""
    magic = b"P5" if image.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    return header + image.pixels.data
