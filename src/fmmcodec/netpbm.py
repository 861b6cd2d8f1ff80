"""Binary netpbm (P5 grayscale, P6 RGB) parsing and serialization.

Only maxval 255 is accepted: the codec is defined on 8-bit samples. Reads
tolerate ``#`` comments anywhere header whitespace may appear; writes emit
one canonical form, so write - read - write is byte-stable.
"""

from __future__ import annotations

import re

import numpy as np

from .core import U8
from .errors import NetpbmError
from .image import RasterImage

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}

# No payload can satisfy a field with more significant digits than this,
# and int() refuses digit strings of over 4,300 digits with a bare ValueError.
_MAX_DIGITS = 20

# Whitespace, then a # comment to the end of its line or else the field. On
# bytes, \s and bytes.isspace() are netpbm's six whitespace bytes.
_FIELD = re.compile(rb"\s*(?:#[^\n]*|([^\s#]*))")
# A whole header without comments, as write_netpbm writes it, to the whitespace byte
# after the maxval: one match where the lexer takes four. Any other header, even one
# that differs only by a comment, is left to the lexer, which reads it alike.
_PLAIN = re.compile(rb"(P[56])\s+(\d{1,%d})\s+(\d{1,%d})\s+(\d{1,%d})\s" % ((_MAX_DIGITS,) * 3))


def _token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    match = _FIELD.match(data, pos)
    # one match per comment: a repeated group in the pattern would make re keep
    # about 200 bytes of backtracking state for each comment it passes
    while match[1] is None:
        match = _FIELD.match(data, match.end())
    if not match[1]:
        raise NetpbmError(f"header ended while reading {field}")
    return match[1], match.end()


def _int_field(data: bytes, pos: int, field: str) -> tuple[int, int]:
    token, pos = _token(data, pos, field)
    if not token.isdigit():
        raise NetpbmError(f"{field} must be a decimal integer, got {token!r}")
    if len(token) > _MAX_DIGITS:
        token = token.lstrip(b"0") or b"0"
        if len(token) > _MAX_DIGITS:
            raise NetpbmError(f"{field} has more than {_MAX_DIGITS} significant digits")
    return int(token), pos


def read_netpbm(data: bytes) -> RasterImage:
    """Parse binary P5/P6 bytes into an image.

    Exactly one whitespace byte separates the maxval from the payload, per
    the format; trailing bytes after the payload are ignored.
    """
    plain = _PLAIN.match(data)
    if plain:
        magic, width, height, maxval = plain.groups()
        channels = _MAGIC_CHANNELS[magic]
        width, height, maxval = int(width), int(height), int(maxval)
        pos = plain.end() - 1  # at the whitespace byte after the maxval
    else:
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
    if not data[pos : pos + 1].isspace():
        raise NetpbmError("maxval must be followed by a single whitespace byte")
    pos += 1
    expected = width * height * channels
    if len(data) - pos < expected:
        raise NetpbmError(f"payload too short: need {expected} bytes, found {len(data) - pos}")
    # a view of bytes, or of a copy of a mutable buffer, so the image cannot change
    return RasterImage._own(np.ndarray((height, width, channels), U8, bytes(data), pos))


def netpbm_header(image: RasterImage) -> bytes:
    """The canonical header that write_netpbm puts before the image's pixel bytes."""
    magic = b"P5" if image.channels == 1 else b"P6"
    return b"%s\n%d %d\n255\n" % (magic, image.width, image.height)


def write_netpbm(image: RasterImage) -> bytes:
    """Serialize to the canonical binary form: read(write(img)) == img."""
    return netpbm_header(image) + image.pixels.data
