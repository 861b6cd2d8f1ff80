"""The .fmm container: header plus per-channel block streams.

Layout, all multi-byte integers big-endian:

    bytes 0..3    magic "FMM1"
    byte  4       format version, currently 1
    byte  5       modulus k, odd, 3..127
    bytes 6..9    width,  unsigned 32-bit
    bytes 10..13  height, unsigned 32-bit
    byte  14      channel count, 1 or 3

then for each channel an unsigned 32-bit byte length followed by that many
bytes of bit-packed blocks (row-major block-grid order, final partial byte
zero-padded). Decoding returns the quantized image, so a compressed file
decodes bit-identically no matter where it is read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import core
from .bitstream import BlockFields, decode_plane, encode_plane, iter_blocks
from .errors import CorruptStreamError, FormatError, ModulusError
from .image import RasterImage

MAGIC = b"FMM1"
VERSION = 1
_HEADER = struct.Struct(">4sBBIIB")
_STREAM_LEN = struct.Struct(">I")
HEADER_SIZE = _HEADER.size


@dataclass(frozen=True)
class ContainerHeader:
    modulus: int
    width: int
    height: int
    channels: int


def compress(image: RasterImage, modulus: int = core.DEFAULT_MODULUS) -> bytes:
    """Encode an image; the result decompresses to its quantized form."""
    k = core.validate_modulus(modulus)
    parts = [_HEADER.pack(MAGIC, VERSION, k, image.width, image.height, image.channels)]
    for channel in range(image.channels):
        stream = encode_plane(core.quantize_indices(image.plane(channel), k), k)
        parts.append(_STREAM_LEN.pack(len(stream)))
        parts.append(stream)
    return b"".join(parts)


def read_header(data: bytes) -> ContainerHeader:
    """Parse and validate the 15-byte container header."""
    if len(data) < HEADER_SIZE:
        raise FormatError(f"container too short for a header: {len(data)} bytes")
    magic, version, k, width, height, channels = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}, expected {VERSION}")
    try:
        core.validate_modulus(k)
    except ModulusError as exc:
        raise FormatError(f"header carries an invalid modulus: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"dimensions must be at least 1x1, got {width}x{height}")
    if channels not in (1, 3):
        raise FormatError(f"channels must be 1 or 3, got {channels}")
    return ContainerHeader(k, width, height, channels)


def _channel_streams(data: bytes, header: ContainerHeader) -> list[bytes]:
    offset = HEADER_SIZE
    streams = []
    for channel in range(header.channels):
        if offset + _STREAM_LEN.size > len(data):
            raise CorruptStreamError(f"missing stream length for channel {channel}")
        (length,) = _STREAM_LEN.unpack_from(data, offset)
        offset += _STREAM_LEN.size
        if offset + length > len(data):
            raise CorruptStreamError(
                f"channel {channel} stream truncated: declared {length} bytes, "
                f"{len(data) - offset} available"
            )
        streams.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise CorruptStreamError(f"{len(data) - offset} trailing bytes after the last stream")
    return streams


def decompress(data: bytes) -> RasterImage:
    """Decode a container back to the quantized image it stores."""
    header = read_header(data)
    height, width, k = header.height, header.width, header.modulus
    # each plane is allocated only after its own stream passed the size bound
    planes = (decode_plane(stream, height, width, k) for stream in _channel_streams(data, header))
    return RasterImage(core.from_indices(np.stack(list(planes), axis=-1), k))


def iter_block_fields(data: bytes) -> Iterator[tuple[int, BlockFields]]:
    """Walk a container block by block: (channel, fields)."""
    header = read_header(data)
    for channel, stream in enumerate(_channel_streams(data, header)):
        for fields in iter_blocks(stream, header.height, header.width, header.modulus):
            yield channel, fields
