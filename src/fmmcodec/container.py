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

This module is framing only, as the block streams take and give samples:
``compress`` appends each channel's ``bitstream.append_samples`` stream to the
one buffer it returns; ``decompress`` makes the image from ``decode_plane``'s planes.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import core
from .bitstream import append_samples, block_fields, decode_plane
from .errors import CorruptStreamError, FmmError, FormatError, ModulusError
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


def compress(image: RasterImage, modulus: int = core.DEFAULT_MODULUS) -> bytearray:
    """Encode an image into one buffer; the result decompresses to its quantized form."""
    k = core.validate_modulus(modulus)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, k, image.width, image.height, image.channels))
    for channel in range(image.channels):
        at = len(out)
        out += bytes(_STREAM_LEN.size)  # the length, filled in once the stream is appended
        append_samples(out, image.pixels[:, :, channel], k)
        _STREAM_LEN.pack_into(out, at, len(out) - at - _STREAM_LEN.size)
    return out


def framing_bytes(channels: int) -> int:
    """Bytes of a container of channels streams that are not block streams: the header and
    each stream's length."""
    return HEADER_SIZE + channels * _STREAM_LEN.size


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


def _channel_streams(data: bytes, header: ContainerHeader) -> list[memoryview]:
    """Each channel's stream as a view into data, after checking the framing."""
    view = memoryview(data)
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
        streams.append(view[offset : offset + length])
        offset += length
    if offset != len(data):
        raise CorruptStreamError(f"{len(data) - offset} trailing bytes after the last stream")
    return streams


def _decode_channel(decode: Callable, channel: int, stream: memoryview, header: ContainerHeader):
    """decode(stream, height, width, k) of one channel's stream; a stream error is raised
    again with its channel first (``channel C: ...``)."""
    try:
        return decode(stream, header.height, header.width, header.modulus)
    except FmmError as exc:
        raise type(exc)(f"channel {channel}: {exc}") from None


def decompress(data: bytes) -> RasterImage:
    """Decode a container back to the quantized image it stores."""
    header = read_header(data)
    for channel, stream in enumerate(_channel_streams(data, header)):
        plane = _decode_channel(decode_plane, channel, stream, header)
        # one plane is the pixel array; three get one once the first passed the size bound
        if header.channels == 1:
            return RasterImage._own(plane[:, :, np.newaxis])
        if channel == 0:
            pixels = np.empty((header.height, header.width, header.channels), core.U8)
        pixels[:, :, channel] = plane
        del plane  # freed before the next channel is decoded
    return RasterImage._own(pixels)


def block_headers(data: bytes) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """(channel, row, col, cells, min, max_delta, delta width, bits) of every block.

    Every channel is decoded in the call, with decompress's checks in its order but no
    pixel array, so a file that decompress rejects raises its error before an iterator is
    returned. max_delta and the delta width are 0 for a repeated block; bits is the block's
    length.
    """
    header = read_header(data)
    streams = enumerate(_channel_streams(data, header))
    channels = [_decode_channel(block_fields, c, stream, header) for c, stream in streams]
    return itertools.chain.from_iterable(
        zip(itertools.repeat(channel), *(column.tolist() for column in fields))
        for channel, fields in enumerate(channels)
    )
