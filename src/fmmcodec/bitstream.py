"""8x8 block tiling and the per-block bit-stream protocol.

A plane of indices is tiled into row-major 8x8 blocks; edge blocks keep
their true, smaller size. Block grammar, all fields most-significant-bit
first, W = bit_length(255 // k) (W = 6 for the default modulus 5):

    min_index   W bits        smallest index in the block
    repetition  1 bit         1 if every index equals min_index, else 0
    max_delta   W bits        only when repetition = 0; always >= 1
    deltas      rows * cols   fields of bit_length(max_delta) bits each,
                              row-major, delta = index - min_index

A constant block is always sent with repetition = 1, so repetition = 0
with max_delta = 0 is not canonical and the decoder rejects it. Blocks
are written back to back with no byte alignment between them, and the
stream is zero-padded to a whole byte.

Both directions pack a block's deltas as one Python integer. A block's
indices, one byte each and read as a big-endian integer, hold every
value in its own 8-bit lane; ``_pack`` squeezes the lanes to the delta
width in log2(cells) mask-and-shift steps and ``_unpack`` undoes them.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_MODULUS, max_index
from .errors import CorruptStreamError, TruncatedStreamError

BLOCK_SIZE = 8
_CELLS = BLOCK_SIZE * BLOCK_SIZE
# _ONES[n] has the value 1 in each of its n low byte lanes.
_ONES = [(256**n - 1) // 255 for n in range(_CELLS + 1)]


def _lane_mask(lane_bits: int, field_bits: int) -> int:
    """Low field_bits of every lane_bits-wide lane across 64 byte lanes."""
    field = (1 << field_bits) - 1
    return sum(field << shift for shift in range(0, 8 * _CELLS, lane_bits))


# Step j (1..6) merges lanes of 8 << (j - 1) bits pairwise: the even lanes
# stay put and each odd lane moves down onto the end of its even neighbour.
_EVEN_LANES = [_lane_mask(16 << j, 8 << j) for j in range(6)]
# _FIELD_LANES[width][j] keeps, per merged lane, the low field of step j + 1.
_FIELD_LANES = [[_lane_mask(16 << j, width << j) for j in range(6)] for width in range(8)]


def _pack(lanes: int, cells: int, width: int) -> int:
    """Squeeze cells byte lanes holding width-bit values into cells * width bits."""
    for j in range((cells - 1).bit_length()):
        even = lanes & _EVEN_LANES[j]
        lanes = (lanes ^ even) >> ((8 - width) << j) | even
    return lanes


def _unpack(fields: int, cells: int, width: int) -> int:
    """Inverse of _pack: spread cells width-bit fields into byte lanes."""
    masks = _FIELD_LANES[width]
    for j in reversed(range((cells - 1).bit_length())):
        low = fields & masks[j]
        fields = (fields ^ low) << ((8 - width) << j) | low
    return fields


def index_field_width(k: int = DEFAULT_MODULUS) -> int:
    """Bits used by the min_index and max_delta fields (6 for k = 5)."""
    return max_index(k).bit_length()


class BlockFields(NamedTuple):
    """One decoded block: its grid position, protocol fields and indices."""

    row: int
    col: int
    min_index: int
    repeated: bool
    max_delta: int | None
    delta_width: int | None
    bit_length: int
    values: np.ndarray

    @property
    def payload_bits(self) -> int:
        """Bits spent on the packed deltas alone (0 for a repeated block)."""
        return 0 if self.repeated else self.values.size * self.delta_width


def encode_plane(indices, k: int = DEFAULT_MODULUS) -> bytes:
    """Block stream of a 2D index plane, final partial byte zero-padded."""
    top = max_index(k)
    plane = np.asarray(indices)
    if plane.ndim != 2 or plane.size == 0:
        raise ValueError(f"expected a nonempty 2D plane, got shape {plane.shape}")
    if not np.issubdtype(plane.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {plane.dtype}")
    if int(plane.min()) < 0 or int(plane.max()) > top:
        raise ValueError(f"index out of range 0..{top}")
    plane = plane.astype(np.uint8, copy=False)
    w = top.bit_length()
    height, width = plane.shape
    out = bytearray()
    acc = nbits = 0  # pending bits that do not yet fill a byte, and how many
    for y in range(0, height, BLOCK_SIZE):
        for x in range(0, width, BLOCK_SIZE):
            cells = plane[y : y + BLOCK_SIZE, x : x + BLOCK_SIZE].tobytes()
            lo, hi = min(cells), max(cells)
            if lo == hi:
                acc = (acc << (w + 1)) | (lo << 1) | 1
                nbits += w + 1
            else:
                n, dw = len(cells), (hi - lo).bit_length()
                deltas = _pack(int.from_bytes(cells, "big") - lo * _ONES[n], n, dw)
                header = lo << (w + 1) | (hi - lo)  # repetition bit 0 between them
                acc = (acc << (2 * w + 1) | header) << n * dw | deltas
                nbits += 2 * w + 1 + n * dw
            rem = nbits & 7
            out += (acc >> rem).to_bytes(nbits >> 3, "big")
            acc &= (1 << rem) - 1
            nbits = rem
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def iter_blocks(
    stream: bytes, height: int, width: int, k: int = DEFAULT_MODULUS
) -> Iterator[BlockFields]:
    """Checked fields of every block of a stream, in row-major grid order.

    The stream must hold exactly the blocks of a height x width plane.
    Corrupt fields raise CorruptStreamError and a short stream raises
    TruncatedStreamError. A stream too short for even one header per
    block is rejected here, before any block is read.
    """
    top = max_index(k)
    w = top.bit_length()
    if height < 1 or width < 1:
        raise ValueError(f"dimensions must be at least 1x1, got {width}x{height}")
    blocks = -(-height // BLOCK_SIZE) * -(-width // BLOCK_SIZE)
    if blocks * (w + 1) > 8 * len(stream):
        raise TruncatedStreamError(
            f"{blocks} blocks need at least {blocks * (w + 1)} bits, "
            f"the stream has {8 * len(stream)}"
        )
    return _blocks(stream, height, width, w, top)


def _blocks(stream: bytes, height: int, width: int, w: int, top: int) -> Iterator[BlockFields]:
    """The block walk behind iter_blocks, which runs its own checks eagerly."""
    total = 8 * len(stream)
    pos = 0
    for row, y in enumerate(range(0, height, BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, height - y)
        for col, x in enumerate(range(0, width, BLOCK_SIZE)):
            cols = min(BLOCK_SIZE, width - x)
            start = pos
            # a header is at most 2 * 7 + 1 bits: from any bit offset it fits 4 bytes
            window = int.from_bytes(stream[pos >> 3 : (pos >> 3) + 4].ljust(4, b"\0"), "big")
            window = (window << (pos & 7)) & 0xFFFFFFFF
            if pos + w + 1 > total:
                raise TruncatedStreamError(f"needed {w + 1} bits, only {total - pos} left")
            lo, repeated = window >> (32 - w), window >> (31 - w) & 1
            if lo > top:
                raise CorruptStreamError(f"block minimum {lo} exceeds index limit {top}")
            if repeated:
                pos += w + 1
                values = np.full((rows, cols), lo, dtype=np.uint8)
                yield BlockFields(row, col, lo, True, None, None, pos - start, values)
                continue
            if pos + 2 * w + 1 > total:
                raise TruncatedStreamError(f"needed {w} bits, only {total - pos - w - 1} left")
            spread = window >> (31 - 2 * w) & ((1 << w) - 1)
            if spread == 0:
                raise CorruptStreamError("non-repeated block with zero max_delta is not canonical")
            if lo + spread > top:
                raise CorruptStreamError(f"block range {lo}+{spread} exceeds index limit {top}")
            pos += 2 * w + 1
            n, dw = rows * cols, spread.bit_length()
            end = pos + n * dw
            if end > total:
                raise TruncatedStreamError(f"needed {n * dw} bits, only {total - pos} left")
            fields = int.from_bytes(stream[pos >> 3 : (end + 7) >> 3], "big")
            fields = (fields >> (-end & 7)) & ((1 << n * dw) - 1)
            cells = (_unpack(fields, n, dw) + lo * _ONES[n]).to_bytes(n, "big")
            values = np.frombuffer(cells, dtype=np.uint8).reshape(rows, cols)
            pos = end
            yield BlockFields(row, col, lo, False, spread, dw, pos - start, values)
    if len(stream) != (pos + 7) // 8:
        raise CorruptStreamError(
            f"stream is {len(stream)} bytes but its blocks need {(pos + 7) // 8}"
        )


def decode_plane(stream: bytes, height: int, width: int, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Index plane of a block stream; exact inverse of encode_plane."""
    blocks = iter_blocks(stream, height, width, k)
    plane = np.empty((height, width), dtype=np.uint8)
    for block in blocks:
        y, x = block.row * BLOCK_SIZE, block.col * BLOCK_SIZE
        plane[y : y + BLOCK_SIZE, x : x + BLOCK_SIZE] = block.values
    if int(plane.max()) > max_index(k):
        raise CorruptStreamError("decoded index exceeds the modulus limit")
    return plane
