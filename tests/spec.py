"""The README's block grammar in both directions, one field at a time on strings of '0' and
'1' characters: the tests' reference encoder and decoder, which share no code with fmmcodec.
The decoder makes decode_plane's checks in their order, so its first fault is the one
decode_plane raises."""

from typing import NamedTuple

import numpy as np

from fmmcodec.errors import CorruptStreamError, FmmError, TruncatedStreamError

# every field of each delta width, in that many '0' and '1' characters
FIELDS = [[format(value, f"0{dw}b") for value in range(1 << dw)] for dw in range(8)]


def block_coding(indices: list[int], lo: int, spread: int, w: int) -> str:
    """A block's bits with min_index lo and max_delta spread, repeated where spread is 0, and
    each index less lo in bit_length(spread) bits: the encoder's coding where lo and spread
    are the indices' min and spread, and another coding, valid or not, where they are not."""
    if not spread:
        return format(lo, f"0{w}b") + "1"
    fields = FIELDS[spread.bit_length()]
    return f"{lo:0{w}b}0{spread:0{w}b}" + "".join([fields[index - lo] for index in indices])


def reference_block_bits(values: np.ndarray, k: int = 5) -> str:
    """The bits of a block of indices at modulus k, as the encoder writes them."""
    lo, hi = int(values.min()), int(values.max())
    return block_coding(values.ravel().tolist(), lo, hi - lo, (255 // k).bit_length())


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


def reference_stream(plane: np.ndarray, k: int = 5) -> bytes:
    """The stream of an index plane at modulus k, as the encoder writes it."""
    return bits_to_bytes(reference_plane_bits(plane, k))


class Decoded(NamedTuple):
    plane: np.ndarray  # the indices, not yet times k
    starts: list[int]  # each block's first bit and, last, the end bit
    lows: list[int]  # each block's min_index
    spreads: list[int]  # each block's max_delta, 0 for a repeated block


class Fault(NamedTuple):
    error: type[FmmError]  # the class decode_plane raises
    block: tuple[int, int] | None  # (row, col), None for a fault of the whole stream
    bit: int | None  # the block's first bit, the end bit for trailing bytes, None for the size
    check: str  # size, header, min, max_delta, range, deltas, index or trailing


def reference_decode(stream: bytes, height: int, width: int, k: int) -> Decoded | Fault:
    """The blocks of a height x width plane's stream at modulus k, or its first fault."""
    top = 255 // k
    w = top.bit_length()
    bits = format(int.from_bytes(stream, "big"), f"0{8 * len(stream)}b") if stream else ""
    rows, cols = -(-height // 8), -(-width // 8)
    if rows * cols * (w + 1) > len(bits):  # every block takes at least its min and repetition
        return Fault(TruncatedStreamError, None, None, "size")
    plane = np.zeros((height, width), dtype=np.uint8)
    starts, lows, spreads = [], [], []
    pos = 0

    def fault(error: type[FmmError], check: str) -> Fault:
        return Fault(error, (row, col), starts[-1], check)

    for row in range(rows):
        for col in range(cols):
            size = min(8, height - 8 * row) * min(8, width - 8 * col)
            starts.append(pos)
            if pos + w + 1 > len(bits):
                return fault(TruncatedStreamError, "header")
            lo, repeated = int(bits[pos : pos + w], 2), bits[pos + w] == "1"
            pos += w + 1
            if lo > top:
                return fault(CorruptStreamError, "min")
            spread, indices = 0, [lo] * size
            if not repeated:
                if pos + w > len(bits):
                    return fault(TruncatedStreamError, "header")
                spread = int(bits[pos : pos + w], 2)
                pos += w
                if spread == 0:
                    return fault(CorruptStreamError, "max_delta")
                if lo + spread > top:
                    return fault(CorruptStreamError, "range")
                dw = spread.bit_length()
                end = pos + size * dw
                if end > len(bits):
                    return fault(TruncatedStreamError, "deltas")
                fields = int(bits[pos:end], 2)  # the first field in the highest bits
                mask, shifts = (1 << dw) - 1, range(end - pos - dw, -1, -dw)
                indices = [lo + (fields >> shift & mask) for shift in shifts]
                pos = end
                if max(indices) > top:
                    return fault(CorruptStreamError, "index")
            lows.append(lo)
            spreads.append(spread)
            plane[8 * row : 8 * row + 8, 8 * col : 8 * col + 8].flat = indices  # row-major
    starts.append(pos)
    if len(stream) != (pos + 7) // 8:  # the padding's bits are not read
        return Fault(CorruptStreamError, None, pos, "trailing")
    return Decoded(plane, starts, lows, spreads)
