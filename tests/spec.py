"""The README's block grammar read one field at a time from a string of '0' and '1'
characters: the tests' reference decoder, which shares no code with fmmcodec. It makes
decode_plane's checks in their order, so its first fault is the one decode_plane raises."""

from typing import NamedTuple

import numpy as np

from fmmcodec.errors import CorruptStreamError, FmmError, TruncatedStreamError


class Decoded(NamedTuple):
    plane: np.ndarray  # the indices, not yet times k
    starts: list[int]  # each block's first bit and, last, the end bit
    lows: list[int]  # each block's min_index
    spreads: list[int]  # each block's max_delta, 0 for a repeated block


class Fault(NamedTuple):
    error: type[FmmError]  # the class decode_plane raises
    block: tuple[int, int] | None  # (row, col), None for a fault of the whole stream
    bit: int | None  # the block's first bit
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
                shifts = range(end - pos - dw, -1, -dw)
                indices = [lo + (fields >> shift & (1 << dw) - 1) for shift in shifts]
                pos = end
                if max(indices) > top:
                    return fault(CorruptStreamError, "index")
            lows.append(lo)
            spreads.append(spread)
            plane[8 * row : 8 * row + 8, 8 * col : 8 * col + 8].flat = indices  # row-major
    starts.append(pos)
    if len(stream) != (pos + 7) // 8:  # the padding's bits are not read
        return Fault(CorruptStreamError, None, None, "trailing")
    return Decoded(plane, starts, lows, spreads)
