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

Samples go in and come out: ``append_samples`` gathers each strip's
samples into its row words and quantizes them there by
``core.to_indices`` (a plane of under STRIP_BLOCKS blocks is translated
whole by ``core.index_table``), and each decoder writes an index, once
checked, as that index times k.

A plane of fewer than STRIP_BLOCKS blocks is coded one block at a time,
and each block's deltas are packed as one Python integer: a block's
indices, one byte each and read as a big-endian integer, hold every
value in its own 8-bit lane; ``_pack`` squeezes the lanes to the delta
width in log2(cells) mask-and-shift steps and ``_unpack`` undoes them.
This per-block loop (``_decode_blocks``) checks each block's header, then
its decoded indices, before it reads the next header, so the first fault in
stream order is the one raised; it is the only code that raises an error
for a block.

A larger plane is coded in strips of consecutive blocks: the fewest
whole block rows that hold at least n blocks, or, where one block row
holds more, runs of n blocks along it, so a strip has fewer than 2 * n
blocks whatever the plane's shape. The encoder, with n = 16 * STRIP_BLOCKS on any
plane, gives each block its header and its 8 rows, each at the bottom of a 64-bit word:
``_pack_rows`` squeezes a row's indices less the block's min, one big-endian word, by
masks that serve every delta width. Where a header and a whole row fit one word,
2W + 1 + 8W <= 64 bits (W <= 6, every modulus but 3), the header joins row 0, so a block
is 8 fields, not 9. numpy adds each field by the bit where it ends: its low bits to the
top of that bit's word, the rest to the bottom of the word before. It packs the row
words of at most 8 * STRIP_BLOCKS blocks at a time, and places 3 fields of each block
at a time, or 2 on a longer strip. Where a strip's blocks are all full and of one delta
width, as on noise, that width and the row, header and block lengths are ints: the
packing and the shifts take scalar operands and the blocks' starts are one arange.
The decoder first reads the headers of the whole plane in one pass (``_chase``):
one Python step per block in stream order, from its repetition bit to the next
block's, through a table of block lengths indexed by that bit and max_delta, the
block's key (2^(W+1) entries, built once per modulus and cell count), on 16-bit
``_windows`` built two groups' reach at a time, a group being 8 * STRIP_BLOCKS
blocks. The pass reads the count of cells before each block once per plane, and
takes each stepped group's cell count from it. A stepped group whose length is that
of blocks whose keys all have one bit length, as on noise, where every block has
W-bit deltas, makes the pass guess that the blocks after it are alike: numpy sums
the guessed lengths into each block's repetition bit from those counts, over a run
of a group's blocks more than the guess has held for, and reads the keys there with
``_bits_at``, which returns the bits at given offsets. The run's first bit is
known, so every guessed bit up to that of the first key of another bit length is
proven, and the steps go on from that block, a group at a time, which may make a
guess again. The grammar does not resynchronise, so no guess is kept unchecked.
``_bits_at`` then reads every header at once, numpy checks them and takes each
block's delta width and row length once per plane; ``block_fields`` gives the same
headers, so no plane is walked twice. Strips of n = 16 * STRIP_BLOCKS blocks, or of
a quarter of the plane's blocks if fewer, decode a block row per 64-bit word: a row
is at most 56 bits long, so the window at its first bit, joined from two aligned words,
holds it, and ``_unpack_rows`` spreads 8 fields into 8 byte lanes in the steps
of ``_unpack``, with scalar operands where the strip's blocks have one delta
width; such a strip without an edge column takes its rows' first bits from one outer
sum of 8 row offsets and the blocks' starts. Lanes past an edge block's columns or
rows hold whatever bits follow and are sliced away. This fast path
raises nothing: if the pass runs past the stream, a check fails or an index
decodes above the limit, it gives up and the per-block loop decodes the plane
again and raises the error. Bytes past the last block are the one fault neither
decoder looks for: ``decode_plane`` rejects them from the end bit that either
decoder returns. So every plane size raises the same errors and messages.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .core import DEFAULT_MODULUS, U8, index_table, to_indices
from .errors import CorruptStreamError, FmmError, TruncatedStreamError

BLOCK_SIZE = 8
_CELLS = BLOCK_SIZE * BLOCK_SIZE
# Planes of at least this many blocks are coded with numpy in strips of sixteen times
# as many blocks, or to decode of a quarter of the plane's if fewer; smaller planes take
# the per-block loop, where a 1x1 plane takes 6 us against 220 as a strip. On a 2-core
# VM, strips of 512 blocks code the photo_rgb benchmark faster than strips of 256
# (encode 39%, decode 15%), and strips of 1,024 code it faster than strips of 512
# (decode about 10%, encode about 20%), as an encoding strip costs about 100 us plus
# 0.2 us a block; a strip of full blocks of one delta width, as on uniform noise,
# encodes with scalar operands in about a quarter less. An encoding strip works in
# about 140 bytes per block beside the stream it appends, and compressing 256x256
# noise, one strip, peaks at 2.9 bytes per sample (the bound is 4). A decoding strip
# works in about 4 bytes per cell (260 KB for 1,024 noise blocks): its stream bytes,
# then three words per block row.
STRIP_BLOCKS = 64
_BIT_LENGTH = np.array([v.bit_length() for v in range(256)], dtype=np.uint8)
# _ONES[n] has the value 1 in each of its n low byte lanes.
_ONES = [(256**n - 1) // 255 for n in range(_CELLS + 1)]
_HIGH = [128 * ones for ones in _ONES]


def _lane_mask(lane_bits: int, field_bits: int) -> int:
    """Low field_bits of every lane_bits-wide lane across 64 byte lanes."""
    field = (1 << field_bits) - 1
    return sum(field << shift for shift in range(0, 8 * _CELLS, lane_bits))


# Step j (1..6) of _pack merges lanes of 8 << (j - 1) bits pairwise: the even
# lanes stay put and each odd lane moves down onto the end of its even neighbour.
# _FIELD_LANES[width][j] keeps, per merged lane, the low field of step j + 1:
# the whole even lane, as only its low width << j bits can be set.
_FIELD_LANES = [[_lane_mask(16 << j, width << j) for j in range(6)] for width in range(8)]
# _ROW_STEPS[:, width], for _unpack_rows: the shift that brings 8 fields down from the top
# of a 64-bit word, then ~mask and 2^shift - 1 for each step of _unpack on 8 cells, since
# that step's (f ^ low) << shift | low, with low = f & mask, is f + (f & ~mask) * (2^shift - 1)
_ROW_STEPS = np.array(
    [
        [64 - 8 * w] + [v for j in (2, 1, 0) for v in (~m[j] % 2**64, (1 << ((8 - w) << j)) - 1)]
        for w, m in enumerate(_FIELD_LANES)
    ],
    dtype=np.uint64,
).T
# The odd lanes of steps 1, 2 and 3 of _pack_rows, for any width: the whole upper lane of
# each pair, as a merged lane's bits above its fields are 0
_ODD_LANES = [np.uint64(~_lane_mask(16 << j, 8 << j) % 2**64) for j in range(3)]


def _pack(lanes: int, cells: int, width: int) -> int:
    """Squeeze cells byte lanes holding width-bit values into cells * width bits."""
    masks = _FIELD_LANES[width]
    for j in range((cells - 1).bit_length()):
        even = lanes & masks[j]
        lanes = (lanes ^ even) >> ((8 - width) << j) | even
    return lanes


def _unpack(fields: int, cells: int, width: int) -> int:
    """Inverse of _pack: spread cells width-bit fields into byte lanes."""
    masks = _FIELD_LANES[width]
    for j in reversed(range((cells - 1).bit_length())):
        low = fields & masks[j]
        fields = (fields ^ low) << ((8 - width) << j) | low
    return fields


def _unpack_rows(fields: np.ndarray, widths: np.ndarray | np.integer) -> np.ndarray:
    """In place, _unpack(f >> 64 - 8 * dw, 8, dw) of each uint64 f, for widths' dw on its axes,
    or for one dw where widths is a scalar, whose steps are then scalar operands."""
    steps = _ROW_STEPS.take(widths, axis=1)
    fields >>= steps[0]  # numpy shifts by 64 to 0, so a row of width 0 reads 0
    for high, times in zip(steps[1::2], steps[2::2]):
        high = fields & high
        high *= times
        fields += high
    return fields


def _pack_rows(words: np.ndarray, widths: np.ndarray | int) -> np.ndarray:
    """In place, _pack(l, 8, dw) of the 8 byte lanes l of each uint64, for widths' dw on its
    axes, or for one dw where widths is an int, whose shifts are then scalars; each lane
    holds a dw-bit value, so the masks are those of any width."""
    odd = np.empty_like(words)
    shifts = np.subtract(BLOCK_SIZE, widths, dtype=np.uint64)
    for mask in _ODD_LANES:
        np.bitwise_and(words, mask, out=odd)
        words ^= odd
        odd >>= shifts
        words |= odd
        shifts <<= np.uint64(1)  # numpy 1 makes a uint64 scalar shifted by an int a float
    return words


@contextmanager
def _strip_buffers(blocks: int) -> Iterator[None]:
    """Code a plane of blocks blocks under numpy's 1,024-element ufunc buffer, not its
    default 8,192, if it has more than 32 * STRIP_BLOCKS blocks, so decoding strips of more
    than 8 * STRIP_BLOCKS: their broadcast operands then stay in cache and add less to the
    peak (encode about 6% faster); a smaller plane would lose the 2 to 4 us the setting
    costs, and a 256x256 one, encoded as one strip of 16 * STRIP_BLOCKS, gains nothing."""
    if blocks <= 32 * STRIP_BLOCKS:
        yield
        return
    buffers = np.setbufsize(1024)
    try:
        yield
    finally:
        np.setbufsize(buffers)


def _grid(height: int, width: int) -> tuple[int, int]:
    """Block rows and block columns of a height x width plane."""
    return -(-height // BLOCK_SIZE), -(-width // BLOCK_SIZE)


def _sides(n: int) -> np.ndarray:
    """Each block's extent along a side of n pixels: BLOCK_SIZE, but at most the pixels left."""
    return np.minimum(n - np.arange(0, n, BLOCK_SIZE), BLOCK_SIZE)


def _strips(height: int, width: int, blocks: int) -> Iterator[tuple[slice, slice]]:
    """Pixel rows and columns of each strip of about blocks blocks, in stream order."""
    rows = -(-blocks // _grid(1, width)[1]) * BLOCK_SIZE
    cols = blocks * BLOCK_SIZE
    for y in range(0, height, rows):
        for x in range(0, width, cols):
            yield slice(y, min(y + rows, height)), slice(x, min(x + cols, width))


def append_samples(out: bytearray, samples: np.ndarray, k: int = DEFAULT_MODULUS) -> None:
    """Append the block stream of a nonempty 2D uint8 sample plane's indices to out,
    quantizing each strip in its row words by to_indices, or a plane of under STRIP_BLOCKS
    blocks whole by bytes.translate of index_table(k), where the arithmetic's fixed cost
    would outweigh its samples."""
    if samples.dtype != U8 or samples.ndim != 2 or samples.size == 0:
        raise ValueError(f"expected a nonempty 2D uint8 plane, got {samples.dtype} {samples.shape}")
    table = index_table(k)
    w = table[-1].bit_length()  # the last byte is the largest index, 255 // k
    height, width = samples.shape
    rows, cols = _grid(height, width)
    acc = nbits = 0  # pending bits that do not yet fill a byte, and how many
    if rows * cols >= STRIP_BLOCKS:
        with _strip_buffers(rows * cols):
            for strip in _strips(height, width, 16 * STRIP_BLOCKS):
                acc, nbits = _encode_strip(samples[strip], k, w, out, acc, nbits)
    else:
        plane = np.ndarray((height, width), U8, samples.tobytes().translate(table))
        for y in range(0, height, BLOCK_SIZE):
            for x in range(0, width, BLOCK_SIZE):
                cells = plane[y : y + BLOCK_SIZE, x : x + BLOCK_SIZE].tobytes()
                n = len(cells)
                if cells.count(cells[0]) == n:  # a repeated block, found without min and max
                    acc = (acc << (w + 1)) | (cells[0] << 1) | 1
                    nbits += w + 1
                else:
                    lo, hi = min(cells), max(cells)
                    dw = (hi - lo).bit_length()
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


def _encode_strip(
    samples: np.ndarray, k: int, w: int, out: bytearray, acc: int, nbits: int
) -> tuple[int, int]:
    """Append the blocks of a strip of samples, quantized by modulus k, to out, all at once;
    returns the new carry.

    The samples, contiguous or a channel view of interleaved pixels, are gathered straight
    into the row words and quantized there by to_indices; only an edge strip is copied, to
    pad it. Each block is 8 or 9 fields (see the module docstring); an edge block's row keeps
    the fields of its c columns, and its rows past its last row are empty. Packing works on at
    most the 8 row words of 8 * STRIP_BLOCKS blocks at a time.
    """
    rows, width = samples.shape
    grid_rows, grid_cols = grid = _grid(rows, width)
    blocks = grid_rows * grid_cols
    if rows % BLOCK_SIZE or width % BLOCK_SIZE:
        # padding samples pads their indices, as quantizing works per sample
        samples = np.pad(samples, ((0, -rows % BLOCK_SIZE), (0, -width % BLOCK_SIZE)), mode="edge")
    # fields[0] is each block's header and fields[1 + y] its row y, at first as 8 index bytes
    fields = np.empty((1 + BLOCK_SIZE, blocks), dtype=np.uint64)
    words = fields[1:]
    cells = words.view(np.uint8).reshape(BLOCK_SIZE, grid_rows, grid_cols, BLOCK_SIZE)
    cells[...] = samples.reshape(grid_rows, BLOCK_SIZE, grid_cols, BLOCK_SIZE).swapaxes(0, 1)
    del samples  # an edge strip's padded copy
    to_indices(words.view(np.uint8), k)
    cells = cells.reshape(BLOCK_SIZE, -1, BLOCK_SIZE)
    # each block column's extreme over its rows, then over the columns: a reduce into
    # contiguous (blocks, 8) bytes, which the headers' words lend until they are written,
    # and a transposed copy take a third of the time of one reduce into the transpose
    columns = fields[0].view(np.uint8).reshape(-1, BLOCK_SIZE)
    lanes = np.empty(words.shape, dtype=np.uint8)
    lanes[...] = np.minimum.reduce(cells, out=columns).T
    lo = np.minimum.reduce(lanes)
    lanes[...] = np.maximum.reduce(cells, out=columns).T
    spread = np.maximum.reduce(lanes) - lo
    del columns, lanes  # before the packing makes its temporaries
    words[...] = words.view(">u8")  # each row's 8 bytes as one big-endian word, on any host
    words -= lo * np.uint64(_ONES[BLOCK_SIZE])
    dw = _BIT_LENGTH[spread]
    # a strip of full blocks of one delta width, as on uniform noise, takes that width,
    # and so its row, header and block lengths, as ints: scalar operands below
    one = not (rows % BLOCK_SIZE or width % BLOCK_SIZE) and dw.min() == dw.max()
    dw = int(dw[0]) if one else dw.reshape(grid)
    # each row squeezed to its deltas, all 8 rows at once but on a strip of more than
    # 8 * STRIP_BLOCKS blocks, which has fewer than 32 * STRIP_BLOCKS, so 2 rows at least
    step = BLOCK_SIZE * 8 * STRIP_BLOCKS // blocks
    block_rows = words.reshape(BLOCK_SIZE, *grid)
    for y in range(0, BLOCK_SIZE, step):
        _pack_rows(block_rows[y : y + step], dw)
    if one:  # each block starts one block length after the last
        row_bits, heads = BLOCK_SIZE * dw, (2 * w + 1 if dw else w + 1)
        size = heads + BLOCK_SIZE * row_bits
        total = nbits + blocks * size
        starts = np.arange(nbits, total, size)
    else:
        cols, heights = _sides(width), _sides(rows)
        if width % BLOCK_SIZE:  # an edge block's row keeps the fields of its c columns
            block_rows >>= ((BLOCK_SIZE - cols) * dw).astype(np.uint64)
        block_rows[heights[-1] :, -1] = 0  # and its rows past its last are empty
        row_bits = (dw * cols).ravel()
        heads = np.where(spread, 2 * w + 1, w + 1)
        sizes = (row_bits.reshape(grid) * heights[:, None]).ravel() + heads
        starts = np.cumsum(sizes) - sizes + nbits
        total = int(starts[-1] + sizes[-1])
        del sizes
    firsts = starts + heads  # each header's end
    # every field at the bottom of its word: the header is min, then max_delta or the
    # repetition bit 1, and joins row 0 where they fit one word (see the module docstring)
    fields[0] = lo
    fields[0] <<= np.uint64(heads - w)
    fields[0] |= np.maximum(spread, 1)
    joined = 2 * w + 1 + BLOCK_SIZE * w <= 64
    if joined:
        fields[1] |= fields[0] << np.uint64(row_bits)
    # packed[i] is stream word i - 1, up to the last word that the 7 empty rows of a
    # one-pixel-row edge block, of at most 8 * w bits each, reach past the strip's end
    packed = np.zeros((total + 7 * BLOCK_SIZE * w >> 6) + 2, dtype=np.uint64)
    packed[1] = acc << (64 - nbits)
    del starts, heads  # before the placing makes its temporaries
    # 3 fields of each block at a time, or 2 on a strip packed in parts, whose placing
    # would otherwise hold the encoder's peak
    step = 3 if step >= BLOCK_SIZE else 2
    past = np.arange(1 + BLOCK_SIZE)[:, None]  # field f ends f rows past its block's header
    for f in range(joined, 1 + BLOCK_SIZE, step):
        _place(packed, past[f : f + step] * row_bits + firsts, fields[f : f + step])
    if np.little_endian:
        packed.byteswap(inplace=True)
    data = packed[1:].view(np.uint8)
    out += data[: total >> 3].data
    return int(data[total >> 3]) >> (8 - (total & 7)), total & 7


def _place(packed: np.ndarray, ends: np.ndarray, fields: np.ndarray) -> None:
    """Add each field, at the bottom of its uint64 in fields, to the stream words in packed by
    the int64 bit in ends where it ends: its low bits to the top of that bit's word, the rest
    to the bottom of the word before; packed[i] is word i - 1. Consumes ends and fields."""
    at, values = ends.ravel(), fields.ravel()
    bits = at & 63
    at >>= 6
    low = np.subtract(64, bits).view(np.uint64)
    np.left_shift(values, low, out=low)  # numpy shifts by 64 to 0: none at bit 0
    values >>= bits.view(np.uint64)
    np.add.at(packed, at, values)
    np.add.at(packed[1:], at, low)


def _cells_before_each(height: int, width: int) -> np.ndarray:
    """Index count of a height x width plane's blocks before each block, in stream order,
    and, last, the plane's: its whole block rows, then 8 columns a block of its own row."""
    rows, cols = _grid(height, width)
    before = np.empty(rows * cols + 1, dtype=np.int64)
    tops = np.arange(0, height, BLOCK_SIZE)  # the pixel rows above each block row
    grid = before[:-1].reshape(rows, cols)
    grid[...] = np.arange(0, width, BLOCK_SIZE)
    grid *= _sides(height)[:, None]
    grid += tops[:, None] * width
    before[-1] = height * width
    return before


def decode_plane(
    stream: bytes | memoryview, height: int, width: int, k: int = DEFAULT_MODULUS
) -> np.ndarray:
    """Quantized sample plane of a block stream, each index times k: the exact inverse
    of append_samples, as decode_plane(append_samples(s, k)) is quantize_plane(s, k).

    The stream must hold exactly the blocks of a height x width plane; one too short
    for a header per block is rejected before any block is read or the plane is
    allocated. A plane of STRIP_BLOCKS or more blocks is tried by the strip decoder
    first, which gives up before writing a strip that fails a check; then, or if the
    plane is smaller, the per-block loop decodes it and raises the first fault in stream
    order, naming its block and its first bit (``block R,C: ... (bit N)``):
    CorruptStreamError for a corrupt field, an index above 255 // k or bytes past the
    last block, TruncatedStreamError for a short stream.
    """
    return _decode(stream, height, width, k)[0]


def block_fields(
    stream: bytes | memoryview, height: int, width: int, k: int = DEFAULT_MODULUS
) -> tuple[np.ndarray, ...]:
    """Row, col, cells, min, max_delta, delta width and bits of each block, in stream order;
    max_delta and the delta width are 0 for a repeated block. Raises decode_plane's errors."""
    chased = _decode(stream, height, width, k)[1]
    # a plane that the per-block loop decoded has not been through the pass, which accepts it
    starts, lows, spreads = chased or _chase(stream, height, width, index_table(k)[-1])
    rows, cols = np.divmod(np.arange(len(lows)), _grid(height, width)[1])
    cells = np.diff(_cells_before_each(height, width))
    return rows, cols, cells, lows, spreads, _BIT_LENGTH[spreads], np.diff(starts)


def _decode(stream: bytes | memoryview, height: int, width: int, k: int) -> tuple:
    """decode_plane's plane, and the headers that _chase read for it, or None."""
    top = index_table(k)[-1]  # 255 // k, after the modulus is validated
    w = top.bit_length()
    if height < 1 or width < 1:
        raise ValueError(f"dimensions must be at least 1x1, got {width}x{height}")
    rows, cols = _grid(height, width)
    blocks = rows * cols
    if blocks * (w + 1) > 8 * len(stream):
        raise TruncatedStreamError(
            f"{blocks} blocks need at least {blocks * (w + 1)} bits, "
            f"the stream has {8 * len(stream)}"
        )
    chased = _chase(stream, height, width, top) if blocks >= STRIP_BLOCKS else None
    plane = np.empty((height, width), U8)  # after the chase's temporaries are gone
    end = None
    if chased is not None:
        with _strip_buffers(blocks):
            end = _decode_strips(stream, chased, plane, k, top)
    if end is None:
        end = _decode_blocks(stream, plane, k, top)
    if len(stream) != (end + 7) // 8:
        raise CorruptStreamError(
            f"stream is {len(stream)} bytes but its blocks need {(end + 7) // 8}"
        )
    return plane, chased


@functools.cache
def _advance(w: int, cells: int) -> list[int]:
    """Bits from a block's repetition bit to the next block's, by that bit and max_delta."""
    return [2 * w + 1 + cells * s.bit_length() for s in range(1 << w)] + [w + 1] * (1 << w)


def _windows(data: np.ndarray, start: int, stop: int) -> memoryview:
    """data[i] << 8 | data[i + 1] for i from start to stop - 1, the byte past data read as 0."""
    windows = np.left_shift(data[start:stop], 8, dtype=np.uint16)
    windows[: len(data) - start - 1] |= data[start + 1 : stop + 1]
    return memoryview(windows)


def _bits_at(data: np.ndarray, at: np.ndarray, n: int) -> np.ndarray:
    """The n <= 17 bits of data from each bit offset in at, as ints; bytes past data's end
    read as its last. From any offset 9 bits lie in 2 bytes, read as uint16, and 17 in 3."""
    size = 2 if n <= 9 else 3
    byte = at >> 3
    bits = data.take(byte, mode="clip").astype(np.uint16 if size == 2 else np.uint32)
    for i in range(1, size):
        bits <<= 8  # the next bytes, from data[i:], but its last byte where that is empty
        bits |= data[min(i, len(data) - 1) :].take(byte, mode="clip")
    offset = at.astype(np.uint8)
    offset &= 7
    bits >>= np.subtract(8 * size - n, offset, out=offset)
    bits &= (1 << n) - 1
    return bits


def _first_odd(data: np.ndarray, at: np.ndarray, guess: int, w: int) -> int:
    """Index of the first key, of those whose first bits in data at gives, whose bit length
    is not guess (1 to w + 1), or len(at); a key is a block's repetition bit and max_delta,
    w + 1 bits, and has bit length g if its top w + 2 - g bits read 1."""
    wrong = _bits_at(data, at, w + 2 - guess) != 1
    return int(wrong.argmax()) if wrong.any() else len(at)


def _chase(
    stream: bytes | memoryview, height: int, width: int, top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Checked headers of a whole plane in one pass: (starts, mins, max_deltas), or None.

    The pass reads the blocks in stream order. Each step goes from one block's
    repetition bit to the next block's by a table indexed by that bit and max_delta (one
    table per cell count), reading 16-bit _windows built for a chunk of two groups'
    reach, or the rest of the stream, whenever the chunk left cannot hold the next group
    of 8 * STRIP_BLOCKS blocks. When a stepped group's total advance is what its blocks
    would take if every (repetition, max_delta) key had one bit length, the blocks after
    it are guessed to be such, a run at a time: numpy sums the guessed advances into
    each block's repetition bit from the cells before each block, for a group's blocks
    more than runs have proven the guess on, so runs double on noise, and _first_odd
    reads every key there by _bits_at and takes the first whose bit length is not the
    guess. The run's first bit is known, so each bit up to that block's is right, and
    the steps go on from that block, a group at a time, which may make a guess again:
    beside the runs that double, a plane turning mixed costs at most one numpy pass per
    stepped group. Blocks whose keys would lie in the stream's last byte or past it are
    stepped. A run whose proven end lies past the stream's end gives None too: the next
    step reads past the windows, or the end check fails. _bits_at then reads every
    header's 2 * W + 1 bits from its block's first bit, and numpy makes _decode_blocks'
    header checks on them. starts holds each block's first bit and, last, the plane's
    end; a repeated block's max_delta reads 0. None means the pass ran past the stream
    or a check failed: only _decode_blocks defines which error that is. Bytes past the
    blocks are left to decode_plane.
    """
    w = top.bit_length()
    low, shift = (2 << w) - 1, 15 - w
    data = np.frombuffer(stream, dtype=np.uint8)
    # the cells before each block, and the plane's, as a view whose items are Python ints
    before = memoryview(_cells_before_each(height, width))
    # each block's table, by the cells of a full block row's blocks, then of the edge row's,
    # which are all 0 where the plane has none
    full, edge = np.outer([BLOCK_SIZE, height % BLOCK_SIZE], _sides(width)).tolist()
    steps = [_advance(w, n) for n in full] * (height // BLOCK_SIZE)
    steps += [_advance(w, n) for n in edge if n]  # in place, as a list's + would copy it
    group = 8 * STRIP_BLOCKS
    reach = (group * (2 * w + 1 + _CELLS * w) >> 3) + 2  # the bytes a group's headers can span
    reps = array("q", [w])  # each block's repetition bit, from its chunk's first byte
    chunks = []  # (first entry of reps, first byte) of each chunk
    base, win, q = 0, b"", w
    # one bit length of every key, if a group's advance says so, and the block that runs
    # prove it from
    guess = since = None
    while (b := len(reps) - 1) < len(steps):
        if guess is not None:
            # from block b's repetition bit to each next block's: w + 1 bits a block if
            # every key has bit length w + 1, as a repeated block's, else 2 * w + 1 bits a
            # block and guess bits a cell; for a group's blocks more than runs have proven
            head, each = (w + 1, 0) if guess > w else (2 * w + 1, guess)
            held = b - since
            at = np.multiply(before[b : min(len(steps), b + group + held) + 1], each)
            at += np.arange(0, head * len(at), head) + (q - int(at[0]))
            # the run's keys whose 2 bytes lie in the stream
            fits = min(len(at) - 1, int(at.searchsorted(8 * (len(data) - 1 - base))))
            if fits:
                right = _first_odd(data[base:], at[:fits], guess, w)
                q = int(at[right])  # the first odd key's true bit, or the next block's
                reps.frombytes(at[1 : right + 1].tobytes())
                if right == fits:
                    continue
                b += right  # the steps go on from the first odd block
        if (q >> 3) + reach > len(win) and base + len(win) < len(data):
            base += q >> 3
            q &= 7
            win = _windows(data, base, min(base + 2 * reach, len(data)))
            chunks.append((len(reps), base))
        first, stepped = q, steps[b : b + group]
        try:
            reps.fromlist(
                [q := q + table[win[q >> 3] >> (shift - (q & 7)) & low] for table in stepped]
            )
        except IndexError:  # a window past the stream's last byte
            return None
        # keys of one bit length g advance a group w + 1 bits a block if g is w + 1, as
        # repeated blocks, else 2 * w + 1 bits a block and g a cell; g is never 0, as no
        # valid block has the key 0 (repetition 0, max_delta 0)
        size = before[b + len(stepped)] - before[b]
        deltas, extra = divmod(q - first - len(stepped) * (2 * w + 1), size)
        guess = deltas if not extra and 0 < deltas <= w else None
        if q - first == len(stepped) * (w + 1):
            guess = w + 1
        since = len(reps) - 1
    if ((base << 3) + q - w + 7) >> 3 > len(stream):
        return None
    starts = np.frombuffer(reps, dtype=np.int64)
    starts -= w
    for (first, offset), (last, _) in zip(chunks, chunks[1:] + [(len(reps), 0)]):
        starts[first:last] += offset << 3
    # each header's min, repetition bit and max_delta; only bits the end check rejects
    # come from past the stream's end
    head = _bits_at(data, starts[:-1], 2 * w + 1)
    varied = (head & (1 << w)) == 0
    spreads = (head & (1 << w) - 1).astype(np.uint8)
    spreads *= varied
    lows = (head >> w + 1).astype(np.uint8)
    if (varied & (spreads == 0)).any() or (lows + spreads > top).any():
        return None
    return starts, lows, spreads


def _decode_strips(
    stream: bytes | memoryview, chased: tuple[np.ndarray, ...], plane: np.ndarray, k: int, top: int
) -> int | None:
    """Decode a plane's strips from _chase's headers into samples, each index times k; returns
    the plane's end bit, or None if an index decodes above top, 255 // k, its strip left
    unwritten."""
    w = top.bit_length()
    starts, lows, spreads = chased
    height, width = plane.shape
    # per block: the delta width and the bits of one of its rows
    widths = _BIT_LENGTH[spreads]
    cols = _sides(width).astype(np.uint8)
    row_bits = (widths.reshape(-1, len(cols)) * cols).ravel()
    data = np.frombuffer(stream, dtype=np.uint8)
    first = 0
    for ys, xs in _strips(height, width, min(16 * STRIP_BLOCKS, -(-len(lows) // 4))):
        out = plane[ys, xs]
        rows, strip_width = out.shape
        grid_rows, grid_cols = grid = _grid(rows, strip_width)
        blocks = slice(first, first + grid_rows * grid_cols)
        first = blocks.stop
        # the words that hold the bytes from the strip's first header byte to the next strip's
        # or the plane's end, and 6 more: row 7 of a one-row edge block starts 6 rows of at
        # most 7 * 8 bits past the block's end, so at most in the 6th word past the bytes
        origin = int(starts[blocks.start]) >> 3
        size = ((int(starts[first]) + 7) >> 3) - origin
        words = np.zeros(((size + 7) >> 3) + 6, dtype=np.uint64)
        words.view(np.uint8)[:size] = data[origin : origin + size]
        if np.little_endian:
            words.byteswap(inplace=True)
        # row y of a block starts at bit starts + 2 * w + 1 + y * row_bits; a repeated block's
        # header is w bits shorter, but its rows are 0 bits wide and read 0 wherever they start
        dw = widths[blocks]
        one = dw.min() == dw.max()
        firsts = starts[blocks] + (2 * w + 1 - (origin << 3))
        rows_at = np.arange(BLOCK_SIZE, dtype=np.int64)
        if one and not strip_width % BLOCK_SIZE:  # every row of the strip has one length
            # one pass, where a scalar row length times rows_at[:, None, None] and an add of
            # the starts take two: about 4% off a 1024x1024 noise decode
            rows_at *= BLOCK_SIZE * int(dw[0])  # all 0 on a strip of repeated blocks
            at = np.add.outer(rows_at, firsts).reshape(BLOCK_SIZE, *grid)
        else:
            at = rows_at[:, None, None] * row_bits[blocks].reshape(grid)
            at += firsts.reshape(grid)
        del firsts
        bits = at & 63
        at >>= 6
        fields = words.take(at)
        fields <<= bits.view(np.uint64)
        tail = words[1:].take(at, out=at.view(np.uint64), mode="clip")  # over its own indices
        tail >>= np.subtract(64, bits, out=bits).view(np.uint64)  # to 0 where bits is 64
        fields |= tail
        del tail, at, bits, words  # before the unpack makes its temporaries
        _unpack_rows(fields, dw[0] if one else dw.reshape(grid))
        fields += lows[blocks].reshape(grid).astype(np.uint64) * np.uint64(_ONES[BLOCK_SIZE])
        # the lanes as bytes, lane 0 first on any host, in the strip's pixel rows
        cells = np.empty((grid_rows, BLOCK_SIZE, grid_cols * BLOCK_SIZE), dtype=np.uint8)
        cells.view(">u8").transpose(1, 0, 2)[...] = fields
        indices = cells.reshape(grid_rows * BLOCK_SIZE, -1)[:rows, :strip_width]
        if indices.max() > top:  # before the multiply, which would wrap such an index in uint8
            return None
        np.multiply(indices, np.uint8(k), out=out)
        del fields, cells, indices  # before the next strip makes its own
    return int(starts[-1])


def _decode_blocks(stream: bytes | memoryview, out: np.ndarray, k: int, top: int) -> int:
    """Decode a plane into out one block at a time, each index times k; returns the end bit.

    Each block's header is checked against top, 255 // k, and its deltas decoded and
    checked, before the next header is read, so the first fault in stream order is the
    one raised.
    """
    w = top.bit_length()
    total, pos = 8 * len(stream), 0
    height, width = out.shape
    for y in range(0, height, BLOCK_SIZE):
        for x in range(0, width, BLOCK_SIZE):
            block = out[y : y + BLOCK_SIZE, x : x + BLOCK_SIZE]
            # a header is at most 2 * 7 + 1 bits: from any bit offset it fits 4 bytes
            chunk = stream[pos >> 3 : (pos >> 3) + 4]
            window = int.from_bytes(chunk, "big") << (32 - 8 * len(chunk) + (pos & 7)) & 0xFFFFFFFF
            try:
                if pos + w + 1 > total:
                    raise TruncatedStreamError(f"needed {w + 1} bits, only {total - pos} left")
                lo = window >> (32 - w)
                if lo > top:
                    raise CorruptStreamError(f"block minimum {lo} exceeds index limit {top}")
                if window >> (31 - w) & 1:
                    block.fill(lo * k)
                    pos += w + 1
                    continue
                if pos + 2 * w + 1 > total:
                    raise TruncatedStreamError(f"needed {w} bits, only {total - pos - w - 1} left")
                spread = window >> (31 - 2 * w) & ((1 << w) - 1)
                if spread == 0:
                    raise CorruptStreamError(
                        "non-repeated block with zero max_delta is not canonical"
                    )
                if lo + spread > top:
                    raise CorruptStreamError(f"block range {lo}+{spread} exceeds index limit {top}")
                n, dw = block.size, spread.bit_length()
                start = pos + 2 * w + 1
                end = start + n * dw
                if end > total:
                    raise TruncatedStreamError(f"needed {n * dw} bits, only {total - start} left")
            except FmmError as exc:
                row, col = y // BLOCK_SIZE, x // BLOCK_SIZE
                raise type(exc)(f"block {row},{col}: {exc} (bit {pos})") from None
            fields = int.from_bytes(stream[start >> 3 : (end + 7) >> 3], "big")
            deltas = _unpack((fields >> (-end & 7)) & ((1 << n * dw) - 1), n, dw)
            # a dw-bit delta may pass top even though lo + spread does not; as every delta is
            # < 128, adding 127 - top + lo to each byte lane sets its high bit, with no carry,
            # exactly when lo + delta > top. Past this check, each lane times k fits its byte
            if lo + (1 << dw) - 1 > top and (deltas + (127 - top + lo) * _ONES[n]) & _HIGH[n]:
                row, col = y // BLOCK_SIZE, x // BLOCK_SIZE
                raise CorruptStreamError(
                    f"block {row},{col} decodes an index above limit {top} (bit {pos})"
                )
            cells = ((deltas + lo * _ONES[n]) * k).to_bytes(n, "big")
            block[...] = np.ndarray(block.shape, U8, cells)
            pos = end
    return pos
