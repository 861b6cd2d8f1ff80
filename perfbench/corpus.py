"""Seeded in-process corpora for the fmmcodec benchmark.

Every workload is built from ``--seed`` alone; the codec only ever sees the
generated netpbm bytes. The composition of each corpus (image sizes, channel
counts, content kinds and moduli) is fixed per workload and the seed draws
the pixel content and the order, so throughput and size figures from
different seeds describe the same mix.

The expected outputs and the block statistics are computed here with numpy
from the generated pixels, not through the codec, so they check the codec
instead of repeating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

BLOCK = 8
_BIT_LENGTH = np.array([v.bit_length() for v in range(256)], dtype=np.int64)
HEADER_BYTES = 15  # "FMM1", version, k, u32 width, u32 height, channels
STREAM_LEN_BYTES = 4


@dataclass(frozen=True)
class Case:
    """One image of a corpus: its netpbm input and what decoding must give."""

    k: int
    pnm: bytes
    expected_pnm: bytes
    shape: tuple[int, int, int]

    @property
    def samples(self) -> int:
        height, width, channels = self.shape
        return height * width * channels


def quantize(pixels: np.ndarray, k: int) -> np.ndarray:
    """Nearest multiple of k, clamped to the largest multiple in [0, 255]."""
    nearest = (pixels.astype(np.int32) + k // 2) // k * k
    return np.minimum(nearest, 255 // k * k).astype(np.uint8)


def netpbm_bytes(pixels: np.ndarray) -> bytes:
    height, width, channels = pixels.shape
    magic = b"P5" if channels == 1 else b"P6"
    return b"%s\n%d %d\n255\n" % (magic, width, height) + pixels.tobytes()


def make_case(pixels: np.ndarray, k: int) -> Case:
    return Case(k, netpbm_bytes(pixels), netpbm_bytes(quantize(pixels, k)), pixels.shape)


def expected_pixels(case: Case) -> np.ndarray:
    """Pixels that decoding the case must give, as (height, width, channels)."""
    return np.frombuffer(case.expected_pnm[-case.samples :], dtype=np.uint8).reshape(case.shape)


# --- content generators ----------------------------------------------------

# Noise sigma per region of an 8x8 grid; every photo uses each level 8 times.
_SIGMAS = np.repeat([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0], 8)
# Flat rectangles, as a share of the image's height and width (at most 1/3).
_RECTS = (0.30, 0.25, 0.20, 0.15, 0.12, 0.10)


def photo(rng: np.random.Generator, height: int, width: int, channels: int) -> np.ndarray:
    """Photo-like image: sinusoidal gradients, regional noise, six flat rectangles."""
    y, x = np.mgrid[0:height, 0:width] / max(height, width)
    cell = (-(-height // 8), -(-width // 8))
    sigma = np.kron(rng.permutation(_SIGMAS).reshape(8, 8), np.ones(cell))[:height, :width]
    planes = []
    for _ in range(channels):
        plane = np.full((height, width), 128.0)
        for amp in (36.0, 24.0, 12.0):
            theta = rng.uniform(0, 2 * np.pi)
            freq = 48.0 / amp
            phase = rng.uniform(0, 2 * np.pi)
            along = np.cos(theta) * x + np.sin(theta) * y
            plane += amp * np.sin(2 * np.pi * freq * along + phase)
        planes.append(plane + sigma * rng.standard_normal((height, width)))
    img = np.stack(planes, axis=-1)
    # Each rectangle sits in its own cell of a 3x3 grid, so they never overlap.
    cell_h, cell_w = -(-height // 3), -(-width // 3)
    for share, cell in zip(_RECTS, rng.permutation(9)):
        rh, rw = max(1, int(height * share)), max(1, int(width * share))
        top, left = cell // 3 * cell_h, cell % 3 * cell_w
        top += rng.integers(0, max(1, min(cell_h, height - top) - rh + 1))
        left += rng.integers(0, max(1, min(cell_w, width - left) - rw + 1))
        img[top : top + rh, left : left + rw] = rng.uniform(0, 255, channels)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def noise(rng: np.random.Generator, height: int, width: int, channels: int) -> np.ndarray:
    return rng.integers(0, 256, (height, width, channels), dtype=np.uint8)


def constant(rng: np.random.Generator, height: int, width: int, channels: int) -> np.ndarray:
    return np.broadcast_to(
        rng.integers(0, 256, channels, dtype=np.uint8), (height, width, channels)
    ).copy()


# --- workloads -------------------------------------------------------------

PHOTO_IMAGES = 8

# (width, height) of the tiny images: 1x1, slivers, exact and partial blocks.
TINY_GEOMETRIES = (
    (1, 1), (3, 5), (9, 9), (13, 17), (2, 31), (24, 31),
    (8, 8), (16, 8), (24, 1), (7, 12), (17, 23), (5, 3),
)
TINY_CONTENT = (constant, noise, photo)
TINY_MODULI = (3, 5, 7, 9, 13, 33, 127)
TINY_REPEATS = 4  # 12 * 2 * 3 * 7 = 504 combinations, 2016 images


def build_photo_rgb(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    return [make_case(photo(rng, 512, 512, 3), 5) for _ in range(PHOTO_IMAGES)]


def build_noise_gray_1k(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    return [make_case(noise(rng, 1024, 1024, 1), 5)]


def build_tiny_mixed(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    combos = [
        (geometry, channels, content, k)
        for geometry in TINY_GEOMETRIES
        for channels in (1, 3)
        for content in TINY_CONTENT
        for k in TINY_MODULI
    ] * TINY_REPEATS
    cases = []
    for i in rng.permutation(len(combos)):
        (width, height), channels, content, k = combos[i]
        cases.append(make_case(content(rng, height, width, channels), k))
    return cases


# Workload name -> corpus builder, which takes the seed.
WORKLOADS: dict[str, Callable[[int], list[Case]]] = {
    "photo_rgb": build_photo_rgb,
    "noise_gray_1k": build_noise_gray_1k,
    "tiny_mixed": build_tiny_mixed,
}


# --- block statistics from the v1 block grammar ----------------------------


@dataclass
class BlockStats:
    """Per-corpus block counts, from the quantized pixels alone."""

    blocks: int = 0
    repeated: int = 0
    width_sum: int = 0  # summed delta width over non-repeated blocks
    payload_bits: int = 0
    stream_bits: int = 0

    def add(self, other: "BlockStats") -> None:
        for field in self.__dataclass_fields__:
            setattr(self, field, getattr(self, field) + getattr(other, field))


def block_stats(case: Case) -> tuple[BlockStats, int]:
    """Block statistics of one case and the exact .fmm size they imply.

    Each channel plane of indices is edge-padded to whole 8x8 blocks, which
    keeps every block's min and max; the payload uses the true (edge) block
    size. A block costs W + 1 bits when repeated, otherwise 2W + 1 bits plus
    rows * cols deltas at bit_length(spread) bits; each channel stream is
    padded to a whole byte.
    """
    k = case.k
    field = (255 // k).bit_length()
    indices = expected_pixels(case) // k
    height, width, channels = case.shape
    ph, pw = -(-height // BLOCK) * BLOCK, -(-width // BLOCK) * BLOCK
    padded = np.pad(indices, ((0, ph - height), (0, pw - width), (0, 0)), mode="edge")
    blocks = padded.reshape(ph // BLOCK, BLOCK, pw // BLOCK, BLOCK, channels)
    lo = blocks.min(axis=(1, 3)).astype(np.int64)
    spread = blocks.max(axis=(1, 3)) - lo
    rows = np.minimum(BLOCK, height - BLOCK * np.arange(ph // BLOCK))[:, None, None]
    cols = np.minimum(BLOCK, width - BLOCK * np.arange(pw // BLOCK))[None, :, None]
    varied = spread > 0
    widths = _BIT_LENGTH[spread]
    payload = rows * cols * widths
    bits = np.where(varied, 2 * field + 1, field + 1) + payload
    channel_bits = bits.sum(axis=(0, 1))
    size = HEADER_BYTES + sum(STREAM_LEN_BYTES + -(-int(b) // 8) for b in channel_bits)
    stats = BlockStats(
        blocks=int(spread.size),
        repeated=int(spread.size - varied.sum()),
        width_sum=int(widths.sum()),
        payload_bits=int(payload.sum()),
        stream_bits=int(channel_bits.sum()),
    )
    return stats, size
