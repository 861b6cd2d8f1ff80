"""End-to-end acceptance checks, one numbered group per shipped criterion.

conftest.py turns these into the per-criterion PASS/FAIL summary printed
after the run. Criterion 1's quantize stage is checked against the
published reference block with its one documented erratum applied
(golden.QUANTIZED_ERRATA: the published block maps the input 241 to 245
at one cell and to 240 at another); every other value is as published.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from fmmcodec import cli, container, core, metrics
from fmmcodec.bitstream import block_fields, decode_plane
from fmmcodec.image import RasterImage
from fmmcodec.netpbm import write_netpbm

from golden import (
    BLOCK_BITS,
    DELTA_BLOCK,
    INDEX_BLOCK,
    INDEX_MIN,
    MAX_DELTA,
    ORIGINAL_BLOCK,
    PAYLOAD_BITS,
    QUANTIZED_BLOCK,
    QUANTIZED_ERRATA,
    SIGMA_INDEX,
    SIGMA_ORIGINAL,
)
from streams import encode_indices

# analytic floor for k = 5: max error 2 per sample, mse <= 4,
# psnr >= 20 log10(255 / 2) = 20 log10(127.5)
PSNR_FLOOR = 20 * math.log10(127.5)


# --- criterion 1: the published three-stage walkthrough, stage by stage ---


def test_criterion_1_quantize_stage():
    # the erratum is real, on the published data alone: one input value,
    # two published outputs, one of them beyond the k // 2 bound
    assert ORIGINAL_BLOCK[1][5] == ORIGINAL_BLOCK[3][5] == 241
    assert (QUANTIZED_BLOCK[1][5], QUANTIZED_BLOCK[3][5]) == (245, 240)
    assert abs(245 - 241) > 5 // 2

    corrected = QUANTIZED_BLOCK.copy()
    for cell, value in QUANTIZED_ERRATA.items():
        corrected[cell] = value
    changed = {tuple(cell) for cell in np.argwhere(corrected != QUANTIZED_BLOCK).tolist()}
    assert changed == set(QUANTIZED_ERRATA)

    assert np.array_equal(core.quantize_plane(ORIGINAL_BLOCK), corrected)


def test_criterion_1_divide_stage():
    # the encoder's table takes the quantized block, multiples of 5, to the published indices
    table = np.frombuffer(core.index_table(5), np.uint8)
    assert np.array_equal(table[QUANTIZED_BLOCK], INDEX_BLOCK)


def test_criterion_1_min_subtract_stage():
    stream = encode_indices(INDEX_BLOCK)
    *_, (lo,), (max_delta,), _, _ = [fields.tolist() for fields in block_fields(stream, 8, 8)]
    assert lo == INDEX_MIN
    assert max_delta == MAX_DELTA
    assert np.array_equal(decode_plane(stream, 8, 8).astype(np.int16) - lo, DELTA_BLOCK)


# --- criterion 2: dispersion statistics ---


def test_criterion_2_dispersion():
    assert metrics.stddev(ORIGINAL_BLOCK.ravel()) == pytest.approx(SIGMA_ORIGINAL, abs=5e-4)
    assert metrics.stddev(INDEX_BLOCK.ravel()) == pytest.approx(SIGMA_INDEX, abs=5e-6)


# --- criterion 3: protocol fixtures ---


def test_criterion_3_uniform_block():
    block = np.full((8, 8), 11, dtype=np.uint8)
    stream = encode_indices(block)
    assert stream == bytes([0b00101110])  # 0010111 zero-padded
    *_, (bits,) = [fields.tolist() for fields in block_fields(stream, 8, 8)]
    assert bits == 7
    assert np.array_equal(decode_plane(stream, 8, 8), block)


def test_criterion_3_mixed_block():
    stream = encode_indices(INDEX_BLOCK)
    fields = block_fields(stream, 8, 8)
    *_, (lo,), (max_delta,), (dw,), (bits,) = [column.tolist() for column in fields]
    assert bits == BLOCK_BITS == 269
    assert lo == INDEX_MIN
    assert (max_delta, dw) == (MAX_DELTA, 4)  # max_delta > 0: not repeated
    assert np.array_equal(decode_plane(stream, 8, 8), INDEX_BLOCK)


# --- criteria 4 and 5 share one 1,000-image sweep ---


@dataclass(frozen=True)
class SweepItem:
    roundtrip_exact: bool
    divisible_by_5: bool
    max_abs_error: int
    psnr: float


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(20260819)
    started = time.perf_counter()
    items = []
    for i in range(1000):
        shape = (int(rng.integers(1, 65)), int(rng.integers(1, 65)), 1 if i % 2 else 3)
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        image = RasterImage(pixels)
        decoded = container.decompress(container.compress(image))
        items.append(
            SweepItem(
                roundtrip_exact=decoded == RasterImage(core.quantize_plane(pixels)),
                divisible_by_5=bool(np.all(decoded.pixels % 5 == 0)),
                max_abs_error=int(
                    np.max(np.abs(decoded.pixels.astype(np.int16) - pixels.astype(np.int16)))
                ),
                psnr=metrics.psnr(image, decoded),
            )
        )
    return items, time.perf_counter() - started


def test_criterion_4_roundtrip_sweep(sweep):
    items, elapsed = sweep
    assert len(items) == 1000
    assert all(item.roundtrip_exact for item in items)
    assert all(item.divisible_by_5 for item in items)
    assert max(item.max_abs_error for item in items) <= 2
    assert elapsed < 30.0


def test_criterion_5_psnr_floor(sweep):
    items, _ = sweep
    assert all(item.psnr >= PSNR_FLOOR - 1e-9 for item in items)


def test_criterion_5_large_random_psnr():
    rng = np.random.default_rng(5150)
    pixels = rng.integers(0, 256, (512, 512), dtype=np.uint8)
    image = RasterImage(pixels)
    decoded = container.decompress(container.compress(image))
    assert metrics.psnr(image, decoded) == pytest.approx(45.12, abs=0.2)


# --- criterion 6: block-level ratio surfaced by inspect ---


def test_criterion_6_block_ratio(tmp_path, capsys):
    assert PAYLOAD_BITS == 256
    assert ORIGINAL_BLOCK.size * 8 / PAYLOAD_BITS == 2.0
    source = tmp_path / "block.pgm"
    source.write_bytes(write_netpbm(RasterImage(ORIGINAL_BLOCK)))
    blob_path = tmp_path / "block.fmm"
    assert cli.main(["compress", str(source), str(blob_path)]) == 0
    capsys.readouterr()
    assert cli.main(["inspect", str(blob_path)]) == 0
    out = capsys.readouterr().out
    assert "min=42 rep=0 max=8 width=4 bits=269 payload=256 ratio=2.00" in out


# --- criterion 7: compression-ratio sanity ---


def _photo_like(seed: int, noise_sigma: float) -> RasterImage:
    """Smooth diagonal ramp plus gaussian noise, a stand-in for photographs."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:256, 0:256]
    ramp = 40 + (x + y) * (175 / 510)
    noisy = ramp + rng.normal(0, noise_sigma, ramp.shape)
    return RasterImage(np.clip(np.rint(noisy), 0, 255).astype(np.uint8))


@pytest.mark.parametrize("seed,noise_sigma", [(101, 25.0), (202, 45.0)])
def test_criterion_7_photographic_ratio(seed, noise_sigma):
    image = _photo_like(seed, noise_sigma)
    blob = container.compress(image)
    ratio = metrics.compression_ratio(image.width * image.height, len(blob))
    assert 1.0 < ratio < 1.6


def test_criterion_7_constant_ceiling():
    image = RasterImage(np.full((512, 512), 200, dtype=np.uint8))
    blob = container.compress(image)
    ratio = metrics.compression_ratio(512 * 512, len(blob))
    # 7 bits per full 64-sample block caps the ratio at 512/7
    assert 70.0 < ratio < 512 / 7


# --- criterion 8: desk-scale performance ---


def test_criterion_8_speed():
    rng = np.random.default_rng(88)
    pixels = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
    image = RasterImage(pixels)
    started = time.perf_counter()
    decoded = container.decompress(container.compress(image))
    elapsed = time.perf_counter() - started
    assert decoded == RasterImage(core.quantize_plane(pixels))
    assert elapsed < 1.0


# --- criterion 9: generalized modulus ---


@pytest.mark.parametrize("k", [3, 7, 9])
def test_criterion_9_exhaustive_quantization(k):
    multiples = list(range(0, 256, k))
    for value in range(256):
        quantized = int(core.quantize_plane(value, k))
        assert quantized == min(multiples, key=lambda m: abs(m - value))
        assert abs(quantized - value) <= k // 2


@pytest.mark.parametrize("k", [3, 7, 9])
def test_criterion_9_roundtrip(k):
    rng = np.random.default_rng(900 + k)
    for i in range(40):
        shape = (int(rng.integers(1, 65)), int(rng.integers(1, 65)), 1 if i % 2 else 3)
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        blob = container.compress(RasterImage(pixels), k)
        assert container.read_header(blob).modulus == k
        decoded = container.decompress(blob)
        assert decoded == RasterImage(core.quantize_plane(pixels, k))
        assert np.all(decoded.pixels.astype(np.int16) % k == 0)
        assert np.max(np.abs(decoded.pixels.astype(np.int16) - pixels.astype(np.int16))) <= k // 2
