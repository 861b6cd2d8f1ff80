"""Fidelity and size measures: MSE, RMSE, PSNR, compression ratio, dispersion.

All arithmetic runs in double precision; callers round for display only.
A lossless comparison (MSE of zero) reports ``math.inf`` as its PSNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import RasterImage

#: PSNR reported for a zero-error comparison.
LOSSLESS = math.inf

#: PSNR peak for 8-bit samples.
PEAK_8BIT = 255.0


@dataclass(frozen=True)
class QualityReport:
    """One comparison's numbers."""

    mse: float
    rmse: float
    psnr: float
    sigma_original: float
    sigma_reconstructed: float


def _check_geometry(original: RasterImage, reconstructed: RasterImage) -> None:
    a = (original.height, original.width, original.channels)
    b = (reconstructed.height, reconstructed.width, reconstructed.channels)
    if a != b:
        raise ValueError(f"geometry mismatch: {a[1]}x{a[0]}x{a[2]} vs {b[1]}x{b[0]}x{b[2]}")


def mse(original: RasterImage, reconstructed: RasterImage) -> float:
    """Mean squared sample difference over all width*height*channels samples."""
    _check_geometry(original, reconstructed)
    diff = original.pixels.astype(np.float64) - reconstructed.pixels.astype(np.float64)
    return float(np.mean(diff * diff))


def _psnr_from_mse(mse_value: float) -> float:
    if mse_value == 0.0:
        return LOSSLESS
    return 20.0 * math.log10(PEAK_8BIT / math.sqrt(mse_value))


def psnr(original: RasterImage, reconstructed: RasterImage) -> float:
    """Peak signal-to-noise ratio in decibels, ``LOSSLESS`` when MSE is zero.

    The peak is 255 for every image, so values are comparable across images.
    """
    return _psnr_from_mse(mse(original, reconstructed))


def compression_ratio(original_bytes: int, compressed_bytes: int) -> float:
    """Uncompressed size over compressed size; > 1 means the stream shrank."""
    if original_bytes <= 0 or compressed_bytes <= 0:
        raise ValueError(
            f"byte counts must be positive, got {original_bytes} and {compressed_bytes}"
        )
    return original_bytes / compressed_bytes


def stddev(samples) -> float:
    """Sample standard deviation (n-1 divisor) of a nonempty sequence.

    The n-1 estimator is fixed by the module's reference values; see the
    dispersion tests. A single sample has no spread and yields 0.0.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("stddev of an empty sequence")
    if arr.size == 1:
        return 0.0
    return float(arr.std(ddof=1))


def compare(original: RasterImage, reconstructed: RasterImage) -> QualityReport:
    """Full report for a pair of same-geometry images."""
    err = mse(original, reconstructed)
    return QualityReport(
        mse=err,
        rmse=math.sqrt(err),
        psnr=_psnr_from_mse(err),
        sigma_original=stddev(original.pixels.ravel()),
        sigma_reconstructed=stddev(reconstructed.pixels.ravel()),
    )
