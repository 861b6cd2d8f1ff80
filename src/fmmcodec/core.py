"""Modulus quantization and the index mapping.

Quantization moves every 8-bit sample to the nearest multiple of the
modulus k (odd, 3..127) inside [0, 255]. For the default k = 5 this is
the remainder map

    r = v mod 5:  0 -> +0,  1 -> -1,  2 -> -2,  3 -> +2,  4 -> +1

so no sample moves by more than 2. In general a sample moves by at most
max(k // 2, 255 % k): samples above the largest multiple 255 // k * k
cannot round up, so for k with 255 % k > k // 2 (13, 29, 33, ...) the
top of the range moves further than k // 2. Quantized samples divided by
k give compact indices in [0, 255 // k] (0..51 for k = 5).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ModulusError

DEFAULT_MODULUS = 5


def validate_modulus(k) -> int:
    """Return k as an int, rejecting anything but odd values in 3..127."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ModulusError(f"modulus must be an integer, got {k!r}") from None
    if k % 2 == 0 or not 3 <= k <= 127:
        raise ModulusError(f"modulus must be odd and within 3..127, got {k}")
    return k


def max_index(k: int = DEFAULT_MODULUS) -> int:
    """Largest index a quantized sample can produce (51 for k = 5)."""
    return 255 // validate_modulus(k)


def _as_sample_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"samples must be integers, got dtype {arr.dtype}")
    # uint8 samples are in range by their type; only wider types are scanned
    if arr.dtype != np.uint8 and arr.size and (int(arr.min()) < 0 or int(arr.max()) > 255):
        raise ValueError("samples must lie in [0, 255]")
    return arr


def quantize_sample(value: int, k: int = DEFAULT_MODULUS) -> int:
    """Nearest multiple of k to one sample, clamped into [0, 255].

    k is odd, so there are no rounding ties. When 255 is not close to a
    multiple of k the nearest in-range multiple is returned, so the
    sample moves by at most max(k // 2, 255 % k); for k in {3, 5, 7, 9}
    that is k // 2.
    """
    k = validate_modulus(k)
    return int(quantize_indices([operator.index(value)], k)[0]) * k


def quantize_indices(plane, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Index of the nearest in-range multiple of k for every sample.

    The quantize and divide stages in one pass: to_indices(quantize_plane(p))
    without the intermediate samples. Shape preserved, uint8 result.
    """
    k = validate_modulus(k)
    nearest = (_as_sample_array(plane).astype(np.uint16) + k // 2) // k
    np.minimum(nearest, 255 // k, out=nearest)
    return nearest.astype(np.uint8)


def quantize_plane(plane, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Elementwise quantize_sample over an integer array; shape preserved."""
    return quantize_indices(plane, k) * np.uint8(k)


def to_indices(values, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Divide quantized samples by k, giving indices in [0, 255 // k]."""
    k = validate_modulus(k)
    arr = _as_sample_array(values)
    if np.any(arr % k):
        raise ValueError(f"samples must all be multiples of {k}; quantize first")
    return (arr // k).astype(np.uint8)


def from_indices(indices, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Multiply indices back to samples; inverse of to_indices."""
    k = validate_modulus(k)
    arr = np.asarray(indices)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {arr.dtype}")
    top = 255 // k
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > top):
        raise ValueError(f"index out of range 0..{top}")
    return (arr.astype(np.int32) * k).astype(np.uint8)
