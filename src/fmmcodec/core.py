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

import functools
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


def checked_array(values, top: int = 255) -> np.ndarray:
    """Integer samples in [0, 255], or indices in [0, top] when top < 255; else ValueError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "ui":
        noun = "samples" if top == 255 else "indices"
        raise ValueError(f"{noun} must be integers, got dtype {arr.dtype}")
    # an unsigned dtype proves the lower bound, and uint8 the sample range
    if arr.size and (
        (arr.dtype.kind == "i" and int(arr.min()) < 0)
        or ((top < 255 or arr.dtype != np.uint8) and int(arr.max()) > top)
    ):
        if top == 255:
            raise ValueError("samples must lie in [0, 255]")
        raise ValueError(f"index out of range 0..{top}")
    return arr


def index_table(k: int = DEFAULT_MODULUS) -> bytes:
    """The quantize rule as a 256-byte map from sample to index, built on a modulus's first use.

    Byte v is min((v + k // 2) // k, 255 // k), the index of the nearest in-range multiple
    of k, so bytes.translate(index_table(k)) quantizes uint8 samples; the last byte is 255 // k.
    """
    return _index_table(validate_modulus(k))


@functools.cache
def _index_table(k: int) -> bytes:
    return bytes(min((v + k // 2) // k, 255 // k) for v in range(256))


def quantize_sample(value: int, k: int = DEFAULT_MODULUS) -> int:
    """Nearest multiple of k to one sample, clamped into [0, 255].

    k is odd, so there are no rounding ties. When 255 is not close to a
    multiple of k the nearest in-range multiple is returned, so the
    sample moves by at most max(k // 2, 255 % k); for k in {3, 5, 7, 9}
    that is k // 2.
    """
    k = validate_modulus(k)
    return _index_table(k)[int(checked_array(operator.index(value)))] * k


def quantize_indices(plane, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Index of the nearest in-range multiple of k for every sample.

    to_indices(quantize_plane(p)) as one lookup in index_table(k). A new writable uint8 array
    of the input's shape; uint8 input costs 2 B/sample. compress does not call it: the encoder
    quantizes each strip by the same table as it gathers it, so it holds no index plane.
    """
    table = index_table(k)
    samples = checked_array(plane).astype(np.uint8, copy=False)
    return np.frombuffer(samples.tobytes().translate(table), np.uint8).reshape(samples.shape).copy()


def quantize_plane(plane, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Elementwise quantize_sample over an integer array; shape preserved."""
    return quantize_indices(plane, k) * np.uint8(k)


def to_indices(values, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Divide quantized samples by k, giving indices in [0, 255 // k]."""
    k = validate_modulus(k)
    arr = checked_array(values)
    if np.any(arr % k):
        raise ValueError(f"samples must all be multiples of {k}; quantize first")
    return (arr // k).astype(np.uint8)


def from_indices(indices, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Multiply indices back to samples, in uint8; inverse of to_indices."""
    k = validate_modulus(k)
    return checked_array(indices, 255 // k).astype(np.uint8, copy=False) * np.uint8(k)
