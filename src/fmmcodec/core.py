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


def checked_array(values) -> np.ndarray:
    """values as an array of integer samples in [0, 255]; else ValueError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "ui":
        raise ValueError(f"samples must be integers, got dtype {arr.dtype}")
    # uint8 proves the range, and an unsigned dtype the lower bound
    if arr.size and arr.dtype != np.uint8 and (
        (arr.dtype.kind == "i" and int(arr.min()) < 0) or int(arr.max()) > 255
    ):
        raise ValueError("samples must lie in [0, 255]")
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


def quantize_plane(plane, k: int = DEFAULT_MODULUS) -> np.ndarray:
    """Nearest in-range multiple of k to each sample of an integer array or scalar, in uint8,
    by index_table(k); shape preserved.

    k is odd, so there are no rounding ties. When 255 is not close to a multiple of k the
    nearest in-range multiple is taken, so a sample moves by at most max(k // 2, 255 % k);
    for k in {3, 5, 7, 9} that is k // 2.
    """
    return np.frombuffer(index_table(k), np.uint8)[checked_array(plane)] * np.uint8(k)
