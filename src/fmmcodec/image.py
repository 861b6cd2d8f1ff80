"""In-memory raster image model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core


@dataclass(frozen=True, eq=False)
class RasterImage:
    """8-bit image stored as a read-only (height, width, channels) uint8 array.

    Samples are row-major and channel-interleaved; channels is 1 (grayscale)
    or 3 (RGB). A 2D array is accepted and treated as a single channel. The
    image shares memory with a C-contiguous uint8 input, which stays writeable.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise ValueError(f"expected a 2D or 3D pixel array, got {arr.ndim}D")
        arr = core.checked_array(arr)
        height, width, channels = arr.shape
        if height < 1 or width < 1:
            raise ValueError(f"dimensions must be at least 1x1, got {width}x{height}")
        if channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {channels}")
        arr = np.ascontiguousarray(arr, dtype=np.uint8).view()  # the caller's array keeps its flags
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @classmethod
    def _own(cls, pixels: np.ndarray) -> RasterImage:
        """The image of a C-contiguous (height, width, 1 or 3) uint8 array of at least 1x1 that
        the codec has just made and that no caller holds, which it makes read-only: equal to
        RasterImage(pixels), without the checks that such an array passes."""
        pixels.flags.writeable = False
        image = object.__new__(cls)
        object.__setattr__(image, "pixels", pixels)
        return image

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def plane(self, channel: int = 0) -> np.ndarray:
        """One channel as a read-only (height, width) view."""
        if not 0 <= channel < self.channels:
            raise ValueError(f"channel {channel} out of range for {self.channels}-channel image")
        return self.pixels[:, :, channel]

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    __hash__ = None
