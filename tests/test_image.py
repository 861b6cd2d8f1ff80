import re

import numpy as np
import pytest

from fmmcodec.image import RasterImage


@pytest.mark.parametrize(
    "shape, message",
    [
        ((4,), "expected a 2D or 3D pixel array, got 1D"),
        ((1, 2, 2, 1), "expected a 2D or 3D pixel array, got 4D"),
        ((0, 3), "dimensions must be at least 1x1, got 3x0"),
        ((3, 0, 1), "dimensions must be at least 1x1, got 0x3"),
        ((2, 2, 2), "channels must be 1 or 3, got 2"),
        ((2, 2, 4), "channels must be 1 or 3, got 4"),
    ],
)
def test_rejects_shapes_that_are_not_an_image(shape, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RasterImage(np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("channel", [-1, 3])
def test_plane_rejects_a_channel_out_of_range(channel):
    image = RasterImage(np.zeros((2, 2, 3), dtype=np.uint8))
    message = f"channel {channel} out of range for 3-channel image"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        image.plane(channel)


def test_equality_with_a_non_image_is_false():
    # __eq__ gives NotImplemented, so Python falls back to identity and == is False
    image = RasterImage(np.zeros((2, 2), dtype=np.uint8))
    assert image.__eq__(image.pixels) is NotImplemented
    assert (image == "image") is False and image != image.pixels.tolist()
