"""The images that the package builds itself, from arrays it has just made, skip
RasterImage's checks; each must still be the image that RasterImage would build."""

import numpy as np
import pytest

from fmmcodec import bitstream, container, core, netpbm
from fmmcodec.image import RasterImage

from spies import spy


def _noise(shape: tuple, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)


def assert_is_image_of(image, pixels: np.ndarray) -> None:
    """image is read-only, C-contiguous uint8 (height, width, channels) and equals
    RasterImage(pixels)."""
    arr = image.pixels
    assert type(image) is RasterImage and type(arr) is np.ndarray
    assert arr.dtype == np.uint8 and arr.shape == pixels.shape and arr.ndim == 3
    assert arr.flags.c_contiguous and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0, 0] = 1
    assert image == RasterImage(pixels)
    assert (image.height, image.width, image.channels) == pixels.shape


@pytest.mark.parametrize("buffer", [bytes, bytearray])
@pytest.mark.parametrize("channels", [1, 3])
def test_read_netpbm_builds_an_image(buffer, channels):
    pixels = _noise((5, 7, channels), channels)
    data = buffer(netpbm.netpbm_header(RasterImage(pixels)) + pixels.tobytes() + b"tail")
    image = netpbm.read_netpbm(data)
    assert_is_image_of(image, pixels)
    if buffer is bytearray:  # the image is of a copy, which a change to the buffer leaves alone
        data[-5] ^= 0xFF
        assert image == RasterImage(pixels)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("height, width", [(24, 31), (96, 96)])
def test_decompress_builds_an_image(height, width, channels):
    # 24x31 planes have 12 blocks, which the per-block loop decodes; 96x96 planes have
    # 144, which are strip-coded
    assert (-(-height // 8) * -(-width // 8) >= bitstream.STRIP_BLOCKS) == (height == 96)
    pixels = _noise((height, width, channels), height + channels)
    image = container.decompress(container.compress(RasterImage(pixels), 7))
    assert_is_image_of(image, core.quantize_plane(pixels, 7))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("height, width", [(24, 31), (96, 96)])
def test_codec_validates_no_array_twice(height, width, channels, monkeypatch):
    # RasterImage(...) checks its samples through core.checked_array; the codec's own images,
    # from arrays that it has just made, do not
    pixels = _noise((height, width, channels), width)
    checks = spy(monkeypatch, core, "checked_array", lambda result, *args: args)
    image = RasterImage(pixels)
    assert len(checks) == 1
    blob = container.compress(image)
    read = netpbm.read_netpbm(netpbm.write_netpbm(image))
    decoded = container.decompress(blob)
    assert len(checks) == 1
    assert read == image and decoded == RasterImage(core.quantize_plane(pixels))
