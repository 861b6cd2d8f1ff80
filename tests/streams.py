"""Block streams of index planes, for tests that build their planes as indices."""

import numpy as np

from fmmcodec import bitstream


def encode_indices(indices, k: int = 5) -> bytes:
    """The block stream of a 2D index plane: its samples, indices times k, quantize back to
    the same indices, so this is append_samples' stream of them."""
    indices = np.asarray(indices)
    assert indices.min() >= 0 and indices.max() <= 255 // k, f"indices out of range 0..{255 // k}"
    out = bytearray()
    bitstream.append_samples(out, indices.astype(np.uint8) * np.uint8(k), k)
    return bytes(out)


def decode_indices(stream, height: int, width: int, k: int = 5) -> np.ndarray:
    """The index plane of a block stream: decode_plane's samples divided by k, after checking
    that each is a multiple of k, so a decoder that writes anything else cannot pass as one."""
    samples = bitstream.decode_plane(stream, height, width, k)
    assert not (samples % k).any(), f"decoded samples are not all multiples of {k}"
    return samples // np.uint8(k)
