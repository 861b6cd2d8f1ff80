"""Block streams of index planes, for tests that build their planes as indices."""

from fmmcodec import bitstream, core


def encode_indices(indices, k: int = 5) -> bytes:
    """The block stream of a 2D index plane: its samples, indices times k, quantize back to
    the same indices, so this is append_samples' stream of them."""
    out = bytearray()
    bitstream.append_samples(out, core.from_indices(indices, k), k)
    return bytes(out)
