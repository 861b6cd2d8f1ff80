"""Lossy image codec built on modulus quantization of 8-bit samples.

Samples are snapped to the nearest multiple of an odd modulus (5 by
default), divided down to small indices, and packed per 8x8 block as a
minimum plus bit-packed deltas. ``compress``/``decompress`` speak the .fmm
container; ``read_netpbm``/``write_netpbm`` handle uncompressed I/O.
"""

from .bitstream import BLOCK_SIZE
from .container import compress, decompress, read_header
from .core import DEFAULT_MODULUS, quantize_plane, validate_modulus
from .errors import (
    CorruptStreamError,
    FmmError,
    FormatError,
    ModulusError,
    NetpbmError,
    TruncatedStreamError,
)
from .image import RasterImage
from .metrics import (
    LOSSLESS,
    QualityReport,
    compare,
    compression_ratio,
    mse,
    psnr,
    stddev,
)
from .netpbm import read_netpbm, write_netpbm

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "DEFAULT_MODULUS",
    "LOSSLESS",
    "CorruptStreamError",
    "FmmError",
    "FormatError",
    "ModulusError",
    "NetpbmError",
    "QualityReport",
    "RasterImage",
    "TruncatedStreamError",
    "compare",
    "compress",
    "compression_ratio",
    "decompress",
    "mse",
    "psnr",
    "quantize_plane",
    "read_header",
    "read_netpbm",
    "stddev",
    "validate_modulus",
    "write_netpbm",
    "__version__",
]
