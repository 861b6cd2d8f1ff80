"""Command-line front end: compress, decompress, compare, inspect, bench.

Exit codes are fixed so shell tests stay portable: 0 success, 1 usage,
2 I/O failure or out of memory, 3 malformed or corrupt data.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from . import container, metrics
from .core import DEFAULT_MODULUS, validate_modulus
from .errors import FmmError, ModulusError
from .netpbm import netpbm_header, read_netpbm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for I/O."""

    def error(self, message):
        raise _UsageError(message)


def _modulus_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"modulus must be an integer, got {text!r}")
    try:
        return validate_modulus(value)
    except ModulusError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> _Parser:
    parser = _Parser(prog="fmm", description="Block codec for 8-bit PGM/PPM images.")
    parser.add_argument("-v", "--verbose", action="store_true", help="print extra detail")
    sub = parser.add_subparsers(dest="command", required=True)
    modulus = _Parser(add_help=False)  # the -k option of compress and bench
    modulus.add_argument(
        "-k", "--modulus", type=_modulus_arg, default=DEFAULT_MODULUS,
        help="odd quantization step in [3, 127], default %(default)s",
    )

    p = sub.add_parser("compress", parents=[modulus],
                       help="encode a PGM/PPM file into a .fmm container")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decode a .fmm container back to PGM/PPM")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("compare", help="print quality metrics for two images")
    p.add_argument("original")
    p.add_argument("reconstructed")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("inspect", help="dump per-block stream fields of a container")
    p.add_argument("input")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("bench", parents=[modulus],
                       help="compress every PGM/PPM in a directory, report PSNR and CR")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_bench)

    return parser


def _require_distinct(a: str, b: str) -> None:
    if Path(a).resolve() == Path(b).resolve():
        raise _UsageError("input and output must be different paths")


def _load_image(path: str):
    return read_netpbm(Path(path).read_bytes())


def _cmd_compress(args) -> int:
    _require_distinct(args.input, args.output)
    image = _load_image(args.input)
    blob = container.compress(image, args.modulus)
    Path(args.output).write_bytes(blob)
    raw = image.width * image.height * image.channels
    payload = len(blob) - container.HEADER_SIZE - 4 * image.channels
    cr = metrics.compression_ratio(raw, len(blob))
    if args.verbose:
        # no sample moves further than this, so the PSNR of any image is at least the floor
        bound = max(args.modulus // 2, 255 % args.modulus)
        print(f"modulus {args.modulus}, {image.width}x{image.height}, "
              f"{image.channels} channel(s)")
        print(f"error bound {bound}, PSNR floor "
              f"{20 * math.log10(metrics.PEAK_8BIT / bound):.2f} dB")
    print(f"{args.input}: {raw} -> {len(blob)} bytes (payload {payload}), CR {cr:.2f}")
    return EXIT_OK


def _cmd_decompress(args) -> int:
    _require_distinct(args.input, args.output)
    image = container.decompress(Path(args.input).read_bytes())
    with open(args.output, "wb") as out:  # write_netpbm's bytes, without joining a copy
        out.write(netpbm_header(image))
        out.write(image.pixels.data)
    print(f"{args.output}: {image.width}x{image.height}, {image.channels} channel(s)")
    return EXIT_OK


def _fmt(value: float) -> str:
    return "inf" if value == metrics.LOSSLESS else f"{value:.6f}"


def _cmd_compare(args) -> int:
    report = metrics.compare(_load_image(args.original), _load_image(args.reconstructed))
    print(f"mse {report.mse:.6f}")
    print(f"rmse {report.rmse:.6f}")
    if report.psnr == metrics.LOSSLESS:
        print("psnr lossless")
    else:
        print(f"psnr {report.psnr:.6f}")
    print(f"sigma_original {report.sigma_original:.6f}")
    print(f"sigma_reconstructed {report.sigma_reconstructed:.6f}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    blob = Path(args.input).read_bytes()
    header = container.read_header(blob)
    blocks = container.block_headers(blob)  # raises for a rejected file before any output
    print(f"modulus {header.modulus}, {header.width}x{header.height}, "
          f"{header.channels} channel(s)")
    for channel, row, col, cells, lo, spread, dw, bits in blocks:
        line = f"ch={channel} block={row},{col} min={lo} rep={int(not spread)}"
        if spread:
            line += f" max={spread} width={dw}"
        payload = cells * dw
        line += f" bits={bits} payload={payload}"
        if payload:
            line += f" ratio={cells * 8 / payload:.2f}"
        print(line)
    return EXIT_OK


def _cmd_bench(args) -> int:
    paths = sorted(
        p for p in Path(args.directory).iterdir()
        if p.suffix.lower() in (".pgm", ".ppm")
    )
    done = 0
    psnrs = []  # of the lossy images: a lossless one's inf would hide the others
    cr_sum = 0.0
    for path in paths:
        try:
            image = read_netpbm(path.read_bytes())
        except (OSError, FmmError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        blob = container.compress(image, args.modulus)
        decoded = container.decompress(blob)
        quality = metrics.psnr(image, decoded)
        raw = image.width * image.height * image.channels
        cr = metrics.compression_ratio(raw, len(blob))
        print(f"{path.name}\t{_fmt(quality)}\t{cr:.4f}")
        done += 1
        if quality != metrics.LOSSLESS:
            psnrs.append(quality)
        cr_sum += cr
    if done == 0:
        print(f"error: no readable PGM/PPM images in {args.directory}", file=sys.stderr)
        return EXIT_IO
    mean = sum(psnrs) / len(psnrs) if psnrs else metrics.LOSSLESS
    print(f"mean\t{_fmt(mean)}\t{cr_sum / done:.4f}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO
    except FmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
