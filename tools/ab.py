"""In-process A/B of this tree's codec against another tree's, on a perfbench corpus.

Usage, from the root of a source checkout, with the parent's tree in DIR:

    git archive <parent> | tar -x -C DIR
    python3 tools/ab.py --against DIR --workload tiny_mixed --seed 7 --rounds 40

DIR's ``src/fmmcodec`` is loaded twice, as A and as an A/A control, and this
tree's as B, each under a package name of its own, as the package imports only
relatively. One process then times all three on the same corpus, built by
``perfbench/corpus.py``, which is imported and not changed. Every side first
encodes and decodes each case; A and B must give the same .fmm bytes and
decoded netpbm bytes, and those the quantized input, or nothing is timed.

A round times one pass over the corpus of each operation on every side, in a
new shuffled order of the sides: encode is ``read_netpbm`` then ``compress``,
decode is ``decompress`` then ``write_netpbm``, as in ``perfbench/run.py``.
For each operation it prints the median and quartiles over the rounds of the
per-round time ratios B/A and A/A. A change counts as faster or slower only
where B/A lies outside the A/A quartiles. Peak memory is not measured, as
tracemalloc would see every side's codec at once.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str, package: bool = False):
    """The module or, with package, the package directory at path, imported as name."""
    init = path / "__init__.py" if package else path
    search = [str(path)] if package else None
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # before it runs, for the package's relative imports
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in DIR
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def encode(codec, cases) -> list:
    return [codec.compress(codec.read_netpbm(case.pnm), case.k) for case in cases]


def decode(codec, blobs) -> list:
    return [codec.write_netpbm(codec.decompress(blob)) for blob in blobs]


def check(sides: dict, cases) -> list:
    """The .fmm bytes of each case, after checking that every side gives them, and decodes
    them to the same bytes and to the quantized input; else SystemExit."""
    expected = [case.expected_pnm for case in cases]
    blobs = None
    for name, codec in sides.items():
        got = [bytes(blob) for blob in encode(codec, cases)]
        blobs = blobs or got
        if got != blobs:
            sys.exit(f"{name} encodes the corpus to other bytes than {next(iter(sides))}")
        if decode(codec, got) != expected:
            sys.exit(f"{name} decodes the corpus to other pixels than its quantized input")
    return blobs


def quartiles(ratios: list[float]) -> tuple[float, float, float]:
    low, median, high = statistics.quantiles(ratios, n=4, method="inclusive")
    return median, low, high


def run(sides: dict, cases, rounds: int, seed: int) -> dict[str, dict[str, list[float]]]:
    """Per operation, each side's time of every round, in seconds."""
    blobs = check(sides, cases)
    operations = {"encode": (encode, cases), "decode": (decode, blobs)}
    order = list(sides)
    shuffle = random.Random(seed).shuffle
    times = {op: {name: [] for name in sides} for op in operations}
    for _ in range(rounds):
        for op, (call, inputs) in operations.items():
            shuffle(order)
            for name in order:
                start = perf_counter()
                call(sides[name], inputs)
                times[op][name].append(perf_counter() - start)
    return times


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True, help="tree root of side A")
    parser.add_argument("--workload", default="tiny_mixed")
    parser.add_argument("--seed", type=int, default=7, help="corpus seed, also of the order")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--cases", type=int, help="the corpus's first CASES cases only")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("quartiles need at least 2 rounds")
    corpus = load(ROOT / "perfbench" / "corpus.py", "ab_corpus")
    cases = corpus.WORKLOADS[args.workload](args.seed)[: args.cases]
    sides = {
        "A": load(args.against / "src" / "fmmcodec", "ab_parent", package=True),
        "A/A": load(args.against / "src" / "fmmcodec", "ab_parent_again", package=True),
        "B": load(ROOT / "src" / "fmmcodec", "ab_change", package=True),
    }
    times = run(sides, cases, args.rounds, args.seed)
    print(f"{args.workload} seed {args.seed}, {len(cases)} cases, {args.rounds} rounds")
    for op, by_side in times.items():
        ratios = {
            name: [t / a for t, a in zip(by_side[name], by_side["A"])] for name in ("B", "A/A")
        }
        b, aa = quartiles(ratios["B"]), quartiles(ratios["A/A"])
        print(
            f"{op}: B/A {b[0]:.3f} [{b[1]:.3f}, {b[2]:.3f}], A/A {aa[0]:.3f} "
            f"[{aa[1]:.3f}, {aa[2]:.3f}], A {statistics.median(by_side['A']) * 1e3:.1f} ms a pass"
        )


if __name__ == "__main__":
    main()
