"""End-to-end and per-layer benchmark of the fmmcodec library path.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload photo_rgb --seed 1 --seconds 25 --trace 0

One operation is what ``fmm compress`` / ``fmm decompress`` run on one image:
encode is ``read_netpbm`` then ``compress``, decode is ``decompress`` then
``write_netpbm``. The workload runs as a closed loop from one process and
one thread over a corpus built from ``--seed`` (see corpus.py), and every
output is checked.

A run goes:

1. set-up (import, corpus, a small warm-up), at least three times and for
   at least a second; the median is ``setup_s``;
2. one untimed checking pass over the corpus, which also takes the
   tracemalloc peaks of the largest image;
3. the timed loop. With ``--trace 1`` it is split into an untraced half and
   a traced half (see spans.py), and the per-layer metrics are printed.

Times are corrected for the machine's speed drift (see clock.py). The last
line of standard output is one JSON object with the metrics named in
BENCHMARK.json.

``--record-digests N`` writes the sha256 digests of the .fmm outputs for
seeds 0..N-1 of every workload to digests.json; a run whose seed is listed
there must reproduce them, which guards the frozen v1 format.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import corpus
import spans
from clock import NOMINAL_S, VECTOR_NOMINAL_S, Calibrator, vector_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = (3, 15)  # least and most set-ups; repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0
WARMUP_SIDE = 32  # warm-up crops are at most this many pixels a side
BATCH_SAMPLES = 1 << 19  # throughput is taken per batch of at least this many samples
MIB = 1 << 20
TIMED = (
    "encode_msps", "decode_msps",
    "encode_ms_p50", "encode_ms_p90", "decode_ms_p50", "decode_ms_p90",
)


def load_codec():
    """Import fmmcodec afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "fmmcodec" or n.startswith("fmmcodec.")]:
        del sys.modules[name]
    codec = importlib.import_module("fmmcodec")
    if not Path(codec.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fmmcodec was imported from {codec.__file__}, not from {SRC}")
    return codec


def warm_up(codec, cases: list[corpus.Case]) -> None:
    """Round-trip a small crop of the first case of each (channels, k) pair."""
    seen = set()
    for case in cases:
        key = (case.shape[2], case.k)
        if key in seen:
            continue
        seen.add(key)
        try:
            crop = codec.read_netpbm(case.pnm).pixels[:WARMUP_SIDE, :WARMUP_SIDE]
            codec.write_netpbm(codec.decompress(codec.compress(codec.RasterImage(crop), case.k)))
        except Exception:  # the checking pass reports it
            pass


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


class Peak:
    """tracemalloc peak (MiB) of the allocations made inside the block; inert when off."""

    def __init__(self, on: bool):
        self.on, self.mib = on, 0.0

    def __enter__(self) -> "Peak":
        if self.on:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.on:
            self.mib = tracemalloc.get_traced_memory()[1] / MIB
            tracemalloc.stop()


def check_pass(codec, cases, tally: Tally, measure_memory: bool, recorded: str | None):
    """One untimed pass: encode, decode and check every case.

    ``recorded`` is the corpus digest this seed must reproduce, if any; a
    mismatch fails every encode of the pass not failed already. Returns the
    reference .fmm bytes per case, the mean finite PSNR, the total .fmm
    bytes, the block statistics, and, when ``measure_memory`` is set, the
    encode and decode tracemalloc peaks (MiB) of the largest case: most
    samples, then the largest .fmm, so that every seed measures the same
    kind of image.
    """
    blobs: list[bytes | None] = []
    digest = hashlib.sha256()
    psnrs, total_bytes, stats, peaks = [], 0, corpus.BlockStats(), (0.0, 0.0)
    sized = 0  # encodes that returned a .fmm of the right size
    grammar = [corpus.block_stats(case) for case in cases]
    for case_stats, _ in grammar:
        stats.add(case_stats)
    largest = max(range(len(cases)), key=lambda i: (cases[i].samples, grammar[i][1]))
    for i, case in enumerate(cases):
        measure = measure_memory and i == largest
        tally.attempted += 1
        try:
            with Peak(measure) as encode:
                image = codec.read_netpbm(case.pnm)
                blob = codec.compress(image, case.k)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.fail(f"case {i}: encode raised {exc!r}")
            blobs.append(None)
            continue
        digest.update(hashlib.sha256(blob).digest())
        blobs.append(blob)
        total_bytes += len(blob)
        if len(blob) == grammar[i][1]:
            sized += 1
        else:
            note = f".fmm is {len(blob)} bytes, the block grammar gives {grammar[i][1]}"
            tally.fail(f"case {i}: {note}")
        tally.attempted += 1
        try:
            with Peak(measure) as decode:
                decoded = codec.decompress(blob)
                pnm = codec.write_netpbm(decoded)
        except Exception as exc:
            tally.fail(f"case {i}: decode raised {exc!r}")
            continue
        if measure:
            peaks = (encode.mib, decode.mib)
        expected = corpus.expected_pixels(case)
        if pnm != case.expected_pnm or not np.array_equal(decoded.pixels, expected):
            tally.fail(f"case {i}: decoded image differs from the quantized input")
            continue
        quality = codec.psnr(image, decoded)
        if np.isfinite(quality):
            psnrs.append(quality)
    if recorded is not None and recorded != digest.hexdigest():
        note = f"corpus digest {digest.hexdigest()} differs from the recorded {recorded}"
        tally.fail(note, sized)
    psnr_db = statistics.fmean(psnrs) if psnrs else 0.0
    return blobs, psnr_db, total_bytes, stats, peaks


@dataclass
class Loop:
    """Per-operation timings of a closed loop over the corpus.

    Every operation that returned is timed, whether or not its output
    passed the checks. ``encode``/``decode`` are raw wall times; ``*_cal``
    give, per operation, the index of the calibration sample it is
    corrected by (see clock.py).
    """

    clock: Calibrator = field(default_factory=Calibrator)
    case: list[int] = field(default_factory=list)
    samples: list[int] = field(default_factory=list)
    encode: list[float] = field(default_factory=list)
    decode: list[float] = field(default_factory=list)
    encode_cal: list[int] = field(default_factory=list)
    decode_cal: list[int] = field(default_factory=list)
    wall: float = 0.0  # raw time inside the codec calls, failed ones too
    passes: int = 0

    def corrected(self) -> tuple[np.ndarray, np.ndarray]:
        scale = self.clock.scale()
        return (
            np.asarray(self.encode) * scale[self.encode_cal],
            np.asarray(self.decode) * scale[self.decode_cal],
        )


def run_loop(codec, cases, blobs, tally, seconds, whole_passes, tracer=None) -> Loop:
    """Round-trip cases in order until ``seconds`` have passed.

    With ``whole_passes`` the loop only stops at the end of a pass over the
    corpus, and always makes at least one. Checks and calibration samples
    run between the timed calls.
    """
    loop = Loop()
    read, compress = codec.read_netpbm, codec.compress
    decompress, write = codec.decompress, codec.write_netpbm
    start = perf_counter()
    op = 0
    while True:
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.op = op
            op += 1
            tally.attempted += 1
            encode_cal = loop.clock.due()
            t0 = perf_counter()
            try:
                blob = compress(read(case.pnm), case.k)
            except Exception as exc:  # a failed operation is counted, not fatal
                loop.wall += perf_counter() - t0
                tally.fail(f"case {i}: encode raised {exc!r}")
                continue
            encode = perf_counter() - t0
            loop.wall += encode
            tally.attempted += 1
            decode_cal = loop.clock.due()
            t0 = perf_counter()
            try:
                pnm = write(decompress(blob))
            except Exception as exc:
                loop.wall += perf_counter() - t0
                tally.fail(f"case {i}: decode raised {exc!r}")
                continue
            decode = perf_counter() - t0
            loop.wall += decode
            loop.case.append(i)
            loop.samples.append(case.samples)
            loop.encode.append(encode)
            loop.decode.append(decode)
            loop.encode_cal.append(encode_cal)
            loop.decode_cal.append(decode_cal)
            if blob != blobs[i]:
                tally.fail(f"case {i}: .fmm bytes differ from the checking pass")
            elif pnm != case.expected_pnm:
                tally.fail(f"case {i}: decoded image differs from the quantized input")
            if not whole_passes and perf_counter() - start >= seconds:
                break
        else:
            loop.passes += 1
            if perf_counter() - start < seconds:
                continue
        loop.clock.sample()  # the last operations' sample from after them
        return loop


def batch_rates(samples: list[int], times: np.ndarray) -> list[float]:
    """Msamples/s of consecutive batches of at least BATCH_SAMPLES samples."""
    rates, n, t = [], 0, 0.0
    for count, seconds in zip(samples, times):
        n, t = n + count, t + seconds
        if n >= BATCH_SAMPLES:
            rates.append(n / t / 1e6)
            n, t = 0, 0.0
    if not rates and t:
        rates.append(n / t / 1e6)
    return rates


def per_image_ms(times: np.ndarray, case: list[int]) -> np.ndarray:
    """Median time of each image over its repeats in the loop, in ms."""
    case = np.asarray(case)
    order = np.argsort(case, kind="stable")
    groups = np.split(times[order], np.flatnonzero(np.diff(case[order])) + 1)
    return np.array([np.median(g) for g in groups]) * 1e3


def end_to_end(loop: Loop, setup_s, bits, psnr_db, peaks) -> dict[str, float]:
    metrics = {
        "encode_peak_mib": peaks[0],
        "decode_peak_mib": peaks[1],
        "bits_per_sample": bits,
        "psnr_db": psnr_db,
        "setup_s": setup_s,
    }
    if not loop.samples:  # every operation raised; the tally says so
        return dict.fromkeys(TIMED, 0.0) | metrics
    encode, decode = loop.corrected()
    encode_ms, decode_ms = per_image_ms(encode, loop.case), per_image_ms(decode, loop.case)
    print(
        f"perfbench: {len(loop.samples)} round trips; raw wall p50 encode "
        f"{np.median(loop.encode) * 1e3:.4g} ms, decode {np.median(loop.decode) * 1e3:.4g} ms; "
        f"calibration median {np.median(loop.clock.samples) * 1e3:.3f} ms "
        f"(nominal {NOMINAL_S * 1e3:g} ms)",
        file=sys.stderr,
    )
    timed = (
        statistics.median(batch_rates(loop.samples, encode)),
        statistics.median(batch_rates(loop.samples, decode)),
        float(np.percentile(encode_ms, 50)),
        float(np.percentile(encode_ms, 90)),
        float(np.percentile(decode_ms, 50)),
        float(np.percentile(decode_ms, 90)),
    )
    return dict(zip(TIMED, timed)) | metrics


def per_layer(codec, cases, blobs, tally, seconds, stats: corpus.BlockStats) -> dict[str, float]:
    plain = run_loop(codec, cases, blobs, tally, seconds / 2, whole_passes=True)
    with spans.Tracer() as tracer:
        traced = run_loop(codec, cases, blobs, tally, seconds / 2, whole_passes=True, tracer=tracer)
    for name in tracer.absent:
        print(f"perfbench: {name} is absent; counted as 0 calls", file=sys.stderr)
    self_s, calls, unattributed = tracer.fold(traced.wall)
    # Spans are corrected as a phase: by the traced half's median calibration.
    per_pass = traced.clock.median_scale() / traced.passes
    metrics = {m: s * per_pass for m, s in self_s.items()}
    metrics.update({m: calls[span] / traced.passes for m, span in spans.SPAN_CALLS.items()})
    metrics.update({m: tracer.counts[m] / traced.passes for m, _, _ in spans.COUNT_PROBES})
    plain_wall = plain.wall * plain.clock.median_scale() / plain.passes
    varied = stats.blocks - stats.repeated
    metrics.update(
        {
            "trace.wall_s": traced.wall * per_pass,
            "trace.unattributed_s": unattributed * per_pass,
            "trace.overhead": traced.wall * per_pass / plain_wall,
            "clock.calibration_ms": np.median(plain.clock.samples + traced.clock.samples) * 1e3,
            "blocks": stats.blocks,
            "repeated_share": stats.repeated / stats.blocks,
            "mean_delta_width": stats.width_sum / varied if varied else 0.0,
            "payload_share": stats.payload_bits / stats.stream_bits,
        }
    )
    return metrics


def record_digests(count: int) -> None:
    codec = load_codec()
    table = {}
    for name, build in corpus.WORKLOADS.items():
        table[name] = {}
        for seed in range(count):
            digest = hashlib.sha256()
            for case in build(seed):
                blob = codec.compress(codec.read_netpbm(case.pnm), case.k)
                digest.update(hashlib.sha256(blob).digest())
            table[name][str(seed)] = digest.hexdigest()
            print(f"{name} seed {seed}: {table[name][str(seed)]}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.workload is None and args.record_digests is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fmmcodec" / "__init__.py").is_file():
        print(f"perfbench: no fmmcodec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests is not None:
        record_digests(args.record_digests)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build = corpus.WORKLOADS[args.workload]

    setup_clock, setup_times = Calibrator(vector_kernel, VECTOR_NOMINAL_S), []
    least, most = SETUP_REPEATS
    while len(setup_times) < least or (
        len(setup_times) < most and sum(setup_times) < SETUP_SECONDS
    ):
        setup_clock.sample()
        start = perf_counter()
        codec = load_codec()
        cases = build(args.seed)
        warm_up(codec, cases)
        setup_times.append(perf_counter() - start)
    setup_clock.sample()
    setup_s = float(np.median(np.array(setup_times) * setup_clock.scale()[: len(setup_times)]))

    tally = Tally()
    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
    blobs, psnr_db, total_bytes, stats, peaks = check_pass(
        codec, cases, tally, measure_memory=not args.trace, recorded=recorded
    )
    bits = 8 * total_bytes / sum(case.samples for case in cases)

    if args.trace:
        metrics = per_layer(codec, cases, blobs, tally, args.seconds, stats)
        names = spec["per_layer"]
    else:
        loop = run_loop(codec, cases, blobs, tally, args.seconds, whole_passes=False)
        metrics = end_to_end(loop, setup_s, bits, psnr_db, peaks)
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for note in tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
