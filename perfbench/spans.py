"""Spans around the calls into each fmmcodec layer, recorded from outside.

Each probe names a public function by (module, attribute). At run time the
probe resolves it and replaces it in every loaded ``fmmcodec`` module that
binds the same object, so a function reached through ``core.f``, a
``from .core import f`` binding or the package namespace is caught alike.
A name that no longer exists is reported absent with zero calls; its time
then falls into the self time of the span that called it.

Spans are kept in memory as (probe, op, start, end, parent) rows and folded
into per-probe self time when the traced phase ends: a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (metric, module, attribute). Several rows may share a metric.
SPAN_PROBES = (
    ("netpbm.read_s", "netpbm", "read_netpbm"),
    ("netpbm.write_s", "netpbm", "write_netpbm"),
    ("image.validate_s", "image", "RasterImage.__post_init__"),
    ("core.quantize_s", "core", "quantize_plane"),
    ("core.index_s", "core", "to_indices"),
    ("core.unindex_s", "core", "from_indices"),
    ("core.tile_s", "core", "split_blocks"),
    ("core.tile_s", "core", "block_grid"),
    ("core.assemble_s", "core", "assemble_plane"),
    ("bitstream.encode_s", "bitstream", "encode_block"),
    ("bitstream.decode_s", "bitstream", "read_block_fields"),
    ("container.compress_self_s", "container", "compress"),
    ("container.decompress_self_s", "container", "decompress"),
    ("container.header_s", "container", "read_header"),
)
# Call counts of a span metric, reported under their own name.
SPAN_CALLS = {
    "bitstream.encode_calls": "bitstream.encode_s",
    "bitstream.decode_calls": "bitstream.decode_s",
}
# Counted but not timed: called so often that a span would swamp the trace.
COUNT_PROBES = (("core.validate_calls", "core", "validate_modulus"),)

PACKAGE = "fmmcodec"
_UNSET = object()


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Patches the probes in while active; collects spans and counts."""

    def __init__(self):
        self.metrics = sorted({metric for metric, _, _ in SPAN_PROBES})
        self._index = {metric: i for i, metric in enumerate(self.metrics)}
        self.rows: list[tuple[int, int, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for metric, module, attr in SPAN_PROBES:
            self._install(module, attr, lambda fn, m=metric: self._span(self._index[m], fn))
        for metric, module, attr in COUNT_PROBES:
            self._install(module, attr, lambda fn, m=metric: self._counter(m, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, module: str, attr: str, wrap) -> None:
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, _UNSET) if owner is not None else _UNSET
        if original is _UNSET:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = wrap(original)
        if path:  # a class attribute: patch the class itself
            self._patch(owner, name, original, wrapper)
            return
        for mod in _package_modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, binding, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- recording ----------------------------------------------------------

    def _span(self, probe: int, fn):
        rows, stack = self.rows, self._stack

        def wrapper(*args, **kwargs):
            row = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rows[row] = (probe, self.op, start, end, parent)

        return wrapper

    def _counter(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- folding ------------------------------------------------------------

    def fold(self, wall: float) -> tuple[dict[str, float], dict[str, int], float]:
        """Self time and call count per span metric, and the unattributed time.

        ``wall`` is the traced time around the top-level calls. The function
        checks that self times plus the unattributed remainder add up to it
        and that no span outlasts its parent.
        """
        table = np.array(self.rows, dtype=np.float64).reshape(-1, 5)
        probe = table[:, 0].astype(np.int64)
        parent = table[:, 4].astype(np.int64)
        duration = table[:, 3] - table[:, 2]
        nested = parent >= 0
        child_time = np.zeros(len(table))
        np.add.at(child_time, parent[nested], duration[nested])
        self_time = duration - child_time
        unattributed = wall - duration[~nested].sum()
        slack = 1e-6 * max(wall, 1.0)
        if self_time.size and self_time.min() < -slack:
            raise RuntimeError(f"a span outlasts its parent by {-self_time.min():.3g} s")
        if unattributed < -slack:
            excess = -unattributed
            raise RuntimeError(f"top-level spans exceed the traced wall time by {excess:.3g} s")
        if abs(self_time.sum() + unattributed - wall) > slack:
            raise RuntimeError("self times and the unattributed remainder do not add up")
        n = len(self.metrics)
        seconds = np.bincount(probe, weights=self_time, minlength=n)
        calls = np.bincount(probe, minlength=n)
        return (
            {m: float(seconds[i]) for i, m in enumerate(self.metrics)},
            {m: int(calls[i]) for i, m in enumerate(self.metrics)},
            float(unattributed),
        )
