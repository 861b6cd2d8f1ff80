"""Drift-corrected timing for a shared, noisy machine.

On a machine shared with other workloads the speed of one core drifts by
20% and more over tens of seconds, so raw wall times of two runs of the
same code differ by that much. A fixed calibration kernel, run between
operations, takes a sample of the machine's current speed. Each operation's
wall time is scaled by ``NOMINAL_S / c``, where ``c`` is the median of the
calibration samples taken just before, at and just after it: the result is
the time the operation would have taken had the kernel run in NOMINAL_S.

The kernel mixes what the codec does: a Python loop over 64-byte blocks
with small numpy calls and bit packing, and one bulk numpy pass. Set-up is
mostly bulk numpy float work (building the corpus), which drifts
differently, so it is corrected with ``vector_kernel`` instead. Neither
kernel touches fmmcodec, so no change to the codec changes them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Typical kernel times on the 2-core 2.1 GHz Xeon VM the benchmark was defined on.
NOMINAL_S = 0.003
VECTOR_NOMINAL_S = 0.005
INTERVAL_S = 0.1  # least time between two calibration samples

_DATA = np.random.default_rng(0).integers(0, 64, 1 << 16, dtype=np.uint8)
_RAMP = np.linspace(0.0, 100.0, 1 << 18)


def kernel() -> int:
    acc = 0
    for i in range(0, _DATA.size, 128):
        block = _DATA[i : i + 64]
        lo = int(block.min())
        acc += int(block.max()) - lo
        bits = np.unpackbits(block[:8])
        acc += int.from_bytes(np.packbits(bits).tobytes(), "big") >> 3
    return acc + int(np.unpackbits(_DATA).sum())


def vector_kernel() -> float:
    return float(np.sin(_RAMP).sum() + np.random.default_rng(0).standard_normal(1 << 17).sum())


class Calibrator:
    """Calibration samples of one timed phase, from one kernel."""

    def __init__(self, kernel=kernel, nominal: float = NOMINAL_S):
        self.kernel, self.nominal = kernel, nominal
        kernel()  # the first call pays for numpy's lazy set-up
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Take a sample now; return its index."""
        start = perf_counter()
        self.kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self._last = end
        return len(self.samples) - 1

    def due(self) -> int:
        """Take a sample if INTERVAL_S has passed since the last; return the latest index."""
        if perf_counter() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self) -> np.ndarray:
        """Per-sample factor nominal / (median of the sample and its neighbours)."""
        cal = np.asarray(self.samples)
        padded = np.concatenate([cal[:1], cal, cal[-1:]])
        smoothed = np.median(np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0)
        return self.nominal / smoothed

    def median_scale(self) -> float:
        return self.nominal / float(np.median(self.samples))
