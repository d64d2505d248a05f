"""Machine speed next to each timed call, from a fixed reference kernel.

The small VMs this benchmark runs on change speed for seconds to minutes at
a time, by up to 1.8x, with no steal time: plain Python, numpy scatter and
BLAS all slow down together (RATIONALE.md, "Noise").  So each timed call
is bracketed by short runs of a reference kernel that never touches ismaf,
and its time is scaled by the reference kernel's speed next to it:

    scaled = raw * REFERENCE_S / mean(kernel time just before, just after)

which reads as the call's time on the reference machine at its usual speed.
A change to ismaf cannot move the kernel, so it moves the scaled time as
much as the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one ReferenceKernel call on the reference machine
# (2-vCPU VM, numpy 2.4, OpenBLAS, two BLAS threads) in its fast state.
REFERENCE_S = 0.0025

# A block ending at most this long before a timed call counts as its
# "before": short untimed work in between (a split_dataset) does not need a
# block of its own.
SHARED_BLOCK_GAP_S = 0.1


class ReferenceKernel:
    """A fixed mix like ismaf's: Python object churn, small-array numpy
    calls, a scatter-add and a two-thread matmul.  Its arrays are made once,
    so its time does not depend on how fast fresh memory is."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mat = rng.standard_normal((256, 256))
        self.mat_out = np.empty_like(self.mat)
        self.small = rng.standard_normal((64, 32))
        self.small_out = np.empty_like(self.small)
        self.index = rng.integers(0, 512, 200_000)
        self.acc = np.zeros(512)

    def __call__(self) -> None:
        records = [{"op": i % 7, "shape": (i, i + 1)} for i in range(2000)]
        del records
        np.copyto(self.small_out, self.small)
        for _ in range(120):
            np.multiply(self.small_out, 0.5, out=self.small_out)
            np.add(self.small_out, 0.1, out=self.small_out)
            np.tanh(self.small_out, out=self.small_out)
        self.acc[:] = 0.0
        np.add.at(self.acc, self.index, 1.0)
        np.matmul(self.mat, self.mat, out=self.mat_out)


class Speedometer:
    """Runs the reference kernel for a block of time around each timed call.

    Consecutive timed calls share a block: the block after one call is the
    block before the next, unless other work ran in between.  Disabled, it
    runs no kernel and reports raw times unscaled (traced runs, whose
    overhead ratio compares whole ops).
    """

    def __init__(self, block_s: float, enabled: bool = True, kernel=None):
        self.block_s = block_s
        self.enabled = enabled
        self.kernel = ReferenceKernel() if kernel is None else kernel
        self._last: tuple[float, float] | None = None  # (end time, kernel seconds)

    def block(self, seconds: float) -> float:
        """Median time of one kernel call over a block of about `seconds`
        (a median, so one call the OS interrupts does not move it)."""
        start = now = time.perf_counter()
        calls = []
        while not calls or now - start < seconds:
            self.kernel()
            calls.append(time.perf_counter() - now)
            now += calls[-1]
        typical = statistics.median(calls)
        self._last = (now, typical)
        return typical

    def timed(self, fn, *args, block_s: float | None = None, **kwargs):
        """fn's result, its raw seconds, and those seconds scaled to the
        reference speed by the kernel blocks just before and after it."""
        if not self.enabled:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            raw = time.perf_counter() - start
            return result, raw, raw
        seconds = self.block_s if block_s is None else block_s
        last = self._last
        if last is not None and time.perf_counter() - last[0] < SHARED_BLOCK_GAP_S:
            before = last[1]
        else:
            before = self.block(seconds)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        after = self.block(seconds)
        return result, raw, raw * REFERENCE_S / ((before + after) / 2)
