"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by tens of per cent
over seconds to minutes, as neighbours come and go.  A raw wall time then
measures the neighbours as much as the program.  :class:`HostClock`
brackets every timed interval with a fixed reference loop and scales the
interval by ``REFERENCE_S / reference time``, the mean of the loops just
before and just after it.  A scaled time is the wall time the interval
would take on a host where the reference loop takes :data:`REFERENCE_S`.

The reference loop uses only the standard library and numpy, never the
program, so a change to the program cannot move it.  Its mix follows what
the simulator and the service spend their time on: a binary heap of
tuples and dict updates (interpreter-bound), sorts of a 1.6 MB array
(cache-bound) and random gathers from a 16 MB table (memory-bound).  The
loop collects garbage before it starts timing, so the garbage a pass leaves
behind is not charged to it.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: Seconds one reference loop takes on the reference host (a 2-vCPU Xeon
#: guest, quiet neighbours).
REFERENCE_S = 0.1

_TABLE_ITEMS = 2_000_000
_GATHER_ITEMS = 500_000
_gather_inputs: tuple | None = None


def reference_loop() -> float:
    """Wall time of one fixed unit of reference work."""
    global _gather_inputs
    if _gather_inputs is None:
        rng = np.random.default_rng(0)
        _gather_inputs = (rng.random(_TABLE_ITEMS),
                          rng.integers(0, _TABLE_ITEMS, _GATHER_ITEMS))
    table, index = _gather_inputs
    gc.collect()
    started = time.perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(45000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        counts[i % 997] = counts.get(i % 997, 0) + i
    while heap:
        heapq.heappop(heap)
    values = np.arange(200000, dtype=float)
    for _ in range(10):
        values = np.sort(values[::-1]) + 1.0
    for _ in range(4):
        table[index].sum()
    return time.perf_counter() - started


class HostClock:
    """Times calls and scales them to the reference host's speed."""

    def __init__(self) -> None:
        self._last = reference_loop()

    def call(self, fn, *args):
        """Run ``fn(*args)``; return its value, wall seconds and the scale
        that turns a wall time inside the call into a reference time."""
        started = time.perf_counter()
        value = fn(*args)
        wall = time.perf_counter() - started
        before, self._last = self._last, reference_loop()
        return value, wall, REFERENCE_S / ((before + self._last) / 2)
