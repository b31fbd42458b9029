"""A calibration kernel the benchmark owns (it imports nothing from
``repro``), used to express host time at a fixed reference speed.

The kernel's mix is close to the farm's interpreter-bound inner loop:
heap pushes and pops of ``(time, seq, obj)`` tuples as in the event
queue, small slotted objects as in packets and events, dict lookups as
in flow tables, and bytes building as in serialization.  The objects
are drawn in scattered order from a pool of 128k, so that, like the
farm with its large heap, the kernel misses the CPU caches; a kernel
that fits in cache speeds up and slows down with this machine's noise
about twice as much as the farm does.

Timed in the same process right before and right after a stretch of
farm work, the kernel tells how fast this CPU ran that kind of code at
that moment.  Scaling the stretch's host time by
``REFERENCE_S / reading`` removes most of the machine's speed drift.
"""

from __future__ import annotations

import gc
import heapq
import random
import struct
from statistics import median
from time import perf_counter

#: Median seconds of one :meth:`Calibrator.kernel` call that defines
#: the reference machine speed.  Fixed once; a faster host reads less
#: than this, a slower one more.
REFERENCE_S = 0.0110

POOL = 1 << 17
STEPS = 4000

_pack = struct.Struct("!HHII").pack


class _Cell:
    __slots__ = ("key", "seq", "size")

    def __init__(self, key: int, seq: int, size: int) -> None:
        self.key = key
        self.seq = seq
        self.size = size


class Calibrator:
    """Owns the kernel's object pool (built once, ~25 MB)."""

    reference = REFERENCE_S

    def __init__(self) -> None:
        rng = random.Random(1)
        self.cells = [_Cell(i & 4095, i, (i * 7) & 1023)
                      for i in range(POOL)]
        rng.shuffle(self.cells)
        self.table = {(cell.key, cell.seq): cell for cell in self.cells}
        self.order = [rng.randrange(POOL) for _ in range(POOL)]
        self.cursor = 0

    def kernel(self, steps: int = STEPS) -> int:
        cells, table, order = self.cells, self.table, self.order
        base = self.cursor
        heap = []
        out = bytearray()
        total = 0
        for i in range(steps):
            cell = cells[order[(base + i) & (POOL - 1)]]
            heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i, cell))
            if len(heap) > 48:
                _time, _seq, popped = heapq.heappop(heap)
                hit = table.get((popped.key, popped.seq))
                if hit is not None:
                    total += hit.size
                out += _pack(popped.key, popped.size, popped.seq,
                             total & 0xFFFFFFFF)
                if len(out) > 4096:
                    total ^= len(bytes(out))
                    del out[:]
        self.cursor = (base + steps) & (POOL - 1)
        return total

    def reading(self, samples: int = 7) -> float:
        """Median seconds of one kernel call, over ``samples`` calls.

        The collector is off while the kernel runs: a collection of
        the farm's heap landing inside a sample would be read as a
        slow CPU."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(samples):
                started = perf_counter()
                self.kernel()
                times.append(perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        return median(times)
