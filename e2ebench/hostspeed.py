"""Host-speed reference: a fixed Python workload timed between steps.

The benchmark runs on shared hosts whose speed drifts by up to about
2x over stretches of seconds to minutes, which no statistic over one
run's sets can remove: a whole run lands in a slow or a fast stretch.
So a run also times this fixed kernel, which does not touch the
program, in the gaps before and after every set-up and set, and scales
their wall times by how fast the host ran the kernel meanwhile. A slower
program moves the sets but not the kernel; a slower host moves both.

The kernel is interpreter work of the same kind as the simulator's
event loop: slotted objects, a heap of events, dict counters and float
arithmetic. It allocates nothing that outlives a call, and runs with
the garbage collector off, so the objects the program left in the
process do not slow it. It runs the way the timed work does:

- in-process around a serial set;
- on ``processes`` forked processes at once around a sweep over a pool
  of that many workers, because the host can take one vCPU away for
  seconds, which halves a two-worker pool but barely slows one process;
- in a fresh interpreter that first imports numpy around a set-up,
  because while a vCPU is away, numpy's import stalls for about 50 ms
  (its thread pool starts), and a set-up pays that stall too. The
  stall adds a fixed time rather than a share, so a set-up gap runs a
  fixed number of calls that lasts about one set-up on a calm host.

Run as a script, ``python3 e2ebench/hostspeed.py N`` imports numpy and
makes N kernel calls.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path

#: Seconds one kernel call takes on an idle 2-vCPU Intel Xeon host
#: (CPython 3.11), and seconds a fresh interpreter there takes to start
#: and import numpy. Scaled times read as seconds on that host.
NOMINAL_CALL_S = 0.05
NOMINAL_START_S = 0.075

#: Kernel time in a gap between sets, as a share of the set before it,
#: and the fewest calls in one such gap.
GAP_SHARE = 0.3
MIN_CALLS = 4


class _Event:
    __slots__ = ("time", "bank", "size")

    def __init__(self, time: float, bank: int, size: int):
        self.time = time
        self.bank = bank
        self.size = size


def kernel(n: int = 80_000) -> float:
    """One fixed unit of interpreter work; returns a checksum."""
    heap = []
    counts = {}
    energy = 0.0
    for i in range(n):
        ev = _Event(i * 1.25, i & 63, 64 + (i & 7))
        heapq.heappush(heap, (ev.time + (i * 7919 % 97), i, ev))
        if len(heap) > 48:
            _, _, done = heapq.heappop(heap)
            counts[done.bank] = counts.get(done.bank, 0) + done.size
            energy += done.time * 1e-3 + done.size * 0.5
    return energy + sum(counts.values())


def _calls(n: int) -> None:
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            kernel()
    finally:
        if enabled:
            gc.enable()


def gap_calls(after_s: float) -> int:
    """Calls for a gap after a set of ``after_s`` seconds: about
    ``GAP_SHARE`` of it, and at least ``MIN_CALLS``."""
    return max(MIN_CALLS, round(GAP_SHARE * after_s / NOMINAL_CALL_S))


class HostSpeed:
    """Kernel calls timed over one run. Each gap's calls run on
    ``processes`` processes at once, or with ``fresh`` in a fresh
    interpreter that imports numpy first."""

    def __init__(self, processes: int = 1, fresh: bool = False):
        self.processes = processes
        self.fresh = fresh
        self.calls = 0
        self.seconds = 0.0
        self.nominal_s = 0.0

    def sample(self, calls: int) -> None:
        """Time one gap of ``calls`` kernel calls (per process)."""
        start = time.perf_counter()
        if self.fresh:
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            str(calls)], check=True, timeout=170)
        elif self.processes == 1:
            _calls(calls)
        else:
            context = multiprocessing.get_context("fork")
            workers = [context.Process(target=_calls, args=(calls,))
                       for _ in range(self.processes)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            if any(worker.exitcode != 0 for worker in workers):
                raise RuntimeError("host-speed kernel process failed")
        self.seconds += time.perf_counter() - start
        self.calls += calls
        self.nominal_s += calls * NOMINAL_CALL_S
        if self.fresh:
            self.nominal_s += NOMINAL_START_S

    def call_s(self) -> float:
        """Mean seconds per kernel call (per process) so far, start-up
        of fresh interpreters included."""
        return self.seconds / self.calls

    def scale(self, seconds: float) -> float:
        """``seconds`` measured on this host, as seconds on the nominal
        host: scaled by the gaps' nominal over their measured time."""
        return seconds * self.nominal_s / self.seconds


if __name__ == "__main__":
    import numpy  # noqa: F401  (its import is part of what a gap times)

    _calls(int(sys.argv[1]))
