"""Host speed, measured alongside the timed run.

The benchmark runs on shared hosts whose speed for the same Python code
drifts by a third within seconds and for minutes at a time (other tenants
on sibling cores).  A fixed reference kernel, run every few tens of
milliseconds from a ``SIGALRM`` handler while the program runs, sees the
same slowdowns.  Dividing the run's own time by the kernel's mean time gives
the run's length in kernel units (``ref``), which no longer depends on how
busy the host was.

The kernel mixes what the simulator spends its time on: attribute access on
slotted objects, dict updates, ``heapq`` and float arithmetic.  It touches no
object of the program and no random state, so the simulation is unchanged
(the fingerprint check of every run confirms it).  Its time is taken out of
the run's wall and CPU time.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

INTERVAL_S = 0.05
MIN_SAMPLES = 8
#: Nominal kernel time that converts ``ref`` units to seconds, for
#: ``setup_s``, which must be in seconds: about the kernel's median time on
#: a 2.1 GHz Xeon core with the sibling cores idle.
REF_S = 0.002


class _Item:
    __slots__ = ("key", "size", "done")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.done = 0


def kernel(rounds: int = 40) -> float:
    """Fixed work of about 2 ms on a 2.1 GHz Xeon core."""
    items = [_Item(i, (i * 7919) % 97 + 1) for i in range(64)]
    table: dict[int, int] = {}
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for r in range(rounds):
        for item in items:
            item.done += 1
            if item.done >= item.size:
                item.done = 0
                table[item.key] = table.get(item.key, 0) + 1
            heapq.heappush(heap, (item.done * 0.5 + r, item.key))
        while len(heap) > 32:
            t, _ = heapq.heappop(heap)
            acc += t * 1e-3
    return acc


class HostSpeedProbe:
    """Runs ``kernel`` every ``INTERVAL_S`` of wall time while started."""

    def __init__(self) -> None:
        self.samples = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def sample(self, *_args) -> None:
        # Collecting the program's garbage here would be charged to the
        # kernel; the allocations still count toward the next collection.
        was_enabled = gc.isenabled()
        gc.disable()
        c0, w0 = time.process_time(), time.perf_counter()
        kernel()
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += time.process_time() - c0
        self.samples += 1
        if was_enabled:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Stop sampling; returns the wall and CPU time the kernel took."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        spent = self.wall_s, self.cpu_s
        # A run shorter than a few intervals still gets a usable mean.
        while self.samples < MIN_SAMPLES:
            self.sample()
        return spent

    @property
    def kernel_wall_s(self) -> float:
        return self.wall_s / self.samples

    @property
    def kernel_cpu_s(self) -> float:
        return self.cpu_s / self.samples
