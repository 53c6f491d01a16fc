"""Deterministic discrete-event simulation core.

The engine is intentionally small: a binary heap of timestamped events, a
monotonically advancing clock, and cancellable event handles.  Determinism is
guaranteed by a tie-breaking sequence number, so two events scheduled for the
same instant always fire in scheduling order regardless of heap internals.

Performance notes (the scale benchmark in :mod:`repro.harness.perfbench`
drives millions of events through this loop):

* Heap entries are ``(time, seq, event)`` tuples, so ordering comparisons
  run entirely in C on floats/ints — ``Event.__lt__`` never fires (``seq``
  is unique, the tuple comparison is decided before the third element).
* Cancelled events stay in the heap as tombstones (a heap delete is
  O(n)), but the simulator keeps an exact count of pending tombstones so
  idle checks are O(1) and the heap is compacted wholesale when tombstones
  dominate, instead of scanning for them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or
    :meth:`Simulator.call_at`) and may be cancelled before they fire.  A
    cancelled event stays in the heap but is skipped by the main loop, which
    is cheaper than a heap delete.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        kwargs: Optional[dict],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent; no-op if already fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled or fired."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, seq={self.seq}, fn={getattr(self.fn, '__name__', self.fn)!r}, {state})"


class Simulator:
    """Event-driven simulation clock and scheduler.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, my_callback, arg)
        sim.run(until=100.0)

    Callbacks may schedule further events; the loop drains the heap in
    timestamp order until it is empty or the horizon is reached.
    """

    #: Compact the heap when it holds this many tombstones and they
    #: outnumber the live events.
    _COMPACT_MIN_TOMBSTONES = 1024

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap of (time, seq, Event): comparisons stay on the C fast path
        # and never reach the Event object because seq is unique.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._cancelled_pending = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of schedulable (not cancelled) events still in the heap."""
        return len(self._heap) - self._cancelled_pending

    def digest(self) -> dict:
        """Terminal-state summary folded into run fingerprints.

        Two deterministic runs of the same scenario must agree on the clock
        and on exactly how many callbacks fired; see
        :mod:`repro.sim.fingerprint`.
        """
        return {"now": self._now, "events_processed": self._events_processed}

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.call_at(self._now + delay, fn, *args, **kwargs)

    def call_at(self, time: float, fn: Callable[..., None], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before current time t={self._now:.6f}"
            )
        event = Event(time, next(self._seq), fn, args, kwargs or None, self)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self._COMPACT_MIN_TOMBSTONES
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from the heap in one O(n) rebuild.

        Mutates the list in place (slice assignment) rather than rebinding
        ``self._heap``: :meth:`run` holds a local alias to the heap while
        looping, and an in-callback cancellation may trigger compaction
        mid-run.  Rebinding would leave the loop draining a stale list while
        new events land in the replacement and never fire.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # -- the loop ------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Stops when the heap is empty, when the next event lies beyond
        ``until``, or after ``max_events`` callbacks.  Returns the clock value
        at exit.  When stopping at a horizon the clock is advanced to
        ``until`` so that repeated ``run`` calls compose.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                pop(heap)
                self._now = time
                event.fired = True
                if event.kwargs is None:
                    event.fn(*event.args)
                else:
                    event.fn(*event.args, **event.kwargs)
                self._events_processed += 1
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            while heap and heap[0][2].cancelled:
                pop(heap)
                self._cancelled_pending -= 1
            if not heap or heap[0][0] > until:
                self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 50_000_000) -> float:
        """Run until no events remain.  ``max_events`` guards runaway loops."""
        self.run(max_events=max_events)
        if self.live_events:
            raise SimulationError(f"event budget of {max_events} exhausted")
        return self._now
