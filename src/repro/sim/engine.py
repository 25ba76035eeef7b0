"""Core discrete-event loop.

The simulator is a binary heap of :class:`Event` objects and a virtual
clock.  Determinism matters more than raw speed because the benchmarks
compare protocol variants, so ties are broken by insertion order (the
``seq`` counter) rather than by object identity — but the fast path is
still engineered hard: heap entries are plain tuples compared in C,
:meth:`Simulator.schedule_fire` / :meth:`Simulator.fire_at` push
fire-and-forget entries with no :class:`Event` object and no keyword
plumbing for the per-packet hot path, and the heap compacts itself once
cancelled events outnumber live ones so long runs do not leak memory.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback.

    Events are created through :meth:`Simulator.schedule` / :meth:`Simulator.call_at`
    and can be cancelled before they fire.  A cancelled event stays in the
    heap but is skipped by the event loop; the simulator compacts the heap
    when cancelled events pile up.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "name",
                 "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        name: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.name = name
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancelled()

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def fire(self) -> None:
        """Invoke the callback (used by the event loop)."""
        if self.kwargs:
            self.callback(*self.args, **self.kwargs)
        else:
            self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or getattr(self.callback, "__name__", "callback")
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {label}, {state})"


#: Compaction only kicks in past this heap size; tiny heaps are cheap to scan.
_COMPACT_MIN_HEAP = 64

_INF = float("inf")


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.

    Notes
    -----
    Time is a ``float`` number of seconds.  All latencies in the AITF
    reproduction (one-way delays, grace periods, filter timeouts) are
    expressed in the same unit, which keeps the Section IV formulas
    directly comparable with simulation output.
    """

    def __init__(self, start_time: float = 0.0,
                 compact_min_heap: Optional[int] = None) -> None:
        self._now = float(start_time)
        #: Heap size below which compaction never runs; overridable per
        #: instance so cancel-heavy tests can force compactions on small heaps.
        self._compact_min = (compact_min_heap if compact_min_heap is not None
                             else _COMPACT_MIN_HEAP)
        # Heap entries are (time, seq, event) tuples: tuple comparison runs
        # in C and, with seq unique, never falls through to comparing events.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._stopped = False
        #: The running loop's horizon: ``run(until)``, lowered to -inf by
        #: :meth:`stop` so the next entry ends the loop.
        self._until = _INF
        self._cancelled_in_heap = 0
        self._compactions = 0
        #: The virtual clock as a callable, one per simulator: filter
        #: tables, shadow caches and contract books all read time through
        #: it instead of each holding a closure of its own.  A partial of
        #: the builtin ``getattr`` runs in C, so a reading opens no Python
        #: frame (the filter table takes one per packet while it holds a
        #: filter).
        self.clock: Callable[[], float] = partial(getattr, self, "_now")

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def heap_compactions(self) -> int:
        """Number of times the heap was rebuilt to shed cancelled events."""
        return self._compactions

    def stats(self) -> Dict[str, Any]:
        """Engine counters as one JSON-ready dict.

        This is the engine's contribution to ``ExperimentResult.
        observability`` (and the ``repro profile`` header); the values are
        deterministic for a seeded run, so they are safe inside documents
        that must be byte-identical across reruns and worker counts.
        """
        return {
            "now": self._now,
            "events_processed": self._events_processed,
            "pending_events": len(self._heap),
            "heap_compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        name: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may cancel.
        """
        return self.call_at(self._now + delay, callback, *args, name=name, **kwargs)

    def call_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        name: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` to fire at absolute time ``when``."""
        if when < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f}, clock is already at t={self._now:.6f}"
            )
        if when < self._now:
            when = self._now
        seq = next(self._seq)
        event = Event(when, seq, callback, args, kwargs or None, name, self)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_fire(self, delay: float, callback: Callable[..., None],
                      *args: Any) -> None:
        """Fire-and-forget scheduling: no :class:`Event` object at all.

        The heap entry is a bare ``(time, seq, callback, args)`` tuple, so
        there is nothing to cancel and nothing to allocate beyond the tuple
        itself.  Links use this for serializer and delivery events — the two
        highest-volume event kinds in the simulator, and ones no caller ever
        cancels; an idle pipe pushes this same entry itself
        (``net/link.py::_Pipe.send``), so the entry's shape is known there
        too.  Callers guarantee ``delay >= 0``.
        """
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._seq), callback, args))

    def fire_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Absolute-time :meth:`schedule_fire`.  Callers guarantee ``when >= now``.

        The tick process pushes this entry itself for every wake-up after
        its first (``sim/process.py::TrainProcess._wakeup``), the way an
        idle pipe pushes a delivery's; both take their sequence number
        from ``_seq`` at the same point this call would, so the heap's
        order is the one these calls would have given it.
        """
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts the heap when it is
        majority-dead so cancel-heavy runs stop leaking memory."""
        self._cancelled_in_heap += 1
        heap = self._heap
        if (len(heap) >= self._compact_min
                and self._cancelled_in_heap * 2 >= len(heap)):
            # Rebuild in place so the run loop's local reference stays valid.
            # Fire-and-forget entries carry a bare callable (no .cancelled).
            heap[:] = [entry for entry in heap
                       if not getattr(entry[2], "cancelled", False)]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0
            self._compactions += 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            target = entry[2]
            if target.__class__ is Event:
                if target.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                self._now = entry[0]
                self._events_processed += 1
                target.fire()
            else:
                self._now = entry[0]
                self._events_processed += 1
                target(*entry[3])
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled at
            exactly ``until`` still fire.  When omitted, run until the heap
            drains.
        max_events:
            Safety valve for runaway simulations; stop after this many
            events (0 fires none; a negative value is refused).

        Returns
        -------
        float
            The clock value when the loop stopped.

        The work per event is the pop, the clock store and the call: the
        horizon is one comparison against ``_until`` (infinite when
        ``until`` is omitted, and what :meth:`stop` lowers), ``max_events``
        one comparison against a count that is never reached when it is
        omitted, and :attr:`events_processed` advances once, when the loop
        ends (however it ends).  An entry popped past the horizon goes back
        on the heap.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        self._running = True
        self._stopped = False
        self._until = _INF if until is None else until
        # ``fired`` starts at 0 and only grows, so -1 is never reached.
        limit = -1 if max_events is None else max_events
        fired = 0
        heappop = heapq.heappop
        heap = self._heap  # compaction rebuilds in place, so this stays valid
        try:
            while heap and fired != limit:
                entry = heappop(heap)
                target = entry[2]
                if target.__class__ is Event:
                    # A stopped run leaves even a cancelled entry in place.
                    if target.cancelled and not self._stopped:
                        self._cancelled_in_heap -= 1
                        continue
                    if entry[0] > self._until:
                        heapq.heappush(heap, entry)
                        break
                    self._now = entry[0]
                    fired += 1
                    if target.kwargs:
                        target.callback(*target.args, **target.kwargs)
                    else:
                        target.callback(*target.args)
                else:
                    if entry[0] > self._until:
                        heapq.heappush(heap, entry)
                        break
                    self._now = entry[0]
                    fired += 1
                    target(*entry[3])
        finally:
            self._running = False
            self._events_processed += fired
        if (until is not None and self._now < until and not self._stopped
                and (not heap or heap[0][0] > until)):
            # Nothing is left to fire up to the horizon: advance the clock to
            # it.  A run cut short by ``max_events`` keeps its clock, so the
            # next run fires the remaining events at their own times.
            self._now = until
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True
        self._until = -_INF

    def drain(self) -> int:
        """Drop every pending entry, cancelling each :class:`Event`.  Returns
        how many live entries were dropped: the events not yet cancelled
        and every fire-and-forget entry (a delivery, a tick)."""
        dropped = 0
        for entry in self._heap:
            target = entry[2]
            if target.__class__ is not Event:
                dropped += 1
            elif not target.cancelled:
                target.cancelled = True
                dropped += 1
        self._heap.clear()
        self._cancelled_in_heap = 0
        return dropped
