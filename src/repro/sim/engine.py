"""Core discrete-event loop.

The simulator is a binary heap of timestamped entries and a virtual clock.
Determinism matters more than raw speed because the benchmarks compare
protocol variants, so ties are broken by insertion order (the ``seq``
counter) rather than by object identity — but the fast path is still
engineered hard: every heap entry is a plain ``(time, seq, callback, a,
b)`` tuple compared in C, pushed by :meth:`Simulator.call_at`,
:meth:`Simulator.schedule_fire` or :meth:`Simulator.fire_at`, with no
object and no keyword plumbing per event.  ``a`` and ``b`` are the
callback's arguments, ``_NO_ARG`` in an empty slot; a callback of three
or more arguments is folded into a :func:`functools.partial` when it is
pushed.  The one exception is the entry a
:class:`~repro.sim.process.Timer` pushes, whose third field is an
:class:`Event` so the timer can cancel it: only the protocol's timers
(the Ttmp cooperation check, the attacker-gateway grace period, the
handshake timeout, the on-off phase) ever need that.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Event:
    """The cancellable callback of a :class:`~repro.sim.process.Timer`
    entry.  A cancelled event stays in the heap; the event loop skips it."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False


_INF = float("inf")

#: The empty argument slot of a heap entry: ``(time, seq, callback, a,
#: _NO_ARG)`` calls ``callback(a)``, ``(time, seq, callback, _NO_ARG,
#: _NO_ARG)`` calls ``callback()``.
_NO_ARG: Any = object()


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

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap entries are (time, seq, callback, a, b) tuples: tuple
        # comparison runs in C and, with seq unique, never reaches the
        # callback.
        self._heap: List[Tuple[Any, ...]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
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
        """Number of entries still in the heap (cancelled timers included)."""
        return len(self._heap)

    @property
    def heap_compactions(self) -> int:
        """Always 0: the heap is never rebuilt.  Kept for the benchmark
        harness and the observed documents, which still report it."""
        return 0

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
            "heap_compactions": 0,
        }

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, callback: Callable[..., None],
                a: Any = _NO_ARG, b: Any = _NO_ARG, *more: Any) -> None:
        """Schedule ``callback(a, b, *more)`` at absolute time ``when``
        (each argument optional).

        The checked form of :meth:`fire_at`, for times that come from a
        spec or a caller rather than from the clock: a time in the past is
        refused (a rounding error's worth below the clock is clamped to
        it).  Only a :class:`~repro.sim.process.Timer`, which passes its
        :class:`Event` as ``callback``, can cancel the entry.
        """
        if when < self._now:
            if when < self._now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at t={when:.6f}, "
                    f"clock is already at t={self._now:.6f}")
            when = self._now
        if more:
            callback, a, b = partial(callback, a, b, *more), _NO_ARG, _NO_ARG
        heapq.heappush(self._heap, (when, next(self._seq), callback, a, b))

    def schedule_fire(self, delay: float, callback: Callable[..., None],
                      a: Any = _NO_ARG, b: Any = _NO_ARG, *more: Any) -> None:
        """Fire ``callback(a, b, *more)`` ``delay`` seconds from now.

        Links use this for serializer and delivery events — the two
        highest-volume event kinds in the simulator; an idle pipe pushes
        this same entry itself (``net/link.py::_Pipe.send``), so the entry's
        shape is known there too.  Callers guarantee ``delay >= 0``.
        """
        if more:
            callback, a, b = partial(callback, a, b, *more), _NO_ARG, _NO_ARG
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._seq), callback, a, b))

    def fire_at(self, when: float, callback: Callable[..., None],
                a: Any = _NO_ARG, b: Any = _NO_ARG, *more: Any) -> None:
        """Absolute-time :meth:`schedule_fire`.  Callers guarantee ``when >= now``.

        The tick process pushes this entry itself for every wake-up after
        its first (``sim/process.py::TrainProcess._wakeup``), the way an
        idle pipe pushes a delivery's; both take their sequence number
        from ``_seq`` at the same point this call would, so the heap's
        order is the one these calls would have given it.
        """
        if more:
            callback, a, b = partial(callback, a, b, *more), _NO_ARG, _NO_ARG
        heapq.heappush(self._heap, (when, next(self._seq), callback, a, b))

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Fire entries in time order until the heap drains or the next
        one lies past ``until`` (an entry at exactly ``until`` still
        fires).  Returns the clock, which ends at ``until`` when one is
        given.

        The work per entry is the pop, the skip of a cancelled timer, the
        horizon comparison, the clock store and the call, made with as
        many arguments as the entry holds; an entry popped past the
        horizon goes back on the heap, and :attr:`events_processed`
        advances once, when the loop ends (however it ends, a raising
        callback included).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        horizon = _INF if until is None else until
        fired = 0
        heappop = heapq.heappop
        heap = self._heap
        no_arg = _NO_ARG
        try:
            # CPython 3.11 specializes a code object's bytecode for the
            # types it sees only after 8 warm-up counts, and only a function
            # entry or a JUMP_BACKWARD counts.  ``run`` is entered once per
            # experiment and ``while heap:`` jumps back with
            # POP_JUMP_BACKWARD_IF_TRUE, which does not count, so that loop
            # ran every event on generic bytecode.  Keep the test inside the
            # body: each iteration then ends in a JUMP_BACKWARD.  For the
            # same reason the timer test is ``type(target) is Event``, which
            # specializes, not ``target.__class__``, which does not.
            while True:
                if not heap:
                    break
                entry = heappop(heap)
                when, _, target, a, b = entry
                if type(target) is Event:
                    if target.cancelled:
                        continue
                    target = target.callback
                if when > horizon:
                    heapq.heappush(heap, entry)
                    break
                self._now = when
                fired += 1
                # A call with a fixed number of arguments stays in this
                # frame's eval loop; ``target(*args)`` would re-enter it.
                if b is not no_arg:
                    target(a, b)
                elif a is not no_arg:
                    target(a)
                else:
                    target()
        finally:
            self._running = False
            self._events_processed += fired
        if until is not None and self._now < until:
            self._now = until
        return self._now
