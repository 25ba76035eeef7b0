"""Timer and periodic-process helpers built on top of the event loop.

Protocol state machines in :mod:`repro.core` need two recurring patterns:

* a *restartable one-shot timer* (filter expiry, grace periods, handshake
  timeouts), and
* a *periodic process* (rate-counter resets, metric sampling, protocol
  switching).

Both are thin wrappers over :class:`repro.sim.Simulator` so that protocol
code never touches the event heap directly.

Traffic generators tick through :class:`TrainProcess` instead, on either
engine: one wakeup takes the next ``count`` ticks of a precomputed tick
timeline and hands the callback that count — always 1 at ``max_train = 1``
(the per-packet engine), up to ``max_train`` when the engine aggregates
ticks into one :class:`~repro.net.train.PacketTrain` (see
:mod:`repro.net.train`).  Tick times follow the same successive-addition
recurrence (``t_next = t_prev + interval``) as :class:`PeriodicProcess`'s
one-event-per-tick chain, so the engines emit at bit-identical times.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappush
from itertools import accumulate, repeat
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.sim.engine import Event, Simulator


class Timer:
    """A restartable one-shot timer.

    The timer is created idle; :meth:`start` arms it, :meth:`cancel` disarms
    it, and :meth:`restart` re-arms it (cancelling any pending expiry).  When
    the delay elapses the callback fires exactly once.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., None],
                 *args: Any, name: str = "", **kwargs: Any) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._kwargs = kwargs
        self._name = name
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._event is not None and self._event.active

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when idle."""
        if self.armed:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """Arm the timer to fire ``delay`` seconds from now.

        Starting an already-armed timer restarts it.
        """
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, name=self._name or "timer")

    def restart(self, delay: float) -> None:
        """Alias for :meth:`start`; reads better at call sites that always re-arm."""
        self.start(delay)

    def cancel(self) -> None:
        """Disarm the timer if it is pending."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback(*self._args, **self._kwargs)


class PeriodicProcess:
    """Fires a callback every ``interval`` seconds until stopped.

    The callback may return ``False`` to stop the process from within.
    A ``max_ticks`` bound makes the process self-terminating, which traffic
    generators use to emit a fixed number of packets.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        *,
        start_delay: float = 0.0,
        max_ticks: Optional[int] = None,
        name: str = "",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._max_ticks = max_ticks
        self._name = name or "periodic"
        self._ticks = 0
        self._running = False
        self._event: Optional[Event] = None
        self._start_delay = float(start_delay)

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    @property
    def running(self) -> bool:
        """True while the process is scheduled to keep firing."""
        return self._running

    @property
    def interval(self) -> float:
        """Seconds between consecutive firings."""
        return self._interval

    def start(self) -> None:
        """Begin firing.  The first tick happens after ``start_delay`` seconds."""
        if self._running:
            return
        self._running = True
        self._event = self._sim.schedule(self._start_delay, self._tick, name=self._name)

    def stop(self) -> None:
        """Stop firing.  A pending tick is cancelled."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        # This event has already fired; forget it before the callback runs so
        # a stop() from inside the callback does not "cancel" a popped event
        # (which would skew the simulator's cancelled-in-heap accounting).
        self._event = None
        self._ticks += 1
        keep_going = self._callback()
        if keep_going is False:
            self.stop()
            return
        if self._max_ticks is not None and self._ticks >= self._max_ticks:
            self.stop()
            return
        if self._running:
            self._event = self._sim.schedule(self._interval, self._tick, name=self._name)


#: Ticks a :class:`TrainProcess` computes per timeline extension, at least.
_TIMELINE_CHUNK = 64

#: An empty timeline: the next wakeup computes a chunk from its own time.
_NO_TIMES: Tuple[float, ...] = ()


class TrainProcess:
    """A periodic process that fires *once per train* of up to ``max_train``
    ticks: the one tick process of every constant-spacing traffic source.

    The callback receives the number of ticks the wakeup covers and emits
    them at once — as a lone packet when ``max_train`` is 1, as one
    aggregated :class:`~repro.net.train.PacketTrain` otherwise.  Tick times
    come from a timeline of the exact ``t += interval`` float recurrence,
    computed in C (``itertools.accumulate``) at least ``_TIMELINE_CHUNK``
    ticks at a time and, for trains shorter than that, kept across wakeups:
    at ``max_train = 1`` a tick costs one heap entry, which the wakeup
    pushes itself, and no Python-level arithmetic.  The times are the
    ones :class:`PeriodicProcess` produces, and the emitted count over any
    horizon does not depend on ``max_train``.

    Four bounds clip a train before ``max_train``, each a bisection of the
    timeline (the times never decrease).  ``horizon``, ``limit_until`` and
    ``max_ticks`` are bisected once per chunk (and ``limit_until`` again
    when it is set) into one index no train may reach; ``max_span``
    depends on the train's first tick and is bisected per train:

    * ``horizon`` — ticks at times ``t <= horizon`` are emitted (matching
      the event loop's "events at exactly ``until`` still fire" rule); the
      process stops once the next tick would pass it.
    * ``limit_until`` — an *exclusive* bound settable between phases (ticks
      strictly before it fire), used by generators whose emission ends at a
      scheduled stop, so a train never crosses it.
    * ``max_span`` — a bound on the *time* a single train may cover (ticks
      later than ``max_span`` after the train's first tick start the next
      train instead).  Fault-injection runs set this so no train straddles
      a long interval a fault event could land inside; unlike ``horizon``
      and ``limit_until`` it never stops the process, it only splits.
    * ``max_ticks`` — the total number of ticks the process emits.

    Stopping bumps a generation counter; a pending wakeup from a stale
    generation evaporates, so a stop silences the next wakeup.  At
    ``max_train = 1`` that is the very next tick.  A train already handed to
    the network cannot be silenced retroactively — a stop takes effect at
    the next train boundary, which is why aggregation is opt-in and bounded
    by ``max_train``.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[int], Any],
        *,
        start_delay: float = 0.0,
        max_train: int = 256,
        max_span: Optional[float] = None,
        max_ticks: Optional[int] = None,
        horizon: Optional[float] = None,
        name: str = "",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if max_train <= 0:
            raise ValueError(f"max_train must be positive, got {max_train}")
        if max_span is not None and max_span <= 0:
            raise ValueError(f"max_span must be positive, got {max_span}")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._max_train = max_train
        # A one-tick train cannot be split, so the span bound is not read
        # at all at ``max_train = 1``.
        self._max_span = max_span if max_train > 1 else None
        self._max_ticks = max_ticks
        self._horizon = horizon
        self._name = name or "train"
        self._ticks = 0
        self._running = False
        self._start_delay = float(start_delay)
        self._gen = 0
        #: Ticks per timeline extension: a whole train, and at least
        #: ``_TIMELINE_CHUNK``.
        self._chunk = max(max_train, _TIMELINE_CHUNK)
        #: Computed tick times; ``_times[_pos]`` is the next tick's time and
        #: ``_stop_at`` the index of the first one the process must not
        #: emit.
        self._times: Sequence[float] = _NO_TIMES
        self._pos = 0
        self._stop_at = 0
        #: The first index no train may reach: ``_stop_at``, or the first
        #: tick at or past ``limit_until`` when that comes sooner.  Computed
        #: once per chunk (and when ``limit_until`` is set), not per tick.
        self._end_at = 0
        self._limit_until: Optional[float] = None

    @property
    def limit_until(self) -> Optional[float]:
        """Exclusive time bound for the current phase (None = unbounded)."""
        return self._limit_until

    @limit_until.setter
    def limit_until(self, when: Optional[float]) -> None:
        self._limit_until = when
        if self._times:
            self._bound_chunk(self._times)

    def _bound_chunk(self, times: Sequence[float]) -> None:
        """Set ``_end_at`` for the chunk ``times`` (``_stop_at`` is its)."""
        end_at = self._stop_at
        if self._limit_until is not None:
            limit_at = bisect_left(times, self._limit_until)
            if limit_at < end_at:
                end_at = limit_at
        self._end_at = end_at

    @property
    def ticks(self) -> int:
        """Number of ticks emitted so far (summed over trains)."""
        return self._ticks

    @property
    def running(self) -> bool:
        """True while the process is scheduled to keep firing."""
        return self._running

    @property
    def interval(self) -> float:
        """Seconds between consecutive ticks."""
        return self._interval

    def start(self) -> None:
        """Begin firing.  The first train starts after ``start_delay`` seconds."""
        if self._running:
            return
        self._running = True
        self._gen += 1
        self._sim.schedule_fire(self._start_delay, self._wakeup, self._gen)

    def stop(self) -> None:
        """Stop firing from the next train boundary on."""
        self._running = False
        self._gen += 1
        self._times = _NO_TIMES

    def _wakeup(self, gen: int) -> None:
        if gen != self._gen:  # stopped since this wakeup was scheduled
            return
        times = self._times
        pos = self._pos
        end = pos + self._max_train
        if end >= len(times):
            # The timeline ends inside this train: compute the next chunk
            # from this tick on (the clock reads ``times[pos]`` when there
            # is one), so every time is the same left-to-right additions as
            # ``when += interval``.  The entry after a train is the next
            # wakeup's time.  The chunk is kept for the next wakeups only
            # when a train can end inside it.
            times = list(accumulate(repeat(self._interval, self._chunk),
                                    initial=self._sim._now))
            self._times = times if self._chunk > self._max_train else _NO_TIMES
            pos, end = 0, self._max_train
            # The tick this process must not reach: the first one past the
            # horizon, or the one after ``max_ticks`` (ticks and positions
            # advance together, so the index holds for the whole chunk).
            stop_at = (len(times) if self._horizon is None
                       else bisect_right(times, self._horizon))
            if self._max_ticks is not None:
                stop_at = min(stop_at, self._max_ticks - self._ticks)
            self._stop_at = stop_at
            self._bound_chunk(times)
        if end > self._end_at:
            # Clipped by the horizon, ``max_ticks`` or ``limit_until``; an
            # index before ``pos`` leaves no tick to emit.
            end = self._end_at
        if self._max_span is not None:
            end = bisect_right(times, times[pos] + self._max_span, pos, end)
        count = end - pos
        if count <= 0:
            self.stop()
            return
        self._pos = end
        self._ticks += count
        if self._callback(count) is False or end == self._stop_at:
            self.stop()
            return
        if self._running:
            # Simulator.fire_at, inlined: the entry is exactly the one that
            # call would push.
            sim = self._sim
            heappush(sim._heap, (times[end], next(sim._seq), self._wakeup, (gen,)))
