"""The two scheduling helpers built on top of the event loop.

* :class:`Timer` — a *restartable one-shot timer* (the Ttmp cooperation
  check, the attacker-gateway grace period, the handshake timeout, the
  on-off phase): the only scheduled callback that can be cancelled.
* :class:`TrainProcess` — the one *tick process*.  Every traffic source
  ticks on it, on either engine, and so does every recurring job (metric
  and occupancy sampling, the Pushback review, protocol switching) at the
  default ``max_train = 1``.  One wakeup takes the next ``count`` ticks of
  a precomputed tick timeline and hands the callback that count — always
  1 at ``max_train = 1``, up to ``max_train`` when the engine aggregates
  ticks into one :class:`~repro.net.train.PacketTrain` (see
  :mod:`repro.net.train`).  Tick times follow the successive-addition
  recurrence ``t_next = t_prev + interval`` whatever ``max_train`` is, so
  the engines emit at bit-identical times.

A one-shot that nothing cancels is no helper at all: it is a bare
:meth:`~repro.sim.Simulator.call_at` entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappush
from itertools import accumulate, repeat
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.sim.engine import _NO_ARG, Event, Simulator


class Timer:
    """A restartable one-shot timer: the one scheduled callback that can be
    cancelled.

    The timer is created idle; :meth:`start` arms it, :meth:`cancel` disarms
    it, and :meth:`restart` re-arms it (cancelling any pending expiry).  When
    the delay elapses the callback fires exactly once.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., None],
                 *args: Any) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._event is not None

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when idle."""
        return None if self._event is None else self._event.time

    def start(self, delay: float) -> None:
        """Arm the timer to fire ``delay`` seconds from now.

        Starting an already-armed timer restarts it.
        """
        self.cancel()
        event = Event(self._sim.now + delay, self._fire)
        self._sim.call_at(event.time, event)  # refuses a negative delay
        self._event = event

    def restart(self, delay: float) -> None:
        """Alias for :meth:`start`; reads better at call sites that always re-arm."""
        self.start(delay)

    def cancel(self) -> None:
        """Disarm the timer if it is pending."""
        if self._event is not None:
            self._event.cancelled = True
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback(*self._args)


#: Ticks a :class:`TrainProcess` computes per timeline extension, at least.
_TIMELINE_CHUNK = 64

#: An empty timeline: the next wakeup computes a chunk from its own time.
_NO_TIMES: Tuple[float, ...] = ()


class TrainProcess:
    """A periodic process that fires *once per train* of up to ``max_train``
    ticks: the one tick process of every constant-spacing traffic source
    and every recurring job.

    The callback receives the number of ticks the wakeup covers and handles
    them at once — a traffic source emits a lone packet when ``max_train``
    is 1 (the default, one call per tick), one aggregated
    :class:`~repro.net.train.PacketTrain` otherwise.  Tick times
    come from a timeline of the exact ``t += interval`` float recurrence,
    computed in C (``itertools.accumulate``) at least ``_TIMELINE_CHUNK``
    ticks at a time and, for trains shorter than that, kept across wakeups:
    at ``max_train = 1`` a tick costs one heap entry, ``(time, seq,
    wakeup, gen, _NO_ARG)``, which the wakeup pushes itself, and no
    Python-level arithmetic.  The emitted count over
    any horizon does not depend on ``max_train``.

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
        max_train: int = 1,
        max_span: Optional[float] = None,
        max_ticks: Optional[int] = None,
        horizon: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if start_delay < 0:
            raise ValueError(f"start_delay must be >= 0, got {start_delay}")
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
        #: The callback of this generation's heap entries, bound once by
        #: :meth:`start` rather than on every wakeup.
        self._wake: Optional[Callable[[int], None]] = None

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
        self._wake = self._wakeup
        self._sim.schedule_fire(self._start_delay, self._wake, self._gen)

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
            # call would push.  ``gen`` is this wakeup's generation, so a
            # callback that restarted the process leaves this entry stale.
            sim = self._sim
            heappush(sim._heap, (times[end], next(sim._seq), self._wake,
                                 gen, _NO_ARG))
