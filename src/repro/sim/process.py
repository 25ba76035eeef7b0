"""Timer and periodic-process helpers built on top of the event loop.

Protocol state machines in :mod:`repro.core` need two recurring patterns:

* a *restartable one-shot timer* (filter expiry, grace periods, handshake
  timeouts), and
* a *periodic process* (traffic generators emitting packets at a rate,
  rate-counter resets).

Both are thin wrappers over :class:`repro.sim.Simulator` so that protocol
code never touches the event heap directly.

High-rate traffic generators use :class:`BatchedProcess` instead of
:class:`PeriodicProcess`: one wakeup pre-schedules a whole train of ticks
on the no-kwargs fast path, so the per-packet cost is a bare slotted event
instead of the full periodic-process bookkeeping.  Tick times are produced
by the same successive-addition recurrence (``t_next = t_prev + interval``)
as the one-event-per-tick chain, so switching a generator between the two
classes does not move a single emission time.

Train-mode experiments go one step further with :class:`TrainProcess`:
one wakeup per *train* of up to ``max_train`` ticks, whose callback emits
a single aggregated object for all of them (see :mod:`repro.net.train`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from typing import Any, Callable, Optional

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

    def set_interval(self, interval: float) -> None:
        """Change the firing period; takes effect at the next tick."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._interval = float(interval)

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


class BatchedProcess:
    """A periodic process that pre-schedules its ticks in trains.

    Behaviourally identical to :class:`PeriodicProcess` — same constructor
    shape, same tick times, same stop semantics — but instead of one
    self-rescheduling event per tick, each wakeup emits the tick due *now*
    and pre-schedules the next ``batch_size - 1`` ticks (plus the following
    wakeup) as fire-and-forget heap entries guarded by a generation
    counter: no per-tick event objects exist at all.  Stopping bumps the
    generation, so a filter installed mid-train still silences the
    generator at the very next tick, exactly as with the chained version
    (the orphaned entries fire as no-ops and evaporate).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        *,
        start_delay: float = 0.0,
        max_ticks: Optional[int] = None,
        batch_size: int = 64,
        name: str = "",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._max_ticks = max_ticks
        self._batch_size = batch_size
        self._name = name or "batched"
        self._ticks = 0
        self._running = False
        self._start_delay = float(start_delay)
        #: Incremented on every start/stop; pre-scheduled train entries
        #: carry the generation they belong to and no-op when it is stale.
        self._gen = 0

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
        self._gen += 1
        self._sim.schedule_fire(self._start_delay, self._wakeup, self._gen)

    def stop(self) -> None:
        """Stop firing.  Every pre-scheduled tick in the train goes stale."""
        self._running = False
        self._gen += 1

    def _wakeup(self, gen: int) -> None:
        """Fire the tick due now, then pre-schedule the rest of the train."""
        if gen != self._gen or not self._running:
            return
        if not self._fire():
            return
        # Train length: batch_size ticks total, counting the one just fired,
        # capped by max_ticks.  Times accumulate one interval at a time so
        # they are bit-identical to the self-rescheduling chain.
        train = self._batch_size - 1
        if self._max_ticks is not None:
            remaining = self._max_ticks - self._ticks
            if train > remaining:
                train = remaining
        sim = self._sim
        fire_at = sim.fire_at
        interval = self._interval
        when = sim.now
        tick = self._tick
        for _ in range(train):
            when += interval
            fire_at(when, tick, gen)
        fire_at(when + interval, self._wakeup, gen)

    def _tick(self, gen: int) -> None:
        """A pre-scheduled mid-train tick; no-ops once its train is stale.

        Mirrors :meth:`_fire` inline — this fires once per generated packet,
        so it does not pay for the extra call.
        """
        if gen != self._gen or not self._running:
            return
        self._ticks += 1
        if self._callback() is False:
            self.stop()
        elif self._max_ticks is not None and self._ticks >= self._max_ticks:
            self.stop()

    def _fire(self) -> bool:
        """One tick: run the callback and apply the stop conditions."""
        if not self._running:
            return False
        self._ticks += 1
        keep_going = self._callback()
        if keep_going is False:
            self.stop()
            return False
        if self._max_ticks is not None and self._ticks >= self._max_ticks:
            self.stop()
            return False
        return self._running


class TrainProcess:
    """A periodic process that fires *once per train*, not once per tick.

    Where :class:`BatchedProcess` pre-schedules one heap entry per tick,
    this process collapses a whole train of up to ``max_train`` ticks into
    a single wakeup: the callback receives the number of ticks the train
    covers and is expected to emit an aggregated object (a
    :class:`~repro.net.train.PacketTrain`) for all of them at once.  Tick
    *times* still follow the exact ``t += interval`` float recurrence of
    the per-tick processes, so the set of nominal emission times — and
    therefore the emitted packet count over any horizon — is identical to
    what :class:`BatchedProcess` would have produced.

    Two bounds clip a train before ``max_train``:

    * ``horizon`` — ticks at times ``t <= horizon`` are emitted (matching
      the event loop's "events at exactly ``until`` still fire" rule); the
      process stops once the next tick would pass it.
    * ``limit_until`` — an *exclusive* bound settable between phases (ticks
      strictly before it fire), used by duty-cycled generators so a train
      never crosses an on-phase boundary.
    * ``max_span`` — a bound on the *time* a single train may cover (ticks
      later than ``max_span`` after the train's first tick start the next
      train instead).  Fault-injection runs set this so no train straddles
      a long interval a fault event could land inside; unlike ``horizon``
      and ``limit_until`` it never stops the process, it only splits.

    Stopping goes through the same generation counter as
    :class:`BatchedProcess`; a pending wakeup from a stale generation
    evaporates.  The one semantic difference from per-tick emission is that
    a train already handed to the network cannot be silenced retroactively
    — a stop takes effect at the next train boundary, which is why train
    mode is opt-in and bounded by ``max_train``.
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
        self._max_span = max_span
        self._max_ticks = max_ticks
        self._horizon = horizon
        self._name = name or "train"
        self._ticks = 0
        self._running = False
        self._start_delay = float(start_delay)
        self._gen = 0
        #: Exclusive time bound for the current phase (None = unbounded).
        self.limit_until: Optional[float] = None

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
        """Seconds between consecutive ticks inside a train."""
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

    def _wakeup(self, gen: int) -> None:
        if gen != self._gen or not self._running:
            return
        sim = self._sim
        horizon = self._horizon
        cap = self._max_train
        if self._max_ticks is not None:
            cap = min(cap, self._max_ticks - self._ticks)
        # The tick times this train may cover, and the one after them: the
        # exact per-tick float recurrence (the same left-to-right additions
        # as ``when += interval``), run in C.  They never decrease, so each
        # bound is a bisection — no Python-level work per tick.
        times = list(accumulate(repeat(self._interval, cap), initial=sim._now))
        count = len(times) - 1
        if horizon is not None:
            count = bisect_right(times, horizon, 0, count)
        if self.limit_until is not None:
            count = bisect_left(times, self.limit_until, 0, count)
        if self._max_span is not None:
            count = bisect_right(times, sim._now + self._max_span, 0, count)
        if count == 0:
            self.stop()
            return
        when = times[count]
        self._ticks += count
        if self._callback(count) is False:
            self.stop()
            return
        if self._max_ticks is not None and self._ticks >= self._max_ticks:
            self.stop()
            return
        if horizon is not None and when > horizon:
            self.stop()
            return
        if self._running:
            sim.fire_at(when, self._wakeup, gen)
