"""The host-speed probe every benchmark time is normalised by.

The same checkout ran the same spec in 1.17 s and in 2.12 s of wall-clock
between two sessions on this box while its event count and result digest
repeated exactly, so raw seconds say more about the host than about the
code.  The parent process runs this fixed kernel immediately before and
after every child and reports ``t * CAL_REF_S / mean(before, after)``:
seconds "at reference host speed".

The kernel lives in ``bench/`` and not in ``repro.perf`` so that no later
change to the program can move the stick it is measured with.  It mimics
what the simulator does per event — heap push/pop, a slotted attribute
bump, a dict store — runs with the cyclic GC off, and is timed in process
CPU seconds.  Run it in the parent only: inside a child that has just built
a large topology the same loop swung 0.09 -> 0.9 s with heap state.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, List, Tuple

#: The kernel runs as SLICES identical slices and reports the median slice
#: times SLICES: a burst of host noise shorter than half the kernel (seen
#: here as single 0.45 s readings between 0.29 s ones) then leaves the
#: reading alone instead of mis-scaling the multi-second op beside it.
SLICES = 9
SLICE_ITERATIONS = 60_000

#: CPU seconds the kernel took on the reference host (the 2-core box this
#: benchmark was first recorded on, in its quiet state).  Pinned: changing
#: it rescales every normalised time, so it changes only together with a
#: re-recorded baseline.
CAL_REF_S = 0.24


class _Probe:
    __slots__ = ("x",)

    def __init__(self) -> None:
        self.x = 0


def _slice(iterations: int) -> float:
    probe = _Probe()
    heap: List[Tuple[int, int]] = []
    store: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    start = time.process_time()
    for i in range(iterations):
        push(heap, (i & 1023, i))
        probe.x += 1
        if i & 1:
            pop(heap)
        store[i & 8191] = i
    return time.process_time() - start


def calibrate() -> float:
    """CPU seconds the fixed kernel takes right now on this host."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        slices = [_slice(SLICE_ITERATIONS) for _ in range(SLICES)]
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(slices) * SLICES


def normalise(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` rescaled to the reference host speed."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2.0)


if __name__ == "__main__":
    samples = [calibrate() for _ in range(7)]
    print(" ".join(f"{s:.4f}" for s in samples), "s; CAL_REF_S =", CAL_REF_S)
