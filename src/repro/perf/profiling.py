"""cProfile helpers for hunting the next fast-path bottleneck.

The workflow (documented in PERFORMANCE.md): run any spec under
:func:`profile_spec` (``repro profile --spec ...`` from the shell), read
the top entries, fix the biggest one, re-measure with paired
``bench/run.py`` runs.  Keeping the wrapper here means every session
profiles the same way and the numbers stay comparable.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable, Optional, Tuple


def profile_callable(func: Callable[..., Any], *args: Any,
                     **kwargs: Any) -> Tuple[Any, pstats.Stats]:
    """Run ``func`` under cProfile; returns (func's result, stats)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = func(*args, **kwargs)
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler)


def format_hotspots(stats: pstats.Stats, top: int = 20,
                    sort: str = "tottime") -> str:
    """The top ``top`` profile rows as a printable table."""
    buffer = io.StringIO()
    stats.stream = buffer  # pstats prints to its stream attribute
    stats.sort_stats(sort).print_stats(top)
    return buffer.getvalue()


def profile_spec(spec: Any, duration: Optional[float] = None,
                 top: int = 20, sort: str = "tottime") -> str:
    """Profile one declarative experiment (either engine).

    Wiring happens outside the profile so the hotspot table shows the run,
    not topology construction.  Returns a one-line run summary (engine
    mode, events processed) followed by the hotspot table.
    """
    from repro.experiments import ExperimentRunner

    execution = ExperimentRunner().prepare(spec)
    _, stats = profile_callable(execution.run, until=duration)
    sim_stats = execution.sim.stats()
    horizon = duration if duration is not None else spec.duration
    head = (f"profile: {spec.name} [{spec.defense.backend}] "
            f"engine={spec.engine.mode} duration={horizon:g}s "
            f"events={sim_stats['events_processed']}")
    return head + "\n" + format_hotspots(stats, top=top, sort=sort)

