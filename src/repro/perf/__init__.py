"""Profiling helpers behind ``repro profile``.

:mod:`repro.perf.profiling` is a tiny cProfile wrapper for finding the next
hot spot (see PERFORMANCE.md for the workflow).  Measuring is not done here:
``bench/run.py`` is the one benchmark harness, and the clock-free gates live
under ``benchmarks/``.
"""

from repro.perf.profiling import format_hotspots, profile_callable

__all__ = [
    "format_hotspots",
    "profile_callable",
]
