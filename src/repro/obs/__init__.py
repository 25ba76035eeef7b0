"""Observability: structured tracing, metrics, and the AITF flight recorder.

This package is the simulator's flight-data plane.  It is built only when a
spec opts in through :class:`repro.experiments.spec.ObserveSpec`; runs that
observe nothing construct none of it and their hot paths carry no hooks
(tracing attaches by swapping bound methods, the same idiom
``enable_train_mode`` and fault injection use, so the disabled cost is
exactly zero).

Pieces:

* :mod:`repro.obs.trace` — the :class:`TraceRecorder`: deterministic,
  seed-stamped JSONL records on named channels (``packet``, ``train``,
  ``aitf-control``, ``routing``, ``fault``), stored as compact rows and
  rendered when read.
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry`: counters, gauges
  and sampled time series that backends and collectors publish into,
  serialized uniformly into ``experiment_result/v1``.
* :mod:`repro.obs.observer` — :class:`ExperimentObserver`, the glue that
  installs the per-channel hooks on a wired experiment.
* :mod:`repro.obs.flight` — the flight recorder: reconstructs per-request
  AITF protocol timelines (request → filter install → escalation →
  disconnection) from the ``aitf-control`` channel.
* :mod:`repro.obs.progress` — the sweep progress plane: per-cell status
  lines and provenance summaries for ``repro sweep`` / ``repro paper``.
* :mod:`repro.obs.logsetup` — the shared CLI logging configuration behind
  the global ``--verbose`` / ``--quiet`` flags.
"""

from repro.obs.flight import FlightRecorder, RequestTimeline, diff_timelines
from repro.obs.logsetup import get_logger, setup_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import ExperimentObserver
from repro.obs.progress import (
    format_cell_line,
    log_cell_progress,
    provenance_summary,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceRecorder,
    load_trace,
    write_trace,
)

__all__ = [
    "TRACE_SCHEMA",
    "TraceRecorder",
    "load_trace",
    "write_trace",
    "MetricsRegistry",
    "ExperimentObserver",
    "FlightRecorder",
    "RequestTimeline",
    "diff_timelines",
    "provenance_summary",
    "format_cell_line",
    "log_cell_progress",
    "setup_logging",
    "get_logger",
]
