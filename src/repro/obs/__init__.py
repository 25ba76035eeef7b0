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
  ``aitf-control``, ``routing``, ``fault``), stored as a time and the
  index of a body shared by every record that repeats it, and rendered
  when read.
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

Import each name from its module: the package imports nothing.
"""
