"""Emptied: the scenario classes that lived here are gone.

Every experiment is an :class:`repro.experiments.ExperimentSpec` run by
:class:`repro.experiments.ExperimentRunner`; the paper's canonical ones come
from the ``default_*_spec`` builders in :mod:`repro.experiments.spec` and are
committed as JSON under ``examples/specs/`` (``repro run --spec FILE``).

The package name stays only because ``bench/layers.py`` maps every package
under ``src/repro/``; it goes when that map drops the ``scenarios`` entry.
"""
