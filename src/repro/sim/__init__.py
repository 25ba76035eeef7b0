"""Discrete-event simulation engine.

The AITF reproduction runs on a small, deterministic discrete-event
simulator.  The engine keeps a priority queue of timestamped entries and
advances a virtual clock; every other subsystem (links, routers, protocol
state machines, traffic generators) schedules callbacks through it.

Public API
----------
:class:`Simulator`
    The event loop: schedule bare callbacks, run until a time or until idle.
:class:`Timer`
    A restartable one-shot timer: the only callback that can be cancelled.
:class:`TrainProcess`
    The one tick process: traffic sources and every recurring job.
:class:`SeededRandom`
    Deterministic random source shared by a simulation run.
"""

from repro.sim.engine import Simulator
from repro.sim.process import Timer, TrainProcess
from repro.sim.randomness import SeededRandom

__all__ = [
    "Simulator",
    "Timer",
    "TrainProcess",
    "SeededRandom",
]
