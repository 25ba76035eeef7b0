"""The per-packet objects keep CPython's inline attribute storage.

From CPython 3.11 on, a plain object's attributes live inline, keyed by a
table its class shares, until something materialises the instance
``__dict__``: reading ``obj.__dict__`` or ``vars(obj)``, a
``functools.cached_property``, or more attributes than the shared table
holds.  After that every attribute read and write of the object is a dict
lookup, on every packet that touches it.  Taps, faults and train mode
rebind a pipe's entry points and a filter table's block checks; they must
do it with plain attribute writes.

The dict is found through ``gc.get_referents``: an object with inline
values reports its attribute values there, one with a dict reports the
dict.  ``vars()`` cannot be used, because it creates the dict it looks
for.
"""

import dataclasses
import gc
import sys
import types

import pytest

from repro.attacks.base import TrafficSource
from repro.core.gateway_agent import GatewayAgent
from repro.experiments import ExperimentRunner, ObserveSpec, default_flood_spec
from repro.net.link import _Pipe
from repro.router.filter_table import FilterTable
from repro.router.nodes import BorderRouter, Host
from repro.sim.process import TrainProcess
from repro.sim.randomness import SeededRandom

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps every instance's attributes in a dict")

CHECKED = (_Pipe, FilterTable, BorderRouter, Host, TrainProcess,
           TrafficSource, GatewayAgent, SeededRandom)

#: Not walked into: from a class or a function the whole process is
#: reachable.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.CodeType,
           types.BuiltinFunctionType)

_MISSING = object()


def holds_instance_dict(obj) -> bool:
    """Whether ``obj`` has a materialised instance dict (read off its
    referents: a dict whose every entry is one of ``obj``'s attributes)."""
    for referent in gc.get_referents(obj):
        if type(referent) is dict and referent and all(
                type(key) is str and getattr(obj, key, _MISSING) is value
                for key, value in referent.items()):
            return True
    return False


def reachable(root):
    """Every object reachable from ``root`` without passing through a
    class, module or function."""
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        yield obj
        for referent in gc.get_referents(obj):
            if id(referent) not in seen and not isinstance(referent, _OPAQUE):
                seen.add(id(referent))
                stack.append(referent)


def observed():
    return dataclasses.replace(
        default_flood_spec(duration=2.0),
        observe=ObserveSpec(channels=("packet", "aitf-control"),
                            metrics=True))


def faulted():
    link = ["G_gw2", "G_gw3"]
    return default_flood_spec(duration=2.0).with_overrides({"faults": [
        {"kind": "link_down", "time": 1.0, "link": link},
        {"kind": "link_up", "time": 1.5, "link": link}]})


def train_mode():
    return default_flood_spec(duration=2.0).with_overrides(
        {"engine.mode": "train"})


@pytest.mark.parametrize("make_spec", [observed, faulted, train_mode],
                         ids=lambda make_spec: make_spec.__name__)
def test_no_hot_path_object_holds_an_instance_dict(make_spec):
    execution = ExperimentRunner().prepare(make_spec())
    execution.run()
    found = {cls: [] for cls in CHECKED}
    for obj in reachable(execution):
        for cls in CHECKED:
            if isinstance(obj, cls):
                found[cls].append(obj)
    assert all(found.values()), {cls.__name__: len(objs)
                                 for cls, objs in found.items()}
    assert execution.backend.deployment.gateway_agents.built()
    with_dict = {cls.__name__: sum(map(holds_instance_dict, objs))
                 for cls, objs in found.items()}
    assert with_dict == {cls.__name__: 0 for cls in CHECKED}


def test_the_check_sees_a_materialised_dict():
    execution = ExperimentRunner().prepare(default_flood_spec(duration=0.5))
    execution.run()
    pipe = execution.handle.topology.links[0].pipe_toward(
        execution.handle.topology.links[0].b)
    assert not holds_instance_dict(pipe)
    pipe.__dict__
    assert holds_instance_dict(pipe)
