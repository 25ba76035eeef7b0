"""The package entry points resolve their public names on first access.

``repro`` and ``repro.experiments`` list their public names in ``__all__``
and import each name's module when the name is first read (PEP 562), so
``import repro`` loads nothing else.  Every listed name must resolve to
the object its module defines and appear in ``dir()``; any other name is
an ``AttributeError``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.experiments

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@pytest.mark.parametrize("package", [repro, repro.experiments],
                         ids=lambda package: package.__name__)
def test_every_listed_name_resolves_and_is_in_dir(package):
    listed = dir(package)
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        assert name in listed
        assert getattr(package, name) is not None


@pytest.mark.parametrize("package", [repro, repro.experiments],
                         ids=lambda package: package.__name__)
def test_an_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="ExperimentRunnr"):
        package.ExperimentRunnr


def test_a_name_is_the_object_its_module_defines():
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.spec import default_flood_spec
    from repro.experiments.sweep import SweepRunner
    from repro.net.flowlabel import FlowLabel

    assert repro.ExperimentRunner is ExperimentRunner
    assert repro.experiments.ExperimentRunner is ExperimentRunner
    assert repro.default_flood_spec is default_flood_spec
    assert repro.SweepRunner is SweepRunner
    assert repro.FlowLabel is FlowLabel


def test_a_fresh_process_sees_every_registered_name():
    """A registry read through the package is the filled one, even when
    nothing else has been imported: each resolves from the module that
    registers its entries."""
    script = (
        "import json\n"
        "from repro.experiments import COLLECTORS, DEFENSES, TOPOLOGIES,"
        " WORKLOADS\n"
        "print(json.dumps([r.names() for r in"
        " (TOPOLOGIES, DEFENSES, WORKLOADS, COLLECTORS)]))")
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    topologies, defenses, workloads, collectors = json.loads(completed.stdout)
    assert topologies == ["dumbbell", "failover", "figure1", "hierarchy",
                          "powerlaw", "tree"]
    assert defenses == ["aitf", "ingress-dpf", "manual", "none", "pushback"]
    assert "zombies" in workloads and "onoff" in workloads
    assert "paper-formulas" in collectors
