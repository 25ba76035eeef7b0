"""repro — a reproduction of AITF (Active Internet Traffic Filtering).

Argyraki & Cheriton, "Active Internet Traffic Filtering: Real-Time Response
to Denial-of-Service Attacks" (USENIX 2005; arXiv cs/0309054).

The package is organised bottom-up:

* :mod:`repro.sim` — deterministic discrete-event simulation engine.
* :mod:`repro.net` — addresses, flow labels, packets, links and queues.
* :mod:`repro.router` — border-router data plane: bounded wire-speed filter
  tables, the DRAM shadow cache, token-bucket policers, routing, ingress
  filtering, and the host / border-router node classes.
* :mod:`repro.contracts` — filtering contracts (R1/R2).
* :mod:`repro.core` — the AITF protocol itself (the paper's contribution).
* :mod:`repro.attacks` — floods, on-off attacks, spoofing, zombie armies,
  legitimate traffic, and malicious uses of AITF.
* :mod:`repro.baselines` — Pushback, manual operator filtering, ingress/DPF.
* :mod:`repro.topology` — Figure-1, provider-tree, dumbbell and power-law
  topology builders.
* :mod:`repro.analysis` — Section IV formulas, meters, and report tables.
* :mod:`repro.experiments` — the unified experiment API: declarative specs,
  pluggable defense backends (aitf / pushback / ingress-dpf / manual /
  none), and the parallel sweep runner.  Every experiment is an
  :class:`ExperimentSpec`; the paper's canonical ones come from the
  ``default_*_spec`` builders and are committed under ``examples/specs/``.

Quickstart::

    from repro import ExperimentRunner, default_flood_spec

    result = ExperimentRunner().run(default_flood_spec(defense="aitf"))
    print(result.effective_bandwidth_ratio, result.legit_goodput_bps)
"""

import importlib
from typing import Any, Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(namespace: Dict[str, Any],
                  exports: Dict[str, Sequence[str]]
                  ) -> Tuple[List[str], Callable[[str], Any],
                             Callable[[], List[str]]]:
    """``__all__`` and the PEP 562 ``__getattr__`` / ``__dir__`` of a
    package whose public names (``exports``: defining module -> names) are
    imported on first access, so importing the package loads none of them:
    a process pays only for the modules its command runs."""
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *where})

    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.core": (
        "AITFConfig", "PAPER_EXAMPLE_CONFIG", "AITFDeployment", "deploy_aitf",
        "EventType", "FilteringRequest", "GatewayAgent", "HostAgent",
        "NodeDirectory", "ProtocolEventLog", "RequestRole"),
    "repro.net": ("FlowLabel", "IPAddress", "Prefix", "Packet"),
    "repro.sim": ("Simulator",),
    "repro.topology.base": ("Topology",),
    "repro.topology.figure1": ("build_figure1",),
    "repro.topology.tree": ("build_dumbbell", "build_provider_tree"),
    "repro.topology.powerlaw": ("build_powerlaw_internet",),
    "repro.experiments": (
        "ExperimentSpec", "TopologySpec", "DefenseSpec", "WorkloadSpec",
        "ExperimentResult", "ExperimentRunner", "SweepRunner",
        "default_flood_spec", "expand_grid"),
})
__all__.insert(0, "__version__")
