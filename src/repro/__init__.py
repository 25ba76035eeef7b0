"""repro — a reproduction of AITF (Active Internet Traffic Filtering).

Argyraki & Cheriton, "Active Internet Traffic Filtering: Real-Time Response
to Denial-of-Service Attacks" (USENIX 2005; arXiv cs/0309054).

The package is organised bottom-up:

* :mod:`repro.sim` — deterministic discrete-event simulation engine.
* :mod:`repro.net` — addresses, flow labels, packets, links and queues.
* :mod:`repro.router` — border-router data plane: bounded wire-speed filter
  tables, the DRAM shadow cache, token-bucket policers, routing, ingress
  filtering, and the host / border-router node classes.
* :mod:`repro.traceback` — route-record shim and probabilistic edge-marking
  traceback.
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

from repro.core import (
    AITFConfig,
    AITFDeployment,
    EventType,
    FilteringRequest,
    GatewayAgent,
    HostAgent,
    NodeDirectory,
    PAPER_EXAMPLE_CONFIG,
    ProtocolEventLog,
    RequestRole,
    deploy_aitf,
)
from repro.experiments import (
    DefenseSpec,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    SweepRunner,
    TopologySpec,
    WorkloadSpec,
    default_flood_spec,
    expand_grid,
)
from repro.net import FlowLabel, IPAddress, Packet, Prefix
from repro.sim import Simulator
from repro.topology import (
    Topology,
    build_dumbbell,
    build_figure1,
    build_powerlaw_internet,
    build_provider_tree,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AITFConfig",
    "PAPER_EXAMPLE_CONFIG",
    "AITFDeployment",
    "deploy_aitf",
    "EventType",
    "FilteringRequest",
    "GatewayAgent",
    "HostAgent",
    "NodeDirectory",
    "ProtocolEventLog",
    "RequestRole",
    "FlowLabel",
    "IPAddress",
    "Prefix",
    "Packet",
    "Simulator",
    "Topology",
    "build_figure1",
    "build_dumbbell",
    "build_provider_tree",
    "build_powerlaw_internet",
    "ExperimentSpec",
    "TopologySpec",
    "DefenseSpec",
    "WorkloadSpec",
    "ExperimentResult",
    "ExperimentRunner",
    "SweepRunner",
    "default_flood_spec",
    "expand_grid",
]
