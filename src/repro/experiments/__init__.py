"""The unified experiment API.

Everything the paper's evaluation does — AITF vs. no defense, vs. Pushback,
vs. ingress/DPF, vs. a human operator, across sweeps of Td, Tr, T and
non-cooperation — is expressed as a declarative :class:`ExperimentSpec`
naming a topology, a defense backend and a set of workloads, all resolved
through registries.  One :class:`ExperimentRunner` executes any spec; a
:class:`SweepRunner` expands parameter grids into cells and runs them in
parallel with deterministic per-cell seeds.

Quickstart::

    from repro.experiments import ExperimentRunner, default_flood_spec

    spec = default_flood_spec(defense="pushback", duration=6.0)
    result = ExperimentRunner().run(spec)
    print(result.defense, result.effective_bandwidth_ratio)

Sweep::

    from repro.experiments import SweepRunner, default_flood_spec

    sweep = SweepRunner(workers=4).run_grid(
        default_flood_spec(duration=4.0),
        {"defense.backend": ["aitf", "pushback", "none"],
         "workloads.1.params.rate_pps": [1500, 3000]},
    )
    sweep.write("sweep.json")
"""

from repro.experiments.backends import DefenseBackend, build_backend
from repro.experiments.collectors import MetricCollector, build_collector
from repro.experiments.registry import (
    COLLECTORS,
    DEFENSES,
    TOPOLOGIES,
    WORKLOADS,
    Registry,
)
from repro.experiments.request import (
    SWEEP_REQUEST_SCHEMA,
    SweepRequest,
    load_sweep_request,
)
from repro.experiments.runner import (
    RESULT_SCHEMA,
    ExperimentExecution,
    ExperimentResult,
    ExperimentRunner,
)
from repro.experiments.spec import (
    OBSERVE_CHANNELS,
    SPEC_SCHEMA,
    CollectorSpec,
    DefenseSpec,
    EngineSpec,
    ExperimentSpec,
    ObserveSpec,
    TopologySpec,
    WorkloadSpec,
    apply_override,
    canonical_spec_json,
    default_attacker_resource_spec,
    default_flood_spec,
    default_onoff_spec,
    default_victim_resource_spec,
    spec_hash,
)
from repro.experiments.sweep import (
    PROVENANCE_SCHEMA,
    SWEEP_SCHEMA,
    SweepCell,
    SweepResult,
    SweepRunner,
    derive_cell_seed,
    execute_cell,
    expand_grid,
    merge_cell_documents,
    provenance_sidecar_path,
)
from repro.experiments.topologies import TopologyHandle, build_topology
from repro.experiments.workloads import WorkloadHandle, build_workload

__all__ = [
    "SPEC_SCHEMA",
    "RESULT_SCHEMA",
    "SWEEP_SCHEMA",
    "PROVENANCE_SCHEMA",
    "canonical_spec_json",
    "spec_hash",
    "execute_cell",
    "merge_cell_documents",
    "provenance_sidecar_path",
    "Registry",
    "TOPOLOGIES",
    "DEFENSES",
    "WORKLOADS",
    "COLLECTORS",
    "TopologySpec",
    "DefenseSpec",
    "WorkloadSpec",
    "CollectorSpec",
    "EngineSpec",
    "ObserveSpec",
    "OBSERVE_CHANNELS",
    "ExperimentSpec",
    "apply_override",
    "default_flood_spec",
    "default_onoff_spec",
    "default_victim_resource_spec",
    "default_attacker_resource_spec",
    "MetricCollector",
    "build_collector",
    "SWEEP_REQUEST_SCHEMA",
    "SweepRequest",
    "load_sweep_request",
    "TopologyHandle",
    "build_topology",
    "WorkloadHandle",
    "build_workload",
    "DefenseBackend",
    "build_backend",
    "ExperimentExecution",
    "ExperimentResult",
    "ExperimentRunner",
    "SweepCell",
    "SweepResult",
    "SweepRunner",
    "expand_grid",
    "derive_cell_seed",
]
