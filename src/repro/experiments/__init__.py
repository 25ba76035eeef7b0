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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.experiments.spec": (
        "SPEC_SCHEMA", "canonical_spec_json", "spec_hash", "TopologySpec",
        "DefenseSpec", "WorkloadSpec", "CollectorSpec", "EngineSpec",
        "ObserveSpec", "OBSERVE_CHANNELS", "ExperimentSpec", "apply_override",
        "default_flood_spec", "default_onoff_spec",
        "default_victim_resource_spec", "default_attacker_resource_spec"),
    "repro.experiments.runner": (
        "RESULT_SCHEMA", "ExperimentExecution", "ExperimentResult",
        "ExperimentRunner"),
    "repro.experiments.sweep": (
        "SWEEP_SCHEMA", "PROVENANCE_SCHEMA", "execute_cell",
        "merge_cell_documents", "provenance_sidecar_path", "SweepCell",
        "SweepResult", "SweepRunner", "expand_grid", "derive_cell_seed"),
    "repro.experiments.request": (
        "SWEEP_REQUEST_SCHEMA", "SweepRequest", "load_sweep_request"),
    "repro.experiments.registry": ("Registry",),
    # Each registry from the module that fills it.
    "repro.experiments.topologies": ("TOPOLOGIES", "TopologyHandle",
                                     "build_topology"),
    "repro.experiments.backends": ("DEFENSES", "DefenseBackend",
                                   "build_backend"),
    "repro.experiments.workloads": ("WORKLOADS", "WorkloadHandle",
                                    "build_workload"),
    "repro.experiments.collectors": ("COLLECTORS", "MetricCollector",
                                     "build_collector"),
})
