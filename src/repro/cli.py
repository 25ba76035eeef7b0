"""Command-line interface: every experiment is a declarative spec.

A downstream user who just wants to see AITF work (or to sweep a parameter
from a shell script) should not have to write Python.  The CLI is built on
the unified experiment API (:mod:`repro.experiments`)::

    python -m repro run      --defense pushback --duration 6
    python -m repro run      --spec experiment.json
    python -m repro compare  --defenses aitf,pushback,manual,none
    python -m repro sweep    --param defense.backend=aitf,pushback \
                             --param workloads.1.params.rate_pps=1500,3000 \
                             --workers 4 --output sweep.json
    python -m repro sweep    --request examples/specs/grids/e3_victim_gateway_resources.json
    python -m repro sweep    --param duration=2,4 --cluster /shared/q --resume
    python -m repro worker   --cluster /shared/q
    python -m repro report   sweep.json --output report.md --csv cells.csv
    python -m repro report   sweep.json --plot --figures-dir figures
    python -m repro paper    --quick    # every committed grid -> figures/

the observability plane (:mod:`repro.obs`)::

    python -m repro trace record --spec experiment.json --output trace.jsonl
    python -m repro trace show   trace.jsonl --channel aitf-control
    python -m repro trace filter trace.jsonl --channel fault --output f.jsonl
    python -m repro trace diff   packet.jsonl train.jsonl
    python -m repro profile --spec experiment.json --top 15

the paper's other canonical experiments are committed specs::

    python -m repro run      --spec examples/specs/onoff_aitf.json
    python -m repro run      --spec examples/specs/victim_resources.json

Each subcommand prints a small result table and exits 0; `--json` switches
the output to machine-readable JSON for scripting.  Every subcommand takes
``--seed`` so any run is reproducible from its command line.  Result tables
go to stdout; diagnostics (per-cell sweep progress, "wrote ..." notices) go
through the shared logger to stderr and obey the global ``--verbose`` /
``--quiet`` flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.analysis.report import (
    ResultTable,
    emit_result,
    format_bps,
    format_ratio,
    format_seconds,
    result_to_dict,
)
from repro.experiments import (
    DEFENSES,
    OBSERVE_CHANNELS,
    TOPOLOGIES,
    ExperimentRunner,
    ExperimentSpec,
    ObserveSpec,
    SweepRunner,
    default_flood_spec,
    provenance_sidecar_path,
)
from repro.obs import (
    FlightRecorder,
    diff_timelines,
    get_logger,
    load_trace,
    log_cell_progress,
    provenance_summary,
    setup_logging,
    write_trace,
)

logger = get_logger("cli")


def _parse_value(text: str) -> Any:
    """One override value: JSON where it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def _parse_assignment(text: str) -> tuple:
    """``path=value`` -> (path, parsed value)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected PATH=VALUE, got {text!r}")
    path, _, raw = text.partition("=")
    return path.strip(), raw


def _parse_fault(text: str) -> Dict[str, Any]:
    """``KIND@TIME:TARGET`` -> one fault-spec dict.

    ``TARGET`` containing a ``-`` names a link by its two endpoints
    (``T1-B_gw``); otherwise it names a router.  ``TIME`` is either a
    number or ``A..B`` for a seed-derived draw inside that window:

        link_down@4.0:T1-B_gw      router_crash@2..6:T1
    """
    kind, at, rest = text.partition("@")
    when, colon, target = rest.partition(":")
    kind, when, target = kind.strip(), when.strip(), target.strip()
    if not at or not colon or not kind or not when or not target:
        raise argparse.ArgumentTypeError(
            f"expected KIND@TIME:TARGET (e.g. link_down@4.0:T1-B_gw "
            f"or router_crash@2..6:T1), got {text!r}")
    fault: Dict[str, Any] = {"kind": kind}
    try:
        if ".." in when:
            start, _, end = when.partition("..")
            fault["window"] = [float(start), float(end)]
        else:
            fault["time"] = float(when)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"fault time must be a number or A..B window, got {when!r}")
    if "-" in target:
        fault["link"] = [part.strip() for part in target.split("-", 1)]
    else:
        fault["node"] = target
    return fault


#: Convenience flags (by argparse dest) that shape the default flood spec,
#: with the spec field each one sets there — what ``--set`` must name instead
#: when the spec comes from a file.
_FLOOD_FLAGS = {
    "attack_pps": "workloads.1.params.rate_pps",
    "legit_pps": "workloads.0.params.rate_pps",
    "detection_delay": "detection_delay",
}


def _reject_flood_flags_with_spec_file(parser: argparse.ArgumentParser,
                                       args: argparse.Namespace) -> None:
    """Fail closed: a flood convenience flag next to ``--spec``/``--request``
    would be ignored and the table printed for the wrong experiment."""
    source = next((flag for flag in ("spec", "request")
                   if getattr(args, flag, None)), None)
    if source is None:
        return
    for dest, path in _FLOOD_FLAGS.items():
        if getattr(args, dest, None) is not None:
            parser.error(
                f"--{dest.replace('_', '-')} only shapes the default flood "
                f"spec and cannot be combined with --{source}; override the "
                f"file's field with --set PATH=VALUE instead (in a flood "
                f"spec: --set {path}=N)")


def _base_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The spec behind ``run``/``compare``/``sweep``: a file, or the canonical
    flood experiment built from the convenience flags."""
    if getattr(args, "spec", None):
        spec = ExperimentSpec.load(args.spec)
    else:
        flags = {dest: getattr(args, dest) for dest in _FLOOD_FLAGS
                 if getattr(args, dest) is not None}
        spec = default_flood_spec(
            topology=getattr(args, "topology", "") or "figure1", **flags)
    overrides: Dict[str, Any] = {}
    if getattr(args, "spec", None) and getattr(args, "topology", None):
        overrides["topology.kind"] = args.topology
    if getattr(args, "defense", None):
        overrides["defense.backend"] = args.defense
    return _with_run_flags(spec, args, overrides)


def _with_run_flags(spec: ExperimentSpec, args: argparse.Namespace,
                    overrides: Optional[Dict[str, Any]] = None) -> ExperimentSpec:
    """``spec`` under ``overrides`` plus the flags every spec-running
    command shares: ``--duration``, ``--seed``, ``--set``, ``--fault``."""
    overrides = dict(overrides or {})
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    for path, raw in getattr(args, "set", None) or []:
        overrides[path] = _parse_value(raw)
    if getattr(args, "fault", None):
        overrides["faults"] = list(args.fault)
    return spec.with_overrides(overrides) if overrides else spec


def _experiment_table(result) -> ResultTable:
    table = ResultTable(f"Experiment: {result.name} [{result.defense}]",
                        ["metric", "value"])
    table.add_row("topology", result.topology)
    table.add_row("defense backend", result.defense)
    table.add_row("seed", result.seed)
    table.add_row("attack offered", format_bps(result.attack_offered_bps))
    table.add_row("attack reaching victim", format_bps(result.attack_received_bps))
    table.add_row("effective-bandwidth ratio",
                  format_ratio(result.effective_bandwidth_ratio))
    table.add_row("legitimate goodput", format_bps(result.legit_goodput_bps))
    table.add_row("time to first block",
                  format_seconds(result.time_to_first_block)
                  if result.time_to_first_block is not None else "never")
    table.add_row("defense nodes involved", result.nodes_involved)
    table.add_row("control messages", result.control_messages)
    if result.packets_dropped_down:
        table.add_row("packets dropped (link down)", result.packets_dropped_down)
    for key, value in sorted(result.defense_stats.items()):
        if key in ("backend", "time_to_first_block", "nodes_involved",
                   "control_messages"):
            continue
        table.add_row(f"[{result.defense}] {key}", value)
    for index, stats in enumerate(result.workload_stats):
        for key, value in stats.items():
            if key not in ("kind", "role", "offered_bps"):
                table.add_row(f"[workload {index} {stats['kind']}] {key}", value)
    for collector_id, stats in result.collector_stats.items():
        for key, value in stats.items():
            if key != "kind":
                table.add_row(f"[{collector_id}] {key}", value)
    return table


# ----------------------------------------------------------------------
# experiment subcommands
# ----------------------------------------------------------------------
def run_experiment(args: argparse.Namespace) -> int:
    """``repro run``: execute one spec under any registered defense backend."""
    spec = _base_spec(args)
    result = ExperimentRunner().run(spec)
    emit_result(result, _experiment_table(result), args.json)
    return 0


def run_compare(args: argparse.Namespace) -> int:
    """``repro compare``: one spec, many backends, paired seeds (E9-style)."""
    defenses = [d.strip() for d in args.defenses.split(",") if d.strip()]
    if not defenses:
        raise SystemExit("--defenses needs at least one backend name")
    for name in defenses:
        DEFENSES.get(name)  # fail fast with the list of valid names
    spec = _base_spec(args)
    results = [ExperimentRunner().run(spec.with_overrides({"defense.backend": name}))
               for name in defenses]
    if args.json:
        print(json.dumps([result_to_dict(r) for r in results], indent=2))
        return 0
    table = ResultTable(
        "Defense comparison",
        ["defense", "attack@victim", "ratio", "legit goodput",
         "first block", "nodes", "ctrl msgs"],
    )
    for result in results:
        table.add_row(
            result.defense,
            format_bps(result.attack_received_bps),
            format_ratio(result.effective_bandwidth_ratio),
            format_bps(result.legit_goodput_bps),
            format_seconds(result.time_to_first_block)
            if result.time_to_first_block is not None else "never",
            result.nodes_involved,
            result.control_messages,
        )
    table.add_note("same spec and seed for every backend (paired comparison)")
    table.print()
    return 0


def run_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: expand a parameter grid and run cells in parallel —
    on a local process pool, or distributed over a shared ``--cluster``
    directory (see :mod:`repro.cluster`)."""
    request = None
    if args.request:
        if args.param or getattr(args, "spec", None):
            raise SystemExit(
                "--request carries its own base spec and grid; it cannot be "
                "combined with --param or --spec")
        from repro.experiments.request import load_sweep_request, resolve_request

        try:
            request = load_sweep_request(args.request)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro sweep: {exc}") from exc
        request = resolve_request(request, quick=args.quick,
                                  source=args.request)
        grid = request.grid
    elif args.quick:
        raise SystemExit("--quick only applies to --request sweeps "
                         "(the quick variant lives in the request file)")
    elif not args.param:
        raise SystemExit(
            "repro sweep needs at least one --param PATH=V1,V2,... "
            "(e.g. --param defense.backend=aitf,pushback) or --request FILE")
    else:
        # --param sweeps keep their historical 4 s default horizon; it is
        # applied here (not in argparse) so a --request base spec's own
        # duration is never clobbered by a default.
        if args.duration is None:
            args.duration = 4.0
        grid = {}
        for path, raw in args.param:
            values = [_parse_value(v) for v in raw.split(",") if v != ""]
            if not values:
                raise SystemExit(f"--param {path} has no values")
            grid[path] = values
    if not args.cluster:
        for flag, present in (("--resume", args.resume),
                              ("--enqueue-only", args.enqueue_only)):
            if present:
                raise SystemExit(
                    f"{flag} only makes sense with --cluster DIR "
                    "(a local sweep has no queue to resume or fill)")
    elif args.workers != 1:
        raise SystemExit(
            "--workers does not apply with --cluster: parallelism comes "
            "from running `repro worker --cluster DIR` processes")
    if request is not None:
        base = _with_run_flags(request.base, args)
        reseed = request.reseed and not args.no_reseed
    else:
        base = _base_spec(args)
        reseed = not args.no_reseed
    if args.cluster:
        from repro.cluster import ClusterError, SweepCoordinator

        # Operator mistakes (reused dir without --resume, changed grid on
        # resume, timeout) are CLI errors, not tracebacks.
        try:
            coordinator = SweepCoordinator(args.cluster,
                                           lease_seconds=args.lease,
                                           progress=log_cell_progress)
            manifest = coordinator.submit(base, grid,
                                          reseed=reseed,
                                          resume=args.resume)
            if args.enqueue_only:
                pending, leased, done = coordinator.queue.counts()
                summary = {"cells": len(manifest), "pending": pending,
                           "leased": leased, "done": done,
                           "cluster": args.cluster}
                if args.json:
                    print(json.dumps(summary, indent=2, sort_keys=True))
                else:
                    print(f"enqueued sweep: {len(manifest)} cells in "
                          f"{args.cluster} ({done} already done, {pending} pending);"
                          f" start workers with: repro worker --cluster {args.cluster}")
                return 0
            sweep = coordinator.execute(timeout=args.timeout)
        except ClusterError as exc:
            raise SystemExit(f"repro sweep: {exc}") from exc
        mode_note = f"cluster {args.cluster}"
    else:
        sweep = SweepRunner(workers=args.workers,
                            progress=log_cell_progress).run_grid(
            base, grid, reseed=reseed)
        mode_note = f"{args.workers} workers"
    logger.info("%s", provenance_summary(sweep.provenance))
    doc = sweep.to_dict()
    if args.output:
        sweep.write(args.output)
        sweep.write_provenance(provenance_sidecar_path(args.output))
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    axes = list(grid)
    table = ResultTable(
        f"Sweep: {len(sweep.cells)} cells x {mode_note}",
        [*axes, "seed", "ratio", "legit goodput", "first block"],
    )
    from repro.analysis.sweep_report import axis_value

    for cell in sweep.cells:
        result = cell["result"]
        ttb = result["time_to_first_block"]
        table.add_row(
            *[axis_value(cell["overrides"], axis, "-") for axis in axes],
            cell["seed"],
            format_ratio(result["effective_bandwidth_ratio"]),
            format_bps(result["legit_goodput_bps"]),
            format_seconds(ttb) if ttb is not None else "never",
        )
    cache = sweep.provenance.get("cache")
    if cache:
        table.add_note(f"cell cache: {cache['hits']} hits, "
                       f"{cache['misses']} misses")
    if args.output:
        table.add_note(f"full results written to {args.output} "
                       f"(provenance: {provenance_sidecar_path(args.output)})")
    table.print()
    return 0


def run_worker(args: argparse.Namespace) -> int:
    """``repro worker``: execute sweep cells from a shared cluster directory
    until the run completes (any number of these can share one directory,
    across processes or machines)."""
    from repro.cluster import ClusterWorker

    worker = ClusterWorker(args.cluster, worker_id=args.worker_id or None,
                           lease_seconds=args.lease,
                           poll_interval=args.poll)
    stats = worker.run(max_cells=args.max_cells,
                       idle_timeout=args.idle_timeout)
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        return 0
    table = ResultTable(f"Worker {stats.worker_id}", ["metric", "value"])
    table.add_row("cells executed", stats.executed)
    table.add_row("cache hits", stats.cache_hits)
    table.add_row("stale leases requeued", stats.requeued)
    table.add_row("wall clock", format_seconds(stats.wall_seconds))
    table.add_row("stopped because", stats.stop_reason)
    table.print()
    return 0


def run_topo(args: argparse.Namespace) -> int:
    """``repro topo``: build a registered topology and describe it.

    Prints node/link counts, build wall-clock, and — for policy-routed
    hierarchies — AS counts by tier, link counts by relationship, and the
    routing-table entries installed when the victim anchor materializes."""
    from repro.experiments.topologies import build_topology

    params: Dict[str, Any] = {path: _parse_value(raw)
                              for path, raw in args.set}
    if args.seed is not None:
        params["seed"] = args.seed
    start = time.perf_counter()
    handle = build_topology(args.name, params)
    build_seconds = time.perf_counter() - start

    topo = handle.topology
    hosts = len(topo.hosts())
    routers = len(topo.border_routers())
    table = ResultTable(f"Topology {args.name!r}", ["metric", "value"])
    table.add_row("nodes", hosts + routers)
    table.add_row("hosts", hosts)
    table.add_row("border routers", routers)
    table.add_row("links", len(topo.links))
    table.add_row("victim", handle.victim.name)
    table.add_row("victim gateway", handle.victim_gateway.name)
    table.add_row("attacker hosts", len(handle.attackers))
    table.add_row("build wall-clock", format_seconds(build_seconds))

    raw = handle.raw
    doc: Dict[str, Any] = {
        "name": args.name, "params": params,
        "nodes": hosts + routers, "hosts": hosts, "routers": routers,
        "links": len(topo.links), "build_seconds": build_seconds,
    }
    if hasattr(raw, "tier_counts"):
        for tier, count in raw.tier_counts().items():
            table.add_row(f"ASes: {tier}", count)
        doc["tiers"] = raw.tier_counts()
    if hasattr(raw, "relationships"):
        for kind, count in raw.relationships.edge_counts().items():
            table.add_row(f"links: {kind}", count)
        doc["relationship_links"] = raw.relationships.edge_counts()
    policy = getattr(getattr(raw, "topology", None), "policy", None)
    if policy is not None and hasattr(policy, "materialize"):
        start = time.perf_counter()
        # The routers the solve gives a route: each holds the anchor's
        # rows once it asks (a bare materialize writes the anchor's own).
        entries = len(policy.materialize(
            policy.anchor_of(handle.victim_gateway.name)))
        route_seconds = time.perf_counter() - start
        table.add_row("routing entries (victim anchor)", entries)
        table.add_row("route wall-clock", format_seconds(route_seconds))
        doc["routing_entries"] = entries
        doc["route_seconds"] = route_seconds

    if args.json:
        print(json.dumps(doc, indent=2, default=str))
    else:
        table.print()
    return 0


def run_report(args: argparse.Namespace) -> int:
    """``repro report``: render a sweep/compare/result JSON document into
    paper-style markdown and CSV tables — and, with ``--plot``, into
    paper-style SVG figures."""
    from repro.analysis.sweep_report import (
        load_document,
        render_csv,
        render_markdown,
    )

    doc = load_document(args.input)
    provenance = None
    sidecar = provenance_sidecar_path(args.input)
    if os.path.exists(sidecar):
        with open(sidecar) as handle:
            provenance = json.load(handle)
    markdown = render_markdown(doc, source=args.input, provenance=provenance)
    written = []
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(markdown)
        written.append(args.output)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(render_csv(doc))
        written.append(args.csv)
    if args.plot:
        written += _plot_document(doc, args)
    elif args.figures_dir or args.request:
        raise SystemExit("--figures-dir/--request only apply with --plot")
    if written:
        logger.info("wrote %s", ", ".join(written))
    elif not args.plot:
        print(markdown, end="")
    return 0


def _plot_document(doc: Any, args: argparse.Namespace) -> List[str]:
    """The ``repro report --plot`` path: figures from a sweep document."""
    from repro.analysis.figures import (
        FigureRendererUnavailable,
        default_figures,
        have_matplotlib,
        render_figures,
    )

    if not isinstance(doc, dict) or doc.get("schema") != "experiment_sweep/v1":
        raise SystemExit(
            "repro report --plot: figures are rendered from "
            "experiment_sweep/v1 documents (run `repro sweep --output ...`)")
    if args.renderer == "mpl" and not have_matplotlib():
        raise SystemExit(
            "repro report --plot: matplotlib is not installed; install the "
            "plot extra with `pip install '.[plot]'` or pass "
            "`--renderer builtin`")
    if args.request:
        from repro.experiments import load_sweep_request

        figures = load_sweep_request(args.request).figures
        if not figures:
            raise SystemExit(
                f"repro report --plot: {args.request} has no 'figures' section")
    else:
        figures = default_figures(doc)
        if not figures:
            raise SystemExit(
                "repro report --plot: the sweep document has no grid axes to "
                "plot against; describe figures in a --request file")
    figures_dir = args.figures_dir or "figures"
    try:
        return render_figures(doc, figures, figures_dir,
                              renderer=args.renderer)
    except (FigureRendererUnavailable, ValueError) as exc:
        raise SystemExit(f"repro report --plot: {exc}") from exc


def run_paper(args: argparse.Namespace) -> int:
    """``repro paper``: run every committed grid and emit figures + gallery."""
    from repro.analysis.figures import have_matplotlib
    from repro.paper import run_paper as run_paper_pipeline

    if args.renderer == "mpl" and not have_matplotlib():
        raise SystemExit(
            "repro paper: matplotlib is not installed; install the plot "
            "extra with `pip install '.[plot]'` or use the default "
            "builtin renderer")
    if args.cluster and args.workers != 1:
        raise SystemExit(
            "repro paper: --workers does not apply with --cluster; "
            "parallelism comes from `repro worker` processes")
    try:
        summary = run_paper_pipeline(
            grids_dir=args.grids,
            output_dir=args.output,
            quick=args.quick,
            workers=args.workers,
            cluster_dir=args.cluster or None,
            renderer=args.renderer,
            timeout=args.timeout,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro paper: {exc}") from exc
    except Exception as exc:  # ClusterError without importing eagerly
        from repro.cluster import ClusterError

        if isinstance(exc, ClusterError):
            raise SystemExit(f"repro paper: {exc}") from exc
        raise
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    table = ResultTable(
        f"Paper reproduction ({'quick' if args.quick else 'full'} grids)",
        ["grid", "cells", "figures", "cache hits", "wall s"],
    )
    for grid in summary["grids"]:
        table.add_row(grid["name"], grid["cells"], len(grid["figures"]),
                      grid["cache_hits"], f"{grid['wall_seconds']:.2f}")
    table.add_note(f"gallery: {summary['gallery']}")
    table.print()
    return 0


# ----------------------------------------------------------------------
# observability subcommands (the flight recorder and friends)
# ----------------------------------------------------------------------
def _load_trace_or_die(path: str) -> tuple:
    try:
        return load_trace(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro trace: {exc}") from exc


def run_trace_record(args: argparse.Namespace) -> int:
    """``repro trace record``: run one spec with tracing on, write JSONL."""
    spec = _base_spec(args)
    names = [c.strip() for c in args.channels.split(",") if c.strip()]
    if names == ["all"]:
        names = list(OBSERVE_CHANNELS)
    try:
        observe = ObserveSpec(channels=tuple(dict.fromkeys(names)),
                              metrics=args.metrics,
                              sample_period=args.sample_period)
    except ValueError as exc:
        raise SystemExit(f"repro trace record: {exc}") from exc
    spec = dataclasses.replace(spec, observe=observe)
    execution = ExperimentRunner().prepare(spec)
    result = execution.run()
    recorder = execution.observer.recorder
    recorder.write_jsonl(args.output, spec,
                         extra={"attack_start": execution.attack_window_start})
    logger.info("wrote %s", args.output)
    if args.json:
        print(json.dumps({
            "trace": args.output,
            "records": len(recorder),
            "channels": recorder.counts(),
            "time_to_first_block": result.time_to_first_block,
        }, indent=2, sort_keys=True))
        return 0
    table = ResultTable(f"Trace: {spec.name} [{spec.engine.mode}]",
                        ["metric", "value"])
    table.add_row("trace file", args.output)
    table.add_row("records", len(recorder))
    for channel, count in sorted(recorder.counts().items()):
        table.add_row(f"channel {channel}", count)
    table.add_row("time to first block",
                  format_seconds(result.time_to_first_block)
                  if result.time_to_first_block is not None else "never")
    table.print()
    return 0


def run_trace_show(args: argparse.Namespace) -> int:
    """``repro trace show``: print a recorded trace — reconstructed AITF
    protocol timelines for ``aitf-control`` (the default), raw records for
    any other channel."""
    header, records = _load_trace_or_die(args.trace)
    channel = args.channel or "aitf-control"
    selected = [r for r in records if r.get("ch") == channel]
    if args.json:
        print(json.dumps({"header": header, "records": selected},
                         indent=2, sort_keys=True))
        return 0
    print(f"trace {args.trace}: {header.get('name')} "
          f"seed={header.get('seed')} engine={header.get('engine')} "
          f"spec={str(header.get('spec_hash'))[:12]}")
    if channel == "aitf-control":
        recorder = FlightRecorder(selected)
        timelines = recorder.select(victim=args.victim or None,
                                    attacker=args.attacker or None)
        if not timelines:
            print("no aitf-control requests in this trace"
                  + (" (after filters)" if args.victim or args.attacker
                     else ""))
        for timeline in timelines:
            print()
            for line in timeline.describe():
                print(line)
        return 0
    if args.victim or args.attacker:
        raise SystemExit(
            "repro trace show: --victim/--attacker only apply to the "
            "aitf-control timeline view")
    for record in selected:
        extras = [f"{key}={record[key]}" for key in sorted(record)
                  if key not in ("t", "ch", "ev")]
        print(f"{record['t']:>10.6f}s  {record['ev']:<16} "
              + "  ".join(extras))
    if not selected:
        print(f"no records on channel {channel!r}")
    return 0


def run_trace_filter(args: argparse.Namespace) -> int:
    """``repro trace filter``: write a sub-trace keeping only some channels."""
    header, records = _load_trace_or_die(args.trace)
    channels = [c.strip() for c in args.channel.split(",") if c.strip()]
    unknown = sorted(set(channels) - set(OBSERVE_CHANNELS))
    if unknown:
        raise SystemExit("repro trace filter: unknown channel(s): "
                         + ", ".join(unknown))
    kept = [r for r in records if r.get("ch") in channels]
    header = dict(header)
    header["channels"] = [c for c in header.get("channels", channels)
                          if c in channels]
    write_trace(args.output, header, kept)
    if args.json:
        print(json.dumps({"trace": args.output, "records": len(kept),
                          "of": len(records)}, sort_keys=True))
    else:
        print(f"{args.output}: kept {len(kept)} of {len(records)} records "
              f"({', '.join(channels)})")
    return 0


def run_trace_diff(args: argparse.Namespace) -> int:
    """``repro trace diff``: compare two traces' AITF protocol timelines
    (exit 1 when they drift — the packet-vs-train parity check)."""
    recorder_a = FlightRecorder(_load_trace_or_die(args.a)[1])
    recorder_b = FlightRecorder(_load_trace_or_die(args.b)[1])
    diffs = diff_timelines(recorder_a, recorder_b, tolerance=args.tolerance)
    if args.json:
        print(json.dumps({
            "differences": diffs,
            "timelines": [len(recorder_a.timelines()),
                          len(recorder_b.timelines())],
        }, indent=2, sort_keys=True))
        return 1 if diffs else 0
    if not diffs:
        print(f"traces agree: {len(recorder_a.timelines())} timeline(s), "
              f"tolerance {args.tolerance}s")
        return 0
    table = ResultTable(f"Trace diff: {args.a} vs {args.b}",
                        ["request", "field", "a", "b"])
    for diff in diffs:
        table.add_row(diff["request"], diff["field"],
                      diff["a"], diff["b"])
    table.print()
    return 1


def run_profile(args: argparse.Namespace) -> int:
    """``repro profile``: run one spec under cProfile and print hotspots."""
    from repro.perf.profiling import profile_spec

    spec = _base_spec(args)
    print(profile_spec(spec, top=args.top, sort=args.sort))
    return 0


def _redteam_executor(args: argparse.Namespace) -> SweepRunner:
    """The cache-fronted sweep runner shared by the redteam subcommands."""
    from repro.cluster.cache import CellCache

    cache = CellCache(args.cache) if args.cache else None
    return SweepRunner(workers=args.workers, cache=cache)


def _load_json_or_die(path: str, what: str) -> Dict[str, Any]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"repro redteam: cannot read {what} {path}: {error}")


def run_redteam_search(args: argparse.Namespace) -> int:
    """``repro redteam search``: successive-refinement search of the attack
    ladders for cells where the defense's goodput collapses."""
    from repro.analysis.redteam import search_table
    from repro.redteam import run_search, write_search
    from repro.redteam.search import search_provenance
    from repro.redteam.spec import load_redteam_spec

    spec = load_redteam_spec(args.spec, quick=args.quick)
    executor = _redteam_executor(args)
    document = run_search(spec, executor=executor)
    write_search(document, args.output)
    with open(provenance_sidecar_path(args.output), "w") as handle:
        json.dump(search_provenance(executor, document), handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    logger.info("wrote %s: %d cells evaluated, %d collapse cell(s)",
                args.output, len(document["cells"]),
                len(document["collapse_cells"]))
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        search_table(document).print()
    return 0


def run_redteam_repair(args: argparse.Namespace) -> int:
    """``repro redteam repair``: verify the cheapest config delta restoring
    each collapse cell of a recorded search (exit 1 if any cell stays
    unrepaired by the committed menu)."""
    from repro.analysis.redteam import repair_table
    from repro.redteam import run_repair, write_report
    from repro.redteam.search import search_provenance
    from repro.redteam.spec import load_redteam_spec

    spec = load_redteam_spec(args.spec, quick=args.quick)
    search_document = _load_json_or_die(args.search, "search document")
    executor = _redteam_executor(args)
    report = run_repair(spec, search_document, executor=executor)
    write_report(report, args.output)
    with open(provenance_sidecar_path(args.output), "w") as handle:
        json.dump(search_provenance(executor, report), handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    logger.info("wrote %s (run_hash %s)", args.output, report["run_hash"][:16])
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        repair_table(report).print()
    unrepaired = [entry["cell_index"] for entry in report["repairs"]
                  if entry["repair"] is None]
    if unrepaired:
        logger.warning("no committed repair restores cell(s) %s", unrepaired)
        return 1
    return 0


def run_redteam_verify(args: argparse.Namespace) -> int:
    """``repro redteam verify``: replay search + repair from the spec and
    compare bytes / run-hash against the recorded documents (exit 1 on any
    mismatch or a cache hit rate below ``--min-hit-rate``)."""
    from repro.redteam import verify_replay
    from repro.redteam.spec import load_redteam_spec

    spec = load_redteam_spec(args.spec, quick=args.quick)
    search_document = _load_json_or_die(args.search, "search document")
    report = _load_json_or_die(args.report, "repair report")
    executor = _redteam_executor(args)
    verdict = verify_replay(spec, search_document, report, executor=executor)
    passed = verdict["verified"] and verdict["hit_rate"] >= args.min_hit_rate
    if args.json:
        print(json.dumps({**verdict, "min_hit_rate": args.min_hit_rate,
                          "passed": passed}, indent=2, sort_keys=True))
    else:
        table = ResultTable("red-team verification replay",
                            ["check", "status"])
        table.add_row("search document bytes",
                      "match" if verdict["search_match"] else "MISMATCH")
        table.add_row("repair report run-hash",
                      "match" if verdict["repair_match"] else "MISMATCH")
        table.add_row("replayed run_hash", verdict["run_hash"][:16] + "…")
        table.add_row("cache hit rate",
                      f"{verdict['hit_rate']:.1%} "
                      f"({verdict['cache']['hits']}/"
                      f"{verdict['cache']['hits'] + verdict['cache']['misses']}"
                      f", floor {args.min_hit_rate:.0%})")
        table.print()
    if not passed:
        logger.warning("red-team verification failed: %s", verdict)
        return 1
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _add_spec_flags(parser: argparse.ArgumentParser, *,
                    duration_default: Optional[float] = None) -> None:
    """Flags shared by the spec-driven subcommands (run/compare/sweep)."""
    parser.add_argument("--spec", default="",
                        help="JSON experiment spec file (see repro.experiments)")
    parser.add_argument("--topology", default="",
                        help="topology registry name (figure1, dumbbell, tree, powerlaw)")
    parser.add_argument("--duration", type=float, default=duration_default,
                        help="simulated horizon in seconds")
    parser.add_argument("--attack-pps", type=float, default=None,
                        help="flood rate for the default spec (default 1500; "
                             "rejected with --spec/--request, use --set)")
    parser.add_argument("--legit-pps", type=float, default=None,
                        help="legitimate rate for the default spec (default "
                             "400; rejected with --spec/--request, use --set)")
    parser.add_argument("--detection-delay", type=float, default=None,
                        help="Td for the default spec (default 0.1; rejected "
                             "with --spec/--request, use --set)")
    parser.add_argument("--set", action="append", type=_parse_assignment,
                        metavar="PATH=VALUE", default=[],
                        help="override any spec field by dotted path "
                             "(e.g. --set defense.params.limit_bps=2e6)")
    parser.add_argument("--fault", action="append", type=_parse_fault,
                        metavar="KIND@TIME:TARGET", default=[],
                        help="inject a fault event; repeatable "
                             "(e.g. --fault link_down@4.0:T1-B_gw "
                             "--fault link_up@8.0:T1-B_gw; "
                             "TARGET with a dash is a link, otherwise a "
                             "router; TIME may be A..B for a seeded window)")


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run AITF reproduction experiments from the command line.",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the raw result as JSON instead of a table")
    parser.add_argument("--verbose", "-v", action="count", default=0,
                        help="debug-level diagnostics on stderr (repeatable)")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress informational diagnostics "
                             "(warnings and errors only)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run one declarative experiment (any defense backend)")
    _add_spec_flags(run)
    run.add_argument("--defense", default="",
                     choices=["", *DEFENSES.names()],
                     help="defense backend registry name")
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=run_experiment)

    compare = subparsers.add_parser(
        "compare", help="run the same experiment under several defenses")
    _add_spec_flags(compare, duration_default=None)
    compare.add_argument("--defenses", default="aitf,pushback,ingress-dpf,manual,none",
                         help="comma-separated backend names")
    compare.add_argument("--seed", type=int, default=None)
    compare.set_defaults(func=run_compare)

    sweep = subparsers.add_parser(
        "sweep", help="expand a parameter grid and run the cells in parallel")
    _add_spec_flags(sweep, duration_default=None)
    sweep.add_argument("--param", action="append", type=_parse_assignment,
                       metavar="PATH=V1,V2,...", default=[],
                       help="one sweep axis: dotted spec path and its values")
    sweep.add_argument("--request", default="", metavar="FILE",
                       help="a sweep_request/v1 file carrying the base spec, "
                            "the grid and optional quick/figures sections "
                            "(e.g. the committed grids in examples/specs/grids)")
    sweep.add_argument("--quick", action="store_true",
                       help="run the request's committed quick variant "
                            "(CI-sized grid)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (1 = serial)")
    sweep.add_argument("--output", default="",
                       help="write the full sweep JSON document here")
    sweep.add_argument("--no-reseed", action="store_true",
                       help="keep the base seed in every cell instead of "
                            "deriving per-cell seeds")
    sweep.add_argument("--seed", type=int, default=None,
                       help="base seed the per-cell seeds derive from")
    sweep.add_argument("--cluster", default="", metavar="DIR",
                       help="distribute cells over this shared queue "
                            "directory instead of a local process pool")
    sweep.add_argument("--resume", action="store_true",
                       help="continue a previously submitted cluster sweep "
                            "(crash-safe: finished cells are not recomputed)")
    sweep.add_argument("--enqueue-only", action="store_true",
                       help="submit the cells and exit; workers drain the "
                            "queue, a later --resume merges the output")
    sweep.add_argument("--lease", type=float, default=30.0,
                       help="cluster lease seconds before a dead worker's "
                            "cell is requeued")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="give up if the cluster run is not complete "
                            "after this many seconds")
    sweep.set_defaults(func=run_sweep)

    worker = subparsers.add_parser(
        "worker", help="execute sweep cells from a shared cluster directory")
    worker.add_argument("--cluster", required=True, metavar="DIR",
                        help="the queue directory a coordinator submits to")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit after processing this many cells")
    worker.add_argument("--lease", type=float, default=30.0,
                        help="lease seconds; heartbeats refresh it while a "
                             "cell executes")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between queue polls when idle")
    worker.add_argument("--idle-timeout", type=float, default=120.0,
                        help="exit after this long with nothing to do")
    worker.add_argument("--worker-id", default="",
                        help="stable identity for leases and provenance "
                             "(default: host:pid)")
    worker.set_defaults(func=run_worker)

    report = subparsers.add_parser(
        "report", help="render sweep/compare JSON into markdown + CSV tables")
    report.add_argument("input", help="an experiment_sweep/v1, "
                                      "experiment_result/v1, or compare JSON file")
    report.add_argument("--output", default="",
                        help="write the markdown report here "
                             "(default: print to stdout)")
    report.add_argument("--csv", default="",
                        help="also write a flat CSV of the cells here")
    report.add_argument("--plot", action="store_true",
                        help="also render SVG figures from a sweep document")
    report.add_argument("--figures-dir", default="",
                        help="directory for --plot output (default: figures)")
    report.add_argument("--renderer", default="mpl",
                        choices=("mpl", "builtin"),
                        help="figure renderer: matplotlib (the [plot] "
                             "extra) or the dependency-free builtin SVG "
                             "writer")
    report.add_argument("--request", default="", metavar="FILE",
                        help="sweep_request/v1 file whose 'figures' section "
                             "describes what to plot (default: generic "
                             "figures from the grid axes)")
    report.set_defaults(func=run_report)

    paper = subparsers.add_parser(
        "paper", help="reproduce the paper: run every committed grid and "
                      "render figures + a gallery")
    paper.add_argument("--grids", default=os.path.join("examples", "specs", "grids"),
                       help="directory of sweep_request/v1 grid files")
    paper.add_argument("--output", default="paper_results",
                       help="output tree (sweeps/, reports/, figures/, index.md)")
    paper.add_argument("--quick", action="store_true",
                       help="run each grid's committed quick variant "
                            "(CI-sized; minutes instead of hours)")
    paper.add_argument("--workers", type=int, default=1,
                       help="process-pool workers per grid (1 = serial)")
    paper.add_argument("--cluster", default="", metavar="DIR",
                       help="run each grid over this shared queue directory "
                            "(one subdirectory per grid)")
    paper.add_argument("--renderer", default="builtin",
                       choices=("builtin", "mpl"),
                       help="figure renderer (builtin is dependency-free "
                            "and byte-deterministic)")
    paper.add_argument("--timeout", type=float, default=None,
                       help="per-grid cluster timeout in seconds")
    paper.set_defaults(func=run_paper)

    topo = subparsers.add_parser(
        "topo", help="build a registered topology and describe it")
    topo.add_argument("--name", required=True,
                      choices=TOPOLOGIES.names(),
                      help="topology registry name")
    topo.add_argument("--seed", type=int, default=None,
                      help="override the builder's seed")
    topo.add_argument("--set", action="append", type=_parse_assignment,
                      metavar="PARAM=VALUE", default=[],
                      help="override any builder parameter "
                           "(e.g. --set autonomous_systems=10000)")
    topo.set_defaults(func=run_topo)

    trace = subparsers.add_parser(
        "trace", help="record and inspect structured experiment traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record",
        help="run one spec with tracing enabled and write a JSONL trace")
    _add_spec_flags(record)
    record.add_argument("--defense", default="",
                        choices=["", *DEFENSES.names()],
                        help="defense backend registry name")
    record.add_argument("--seed", type=int, default=None)
    record.add_argument("--channels", default="aitf-control,routing,fault",
                        help="comma-separated trace channels, or 'all' "
                             f"(available: {', '.join(OBSERVE_CHANNELS)}; "
                             "packet/train are per-delivery and large)")
    record.add_argument("--metrics", action="store_true",
                        help="also run the metrics registry with cadence "
                             "sampling")
    record.add_argument("--sample-period", type=float, default=0.1,
                        help="metrics sampling cadence in simulated seconds")
    record.add_argument("--output", default="trace.jsonl",
                        help="trace file to write")
    record.set_defaults(func=run_trace_record)

    show = trace_sub.add_parser(
        "show", help="print a trace: AITF protocol timelines for "
                     "aitf-control (default), raw records otherwise")
    show.add_argument("trace", help="a JSONL file from `repro trace record`")
    show.add_argument("--channel", default="",
                      choices=("", *OBSERVE_CHANNELS),
                      help="channel to show (default: aitf-control)")
    show.add_argument("--victim", default="",
                      help="only timelines for this victim node")
    show.add_argument("--attacker", default="",
                      help="only timelines for this attacker address")
    show.set_defaults(func=run_trace_show)

    tfilter = trace_sub.add_parser(
        "filter", help="write a sub-trace keeping only some channels")
    tfilter.add_argument("trace", help="the input trace file")
    tfilter.add_argument("--channel", required=True,
                         help="comma-separated channels to keep")
    tfilter.add_argument("--output", required=True,
                         help="the sub-trace file to write")
    tfilter.set_defaults(func=run_trace_filter)

    tdiff = trace_sub.add_parser(
        "diff", help="compare two traces' AITF timelines (exit 1 on drift)")
    tdiff.add_argument("a", help="first trace file")
    tdiff.add_argument("b", help="second trace file")
    tdiff.add_argument("--tolerance", type=float, default=0.0,
                       help="allowed per-milestone drift in seconds")
    tdiff.set_defaults(func=run_trace_diff)

    redteam = subparsers.add_parser(
        "redteam", help="adversarial search for defense collapse plus "
                        "verified minimal policy repair")
    redteam_sub = redteam.add_subparsers(dest="redteam_command", required=True)

    rsearch = redteam_sub.add_parser(
        "search",
        help="successive-refinement search over the attack ladders for "
             "collapse cells; writes a redteam_search/v1 document")
    rsearch.add_argument("--spec", required=True,
                         help="a redteam_spec/v1 file (see docs/redteam.md)")
    rsearch.add_argument("--quick", action="store_true",
                         help="run the file's committed quick variant")
    rsearch.add_argument("--output", default="redteam_search.json",
                         help="search document to write (a .provenance.json "
                              "sidecar rides along)")
    rsearch.add_argument("--cache", default="", metavar="DIR",
                         help="cell cache directory shared with repair and "
                              "verify (default: no cache)")
    rsearch.add_argument("--workers", type=int, default=1,
                         help="process-pool workers (1 = serial; output is "
                              "byte-identical either way)")
    rsearch.set_defaults(func=run_redteam_search)

    rrepair = redteam_sub.add_parser(
        "repair",
        help="verify the cheapest committed config delta restoring each "
             "collapse cell; writes a run-hash-stamped repair_report/v1")
    rrepair.add_argument("--spec", required=True,
                         help="the redteam_spec/v1 file the search ran from")
    rrepair.add_argument("--search", required=True,
                         help="the search document from `repro redteam search`")
    rrepair.add_argument("--quick", action="store_true",
                         help="resolve the spec's quick variant (must match "
                              "how the search ran)")
    rrepair.add_argument("--output", default="repair_report.json",
                         help="repair report to write")
    rrepair.add_argument("--cache", default="", metavar="DIR",
                         help="cell cache directory shared with search and "
                              "verify")
    rrepair.add_argument("--workers", type=int, default=1,
                         help="process-pool workers (1 = serial)")
    rrepair.set_defaults(func=run_redteam_repair)

    rverify = redteam_sub.add_parser(
        "verify",
        help="replay search + repair and compare bytes / run-hash against "
             "the recorded documents (exit 1 on drift)")
    rverify.add_argument("--spec", required=True,
                         help="the redteam_spec/v1 file the documents ran from")
    rverify.add_argument("--search", required=True,
                         help="the recorded search document")
    rverify.add_argument("--report", required=True,
                         help="the recorded repair report")
    rverify.add_argument("--quick", action="store_true",
                         help="resolve the spec's quick variant (must match "
                              "how the documents were produced)")
    rverify.add_argument("--cache", default="", metavar="DIR",
                         help="cell cache directory; a warm cache should "
                              "serve the whole replay")
    rverify.add_argument("--workers", type=int, default=1,
                         help="process-pool workers (1 = serial)")
    rverify.add_argument("--min-hit-rate", type=float, default=0.0,
                         help="fail unless at least this fraction of cells "
                              "was served from the cache (CI uses 0.9)")
    rverify.set_defaults(func=run_redteam_verify)

    profile = subparsers.add_parser(
        "profile", help="run one spec under cProfile and print the hotspots")
    _add_spec_flags(profile)
    profile.add_argument("--defense", default="",
                         choices=["", *DEFENSES.names()],
                         help="defense backend registry name")
    profile.add_argument("--seed", type=int, default=None)
    profile.add_argument("--top", type=int, default=20,
                         help="hotspot rows to print")
    profile.add_argument("--sort", default="tottime",
                         choices=("tottime", "cumulative", "calls"),
                         help="profile sort order")
    profile.set_defaults(func=run_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_flood_flags_with_spec_file(parser, args)
    setup_logging(verbose=args.verbose, quiet=args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
