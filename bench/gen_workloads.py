"""Generate the benchmark's inputs from one seed.

``python bench/gen_workloads.py --seed S --out DIR`` writes one JSON file
per workload: an ``experiment_spec/v1`` document for the single-run
workloads and a ``sweep_request/v1`` document for the two sweep workloads.
The program under test receives only these files.  The default-seed (11)
outputs are committed under ``bench/workloads/``.

What the seed drives — and what it deliberately does not.  The driver
judges run-to-run spread over runs with *different* seeds, so a seed may
change which inputs the program sees but not how much work they are.  The
seed sets every experiment seed (start jitter, Poisson arrivals, per-cell
derived seeds), the sweep's seed axis, and the order and times at which
the in-use router-router links fail.  The topology seeds and sizes, and
with them which links are the most used, are part of each workload's
definition: over eight power-law seeds the same 200-AS request built
940-1050 hosts and 46.2-49.0 events per 1000 packets, wider than any bound
this benchmark could then keep.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import random
import sys
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Workload names, in run order.  ``why`` is copied into BENCHMARK.json.
WORKLOADS: Dict[str, str] = {
    "fig1_packet": (
        "Smallest topology, packet engine: per-packet cost of sim, net and "
        "router is everything; topology, routing, train code and cluster "
        "are bypassed."),
    "fig1_observed": (
        "Same figure-1 flood with packet and aitf-control taps plus metrics: "
        "the same sim/net/router code through tap-swapped methods, so obs "
        "cost shows here and not on fig1_packet."),
    "fleet_train": (
        "200-AS power-law fleet, 1000 zombies, train engine, congested: "
        "set-up (networkx, topology, route install) is half the op; the "
        "rest is the fluid/train twins of net and router."),
    "fleet_churn": (
        "120-AS fleet, short horizon, three link_down/link_up pairs on its "
        "most-used links in seeded order: faults and incremental Dijkstra "
        "rerouting dominate; the edge-usage index lands in set-up."),
    "hier_churn": (
        "Tiered valley-free hierarchy of thousands of ASes with a seeded "
        "fault pair on a transit link: lazy policy-route materialisation, "
        "PolicyRoutingManager.apply, cyclic GC and the largest RSS."),
    "sweep_cold": (
        "200 cheap figure-1 cells (5 defenses x 8 rates x 5 seeds) through "
        "SweepCoordinator on an empty cache: per-cell overhead (expand, "
        "hash, queue files, cache write, merge) and every baseline."),
    "sweep_warm": (
        "The same grid resumed against a full cache: pure cache read and "
        "merge, no simulation; bypasses every layer below experiments."),
}

DEFAULT_SEED = 11

#: Per-workload horizon in simulated seconds (full, quick).
HORIZONS: Dict[str, Tuple[float, float]] = {
    "fig1_packet": (40.0, 4.0),
    "fig1_observed": (20.0, 2.0),
    "fleet_train": (30.0, 4.0),
    "fleet_churn": (4.0, 2.0),
    "hier_churn": (4.0, 2.0),
    "sweep_cold": (2.0, 1.0),
    "sweep_warm": (2.0, 1.0),
}

FLEET_TOPOLOGY = {"kind": "powerlaw",
                  "params": {"autonomous_systems": 200, "hosts_per_leaf": 10,
                             "seed": 11}}
FLEET_ZOMBIES = 1000
#: fleet_churn runs a smaller fleet: building the edge-usage index grows
#: faster than the fleet (4.3 s of op at 200 ASes, 1.6 s at 120), and two
#: reps in a run are too few for a median.
CHURN_TOPOLOGY = {"kind": "powerlaw",
                  "params": {"autonomous_systems": 120, "hosts_per_leaf": 10,
                             "seed": 11}}
CHURN_ZOMBIES = 500
HIER_TOPOLOGY = {"kind": "hierarchy",
                 "params": {"autonomous_systems": 5000, "host_stubs": 8,
                            "hosts_per_stub": 10, "seed": 7,
                            "stub_uplink_bandwidth": 2e7}}
HIER_ZOMBIES = 60
#: Fault pairs per churn workload.  The links that fail are the most-used
#: ones on the attack paths, so they belong to the workload, not the seed:
#: with three of the six most-used fleet links drawn per seed, the same
#: code's rerouting took 0.50-0.88 CPU-s depending on the draw.  The seed
#: sets the order in which they fail and when.
CHURN_PAIRS = 3
HIER_PAIRS = 1


def derive(seed: int, label: str) -> int:
    """A stable 31-bit integer from the run seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _horizon(name: str, quick: bool) -> float:
    return HORIZONS[name][1 if quick else 0]


def _fig1(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    return {
        "schema": "experiment_spec/v1",
        "name": name,
        "seed": derive(seed, name),
        "duration": _horizon(name, quick),
        "topology": {"kind": "figure1", "params": {"extra_good_hosts": 1}},
        "defense": {"backend": "aitf",
                    "params": {"non_cooperating": ["B_host"]}},
        "aitf": {"filter_timeout": 60.0, "temporary_filter_timeout": 1.0},
        "workloads": [
            {"kind": "legitimate",
             "params": {"rate_pps": 400.0, "packet_size": 1000, "start": 0.0}},
            {"kind": "flood",
             "params": {"rate_pps": 5000.0, "packet_size": 1000,
                        "start": 0.5}},
        ],
    }


def gen_fig1_packet(seed: int, quick: bool) -> Dict[str, Any]:
    return _fig1("fig1_packet", seed, quick)


def gen_fig1_observed(seed: int, quick: bool) -> Dict[str, Any]:
    spec = _fig1("fig1_observed", seed, quick)
    spec["observe"] = {"channels": ["packet", "aitf-control"],
                       "metrics": True}
    return spec


def _fleet(name: str, seed: int, quick: bool, topology: Dict[str, Any],
           zombies: int) -> Dict[str, Any]:
    topology = copy.deepcopy(topology)
    if quick:
        # Not smaller: a 60-AS fleet at the quick horizon reports an
        # effective_bandwidth_ratio of 1.006, which the checks refuse.
        topology["params"]["autonomous_systems"] = 100
        zombies = 400
    return {
        "schema": "experiment_spec/v1",
        "name": name,
        "seed": derive(seed, name),
        "duration": _horizon(name, quick),
        "topology": topology,
        "defense": {"backend": "aitf",
                    "params": {"non_cooperating_attackers": True}},
        "aitf": {"filter_timeout": 30.0, "temporary_filter_timeout": 0.6},
        "engine": {"mode": "train"},
        "sample_occupancy": False,
        "workloads": [
            {"kind": "legitimate",
             "params": {"rate_pps": 200.0, "packet_size": 1000, "start": 0.0}},
            {"kind": "zombies",
             "params": {"count": zombies, "rate_pps": 40.0,
                        "start": 0.05}},
        ],
    }


def gen_fleet_train(seed: int, quick: bool) -> Dict[str, Any]:
    return _fleet("fleet_train", seed, quick, FLEET_TOPOLOGY, FLEET_ZOMBIES)


def _in_use_links(spec: Dict[str, Any], zombies: int, count: int,
                  eligible: Callable[[str, str], bool]
                  ) -> List[Tuple[str, str]]:
    """The ``count`` most-used router-router links on the zombies' attack
    paths, most used first.

    Built from the public topology handle only.  A link whose removal
    would cut the routing graph is skipped, so no fault partitions the
    network.
    """
    import networkx as nx

    from repro.experiments.topologies import build_topology

    handle = build_topology(spec["topology"]["kind"],
                            spec["topology"]["params"])
    usage: Counter = Counter()
    for attacker in handle.attackers[:zombies]:
        path = handle.attack_path(attacker)
        for a, b in zip(path, path[1:]):
            if eligible(a, b):
                usage[(a, b) if a <= b else (b, a)] += 1
    graph = handle.topology.routing_graph
    ranked = sorted(usage, key=lambda edge: (-usage[edge], edge))
    links: List[Tuple[str, str]] = []
    for a, b in ranked:
        data = graph.get_edge_data(a, b)
        graph.remove_edge(a, b)
        connected = nx.has_path(graph, a, b)
        graph.add_edge(a, b, **data)
        if connected:
            links.append((a, b))
        if len(links) == count:
            break
    return links


def _fault_schedule(links: Sequence[Tuple[str, str]], horizon: float,
                    rng: random.Random) -> List[Dict[str, Any]]:
    """One link_down/link_up pair per link, in seeded order, one per equal
    slot of the middle of the horizon."""
    chosen = rng.sample(list(links), len(links))
    slot = 0.7 * horizon / len(links)
    faults: List[Dict[str, Any]] = []
    for index, link in enumerate(chosen):
        down = 0.2 * horizon + slot * (index + 0.3 * rng.random())
        up = down + slot * (0.3 + 0.2 * rng.random())
        faults.append({"kind": "link_down", "time": round(down, 4),
                       "link": list(link)})
        faults.append({"kind": "link_up", "time": round(up, 4),
                       "link": list(link)})
    return faults


def gen_fleet_churn(seed: int, quick: bool) -> Dict[str, Any]:
    spec = _fleet("fleet_churn", seed, quick, CHURN_TOPOLOGY, CHURN_ZOMBIES)
    zombies = spec["workloads"][1]["params"]["count"]
    links = _in_use_links(spec, zombies, CHURN_PAIRS, lambda a, b: True)
    rng = random.Random(derive(seed, "fleet_churn/faults"))
    spec["faults"] = _fault_schedule(links, spec["duration"], rng)
    return spec


def gen_hier_churn(seed: int, quick: bool) -> Dict[str, Any]:
    name = "hier_churn"
    spec = {
        "schema": "experiment_spec/v1",
        "name": name,
        "seed": derive(seed, name),
        "duration": _horizon(name, quick),
        "topology": copy.deepcopy(HIER_TOPOLOGY),
        "defense": {"backend": "aitf",
                    "params": {"deployment": "all",
                               "non_cooperating_attackers": True}},
        "aitf": {"filter_timeout": 60.0, "temporary_filter_timeout": 1.0},
        "engine": {"mode": "train"},
        "sample_occupancy": False,
        "workloads": [
            {"kind": "legitimate",
             "params": {"rate_pps": 150.0, "packet_size": 1000, "start": 0.0,
                        "poisson": True}},
            {"kind": "zombies",
             "params": {"count": HIER_ZOMBIES, "rate_pps": 200.0,
                        "start": 0.5}},
        ],
    }
    if quick:
        spec["topology"]["params"]["autonomous_systems"] = 600

    def transit(a: str, b: str) -> bool:
        # Stub uplinks are excluded: a single-homed stub would be cut off.
        return not (a.startswith("st_") or b.startswith("st_"))

    links = _in_use_links(spec, HIER_ZOMBIES, HIER_PAIRS, transit)
    rng = random.Random(derive(seed, "hier_churn/faults"))
    spec["faults"] = _fault_schedule(links, spec["duration"], rng)
    return spec


def _sweep(name: str, seed: int, quick: bool) -> Dict[str, Any]:
    base = _fig1(name, seed, quick)
    base["seed"] = derive(seed, "sweep_grid")
    base["engine"] = {"mode": "train"}
    base["sample_occupancy"] = False
    rng = random.Random(derive(seed, "sweep_grid/seeds"))
    seeds = sorted(rng.sample(range(1, 1 << 20), 2 if quick else 5))
    rates = [500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0]
    return {
        "schema": "sweep_request/v1",
        "name": name,
        "base_spec": base,
        "grid": {
            "defense.backend": ["aitf", "pushback", "ingress-dpf", "manual",
                                "none"],
            "workloads.1.params.rate_pps": rates[:2] if quick else rates,
            "seed": seeds,
        },
    }


def gen_sweep_cold(seed: int, quick: bool) -> Dict[str, Any]:
    return _sweep("sweep_cold", seed, quick)


def gen_sweep_warm(seed: int, quick: bool) -> Dict[str, Any]:
    return _sweep("sweep_warm", seed, quick)


GENERATORS: Dict[str, Callable[[int, bool], Dict[str, Any]]] = {
    "fig1_packet": gen_fig1_packet,
    "fig1_observed": gen_fig1_observed,
    "fleet_train": gen_fleet_train,
    "fleet_churn": gen_fleet_churn,
    "hier_churn": gen_hier_churn,
    "sweep_cold": gen_sweep_cold,
    "sweep_warm": gen_sweep_warm,
}


def generate(name: str, seed: int, quick: bool = False) -> Dict[str, Any]:
    """The input document of workload ``name`` for ``seed``."""
    return GENERATORS[name](seed, quick)


def dump(document: Dict[str, Any]) -> str:
    """The one serialisation used for committed and generated inputs."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="generate only these (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="short horizons and small grids (smoke runs)")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w") as handle:
            handle.write(dump(generate(name, args.seed, args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
