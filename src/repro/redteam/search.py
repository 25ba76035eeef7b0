"""Adaptive red-team search: successive refinement over attack ladders.

The search walks *ladder indices*, not raw values: each axis of the
``redteam_spec/v1`` file is an ordered list of attack intensities, and a
cell is a coordinate tuple — one rung per axis.  Round 0 probes a coarse
cartesian sub-grid (every ``initial_step``-th rung, always including both
ends of every ladder).  Each refinement round then evaluates the
ladder-adjacent neighbours (one rung up or down on exactly one axis) of
every collapse cell found so far, mapping the boundary of the collapse
region without paying for the full product grid.

Determinism is by construction, the same argument as the sweep layer:

- The frontier of each round is a *sorted* list of coordinate tuples, so
  evaluation order is a pure function of the spec — never of worker
  scheduling, dict order or hash randomisation.
- Each cell's seed is :func:`~repro.experiments.sweep.derive_cell_seed`
  over its overrides, so a cell's result is independent of which round
  discovered it or how many workers ran it.
- The canonical ``redteam_search/v1`` document lists cells sorted by
  coordinate and contains nothing execution-dependent (cache hits,
  wall-clock and worker counts ride in the provenance sidecar).

Hence the acceptance property the tests pin: the same root seed produces
the same collapse cells byte-for-byte at any worker count.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.experiments.spec import document_json
from repro.experiments.sweep import SweepCell, SweepRunner, derive_cell_seed
from repro.obs.logsetup import get_logger
from repro.redteam.spec import RedTeamSpec

logger = get_logger("redteam.search")

#: Version tag written into red-team search documents.
SEARCH_SCHEMA = "redteam_search/v1"

Coordinate = Tuple[int, ...]


def metric_value(result: Mapping[str, Any], metric: str) -> float:
    """Resolve a dotted metric path inside one cell result."""
    node: Any = result
    for segment in metric.split("."):
        if not isinstance(node, Mapping) or segment not in node:
            raise KeyError(
                f"metric {metric!r} not found in cell result "
                f"(missing segment {segment!r})")
        node = node[segment]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValueError(f"metric {metric!r} is not numeric: {node!r}")
    return float(node)


def _initial_indices(ladder_length: int, step: int) -> List[int]:
    """The coarse-probe rungs of one ladder: every ``step``-th index plus
    the last, so both extremes of the attack intensity are always probed."""
    indices = list(range(0, ladder_length, step))
    if indices[-1] != ladder_length - 1:
        indices.append(ladder_length - 1)
    return indices


def _cell_for(spec: RedTeamSpec, paths: Sequence[str],
              ladders: Sequence[List[Any]], coordinate: Coordinate,
              index: int) -> SweepCell:
    """The concrete sweep cell at one ladder coordinate."""
    overrides = {path: ladders[axis][rung]
                 for axis, (path, rung) in enumerate(zip(paths, coordinate))}
    seed = derive_cell_seed(spec.base.seed, overrides)
    concrete = spec.base.with_overrides({**overrides, "seed": seed})
    return SweepCell(index=index, overrides=overrides, spec=concrete)


def run_search(spec: RedTeamSpec, *,
               executor: SweepRunner) -> Dict[str, Any]:
    """Run the adaptive search; returns the ``redteam_search/v1`` document.

    The document is canonical and execution-independent; read cache and
    timing figures off ``executor`` afterwards for the provenance sidecar.
    """
    axes = sorted(spec.axes.items())
    paths = [path for path, _ in axes]
    ladders = [list(ladder) for _, ladder in axes]

    evaluated: Dict[Coordinate, Dict[str, Any]] = {}
    truncated = False
    frontier: List[Coordinate] = sorted(itertools.product(
        *(_initial_indices(len(ladder), spec.initial_step)
          for ladder in ladders)))

    round_number = 0
    while frontier:
        budget = spec.max_cells - len(evaluated)
        if budget <= 0:
            truncated = True
            break
        if len(frontier) > budget:
            logger.warning(
                "red-team search truncated: round %d wants %d cells but "
                "only %d of max_cells=%d remain",
                round_number, len(frontier), budget, spec.max_cells)
            frontier = frontier[:budget]
            truncated = True

        cells = [_cell_for(spec, paths, ladders, coordinate, position)
                 for position, coordinate in enumerate(frontier)]
        results = [document["result"]
                   for document in executor.run_cells(cells).cells]
        for coordinate, cell, result in zip(frontier, cells, results):
            value = metric_value(result, spec.metric)
            evaluated[coordinate] = {
                "coordinate": list(coordinate),
                "overrides": cell.overrides,
                "seed": cell.spec.seed,
                "round": round_number,
                "value": value,
                "collapsed": value < spec.threshold,
                "result": result,
            }
        logger.info("red-team round %d: %d cells, %d collapsed so far",
                    round_number, len(frontier),
                    sum(1 for entry in evaluated.values()
                        if entry["collapsed"]))

        if round_number >= spec.rounds:
            break
        round_number += 1
        neighbours = set()
        for coordinate, entry in evaluated.items():
            if not entry["collapsed"]:
                continue
            for axis in range(len(ladders)):
                for delta in (-1, 1):
                    rung = coordinate[axis] + delta
                    if not 0 <= rung < len(ladders[axis]):
                        continue
                    candidate = (coordinate[:axis] + (rung,)
                                 + coordinate[axis + 1:])
                    if candidate not in evaluated:
                        neighbours.add(candidate)
        frontier = sorted(neighbours)

    ordered = [evaluated[coordinate] for coordinate in sorted(evaluated)]
    cells_out = [{"index": position, **entry}
                 for position, entry in enumerate(ordered)]
    return {
        "schema": SEARCH_SCHEMA,
        "name": spec.name,
        "base_spec": spec.base.to_dict(),
        "axes": {path: list(ladder) for path, ladder in axes},
        "metric": spec.metric,
        "threshold": spec.threshold,
        "initial_step": spec.initial_step,
        "rounds": spec.rounds,
        "max_cells": spec.max_cells,
        "truncated": truncated,
        "cells": cells_out,
        "collapse_cells": [entry["index"] for entry in cells_out
                           if entry["collapsed"]],
    }


def search_to_json(document: Mapping[str, Any]) -> str:
    """The canonical JSON text of a search document (byte-deterministic)."""
    return document_json(document) + "\n"


def write_search(document: Mapping[str, Any], path: str) -> None:
    """Write the canonical search document to a JSON file."""
    with open(path, "w") as handle:
        handle.write(search_to_json(document))


def search_provenance(executor: SweepRunner,
                      document: Mapping[str, Any]) -> Dict[str, Any]:
    """The execution-dependent sidecar record for one search run."""
    from repro.experiments.sweep import PROVENANCE_SCHEMA

    return {
        "schema": PROVENANCE_SCHEMA,
        "mode": "redteam",
        "workers": executor.workers,
        "root_seed": document.get("base_spec", {}).get("seed"),
        "cache": executor.cache_stats(),
        "wall_seconds": executor.wall_seconds,
    }
