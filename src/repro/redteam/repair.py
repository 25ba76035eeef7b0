"""Minimal verified repair: cheapest config delta that restores goodput.

For every collapse cell in a ``redteam_search/v1`` document, the repair
engine walks the spec's repair menu in ``(cost, name)`` order and re-runs
the cell with each candidate's overrides applied — keeping the *cell's own
seed*, so collapse and repair are a paired comparison and the only thing
that changed is the configuration delta.  The first candidate whose metric
clears the threshold is the verified minimal repair; the full trial trail
(including candidates that verifiably failed to repair) is recorded, so
"minimal" is auditable rather than asserted.

The emitted ``repair_report/v1`` document is canonical (nothing
execution-dependent inside) and is stamped with a *run-hash*: the SHA-256
of its own canonical JSON minus the hash field.  ``repro redteam verify``
replays search + repair from the same spec and compares run-hashes and
bytes — and because every cell resolves through the content-addressed
:class:`~repro.cluster.cache.CellCache`, an honest replay on an unchanged
checkout is served almost entirely from cache.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional

from repro.experiments.sweep import SweepCell, SweepRunner
from repro.obs.logsetup import get_logger
from repro.redteam.search import (
    SEARCH_SCHEMA,
    metric_value,
    run_search,
    search_to_json,
)
from repro.redteam.spec import RedTeamSpec

logger = get_logger("redteam.repair")

#: Version tag written into repair reports.
REPAIR_SCHEMA = "repair_report/v1"


def report_run_hash(report: Mapping[str, Any]) -> str:
    """The canonical run-hash of a repair report (hash field excluded)."""
    body = {key: value for key, value in report.items() if key != "run_hash"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_repair(spec: RedTeamSpec, search_document: Mapping[str, Any], *,
               executor: SweepRunner) -> Dict[str, Any]:
    """Repair every collapse cell of ``search_document``; returns the
    ``repair_report/v1`` document, run-hash stamped."""
    if search_document.get("schema") != SEARCH_SCHEMA:
        raise ValueError(
            f"repair needs a {SEARCH_SCHEMA!r} document, got "
            f"{search_document.get('schema')!r}")
    if not spec.repairs:
        raise ValueError("red-team spec commits no repair candidates")
    metric = str(search_document.get("metric", spec.metric))
    threshold = float(search_document.get("threshold", spec.threshold))
    candidates = sorted(spec.repairs, key=lambda c: (c.cost, c.name))

    cells = {cell["index"]: cell for cell in search_document.get("cells", [])}
    entries: List[Dict[str, Any]] = []
    for cell_index in search_document.get("collapse_cells", []):
        cell = cells[cell_index]
        trials: List[Dict[str, Any]] = []
        chosen: Optional[Dict[str, Any]] = None
        for candidate in candidates:
            # Candidate overrides are applied on top of the cell's attack
            # overrides, with the cell's derived seed pinned: the repaired
            # run differs from the collapsed one only by the delta.
            overrides = {**cell["overrides"], **candidate.overrides,
                         "seed": cell["seed"]}
            repaired = SweepCell(
                index=0, overrides=overrides,
                spec=spec.base.with_overrides(overrides))
            result = executor.run_cells([repaired]).cells[0]["result"]
            value = metric_value(result, metric)
            restored = value >= threshold
            trials.append({
                "name": candidate.name,
                "cost": candidate.cost,
                "overrides": dict(candidate.overrides),
                "value": value,
                "restored": restored,
            })
            if restored:
                chosen = trials[-1]
                break
        if chosen is None:
            logger.warning(
                "no committed repair restores cell %d (%s); cheapest trial "
                "reached %s < %s", cell_index, cell["overrides"],
                max((t["value"] for t in trials), default=None), threshold)
        entries.append({
            "cell_index": cell_index,
            "overrides": dict(cell["overrides"]),
            "seed": cell["seed"],
            "collapsed_value": cell["value"],
            "trials": trials,
            "repair": chosen,
        })

    report: Dict[str, Any] = {
        "schema": REPAIR_SCHEMA,
        "name": spec.name,
        "base_spec": spec.base.to_dict(),
        "metric": metric,
        "threshold": threshold,
        "candidates": [candidate.to_dict() for candidate in candidates],
        "collapse_cells": list(search_document.get("collapse_cells", [])),
        "repairs": entries,
    }
    report["run_hash"] = report_run_hash(report)
    return report


def report_to_json(report: Mapping[str, Any]) -> str:
    """The canonical JSON text of a repair report (byte-deterministic)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: Mapping[str, Any], path: str) -> None:
    """Write the repair report to a JSON file."""
    with open(path, "w") as handle:
        handle.write(report_to_json(report))


def verify_replay(spec: RedTeamSpec, search_document: Mapping[str, Any],
                  report: Mapping[str, Any], *,
                  executor: SweepRunner) -> Dict[str, Any]:
    """Replay search + repair and compare against recorded documents.

    Returns a verdict dict: per-document byte/hash matches, the replayed
    run-hash, and the executor's cache statistics (an unchanged checkout
    replays almost entirely from cache).  The recorded report's own
    ``run_hash`` stamp is also re-derived from its body, so a hand-edited
    report fails verification even if the replay would match.
    """
    replayed_search = run_search(spec, executor=executor)
    replayed_report = run_repair(spec, replayed_search, executor=executor)
    search_match = (search_to_json(replayed_search)
                    == search_to_json(search_document))
    stamp_valid = report.get("run_hash") == report_run_hash(report)
    repair_match = (stamp_valid
                    and replayed_report["run_hash"] == report.get("run_hash"))
    stats = executor.cache_stats()
    total = stats["hits"] + stats["misses"]
    return {
        "search_match": search_match,
        "repair_match": repair_match,
        "stamp_valid": stamp_valid,
        "run_hash": replayed_report["run_hash"],
        "recorded_run_hash": report.get("run_hash"),
        "cache": stats,
        "hit_rate": (stats["hits"] / total) if total else 1.0,
        "verified": search_match and repair_match,
    }
