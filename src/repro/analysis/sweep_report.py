"""Render experiment JSON documents into paper-style tables.

``repro sweep`` and ``repro compare`` emit machine-readable JSON; this
module turns those documents back into the tables a paper (or a README)
wants — markdown for humans, CSV for plotting pipelines — through the same
:class:`repro.analysis.report.ResultTable` every CLI table already uses.

Sweep documents are grouped by their sweep axes: with more than one axis,
each combination of the leading axes gets its own table and the final axis
varies down the rows — the layout of the paper's evaluation tables (one
table per defense, rows over attack rate, and so on).  Compare documents
(a list of ``experiment_result/v1``) become one paired-comparison table;
a single result becomes a metric/value table.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.figures import lookup_path
from repro.analysis.report import (
    ResultTable,
    format_bps,
    format_ratio,
    format_seconds,
)

#: Result metrics shown in rendered tables: (column header, result key,
#: formatter).  Keys may be dotted paths into nested result dicts
#: (``defense_stats.deployment_locus``); keys absent from a document — old
#: sweeps predate some fields — render as "-".
_METRIC_COLUMNS: Tuple[Tuple[str, str, Any], ...] = (
    ("attack@victim", "attack_received_bps", format_bps),
    ("ratio", "effective_bandwidth_ratio", format_ratio),
    ("legit goodput", "legit_goodput_bps", format_bps),
    ("first block", "time_to_first_block",
     lambda v: format_seconds(v) if v is not None else "never"),
    ("nodes", "nodes_involved", str),
    ("ctrl msgs", "control_messages", str),
    ("dropped down", "packets_dropped_down",
     lambda v: "-" if v is None else str(v)),
    ("deploy locus", "defense_stats.deployment_locus",
     lambda v: "-" if v is None else str(v)),
)


def axis_value(overrides: Dict[str, Any], axis: str, default: Any = None) -> Any:
    """The value one cell holds on a grid axis.

    Compound axes (comma-joined paths, see
    :func:`repro.experiments.sweep.axis_paths`) are stored per-path in the
    cell's overrides; they render as "v1 / v2 / ..." so the table stays one
    column per axis.
    """
    if axis in overrides:
        return overrides[axis]
    from repro.experiments.sweep import axis_paths

    paths = axis_paths(axis)
    if len(paths) > 1 and all(path in overrides for path in paths):
        return " / ".join(str(overrides[path]) for path in paths)
    return default


def load_document(path: str) -> Any:
    """Read a sweep / compare / result JSON document from disk."""
    with open(path) as handle:
        return json.load(handle)


def document_kind(doc: Any) -> str:
    """``sweep``, ``compare`` or ``result`` — raises on anything else."""
    if isinstance(doc, dict) and doc.get("schema") == "experiment_sweep/v1":
        return "sweep"
    if isinstance(doc, dict) and doc.get("schema") == "experiment_result/v1":
        return "result"
    if (isinstance(doc, list) and doc
            and all(isinstance(r, dict) and r.get("schema") == "experiment_result/v1"
                    for r in doc)):
        return "compare"
    raise ValueError(
        "unrecognised document: expected an experiment_sweep/v1 dict, an "
        "experiment_result/v1 dict, or a list of experiment_result/v1 dicts")


# ----------------------------------------------------------------------
# table builders
# ----------------------------------------------------------------------
def sweep_tables(doc: Dict[str, Any]) -> List[ResultTable]:
    """Paper-style tables for a sweep document, grouped by leading axes."""
    axes = list(doc.get("grid", {}))
    cells = doc.get("cells", [])
    group_axes, row_axis = (axes[:-1], axes[-1]) if len(axes) > 1 else ([], None)
    groups: Dict[str, List[Dict[str, Any]]] = {}
    titles: Dict[str, str] = {}
    for cell in cells:
        overrides = cell.get("overrides", {})
        fixed = [(axis, axis_value(overrides, axis)) for axis in group_axes]
        key = json.dumps(fixed)
        titles.setdefault(key, ", ".join(f"{a} = {v}" for a, v in fixed) or "sweep")
        groups.setdefault(key, []).append(cell)
    tables: List[ResultTable] = []
    row_label = row_axis if row_axis is not None else (axes[0] if axes else "cell")
    for key, group in groups.items():
        table = ResultTable(titles[key],
                            [row_label, "seed",
                             *(name for name, _, _ in _METRIC_COLUMNS)])
        for cell in group:
            overrides = cell.get("overrides", {})
            result = cell.get("result", {})
            table.add_row(
                axis_value(overrides, row_label, cell.get("index", "-")),
                cell.get("seed", "-"),
                *(fmt(lookup_path(result, field))
                  for _, field, fmt in _METRIC_COLUMNS),
            )
        tables.append(table)
    return tables


def sweep_flat_table(doc: Dict[str, Any]) -> ResultTable:
    """One flat row per cell with raw metric values (the CSV shape)."""
    axes = list(doc.get("grid", {}))
    table = ResultTable(
        "sweep cells",
        ["index", *axes, "seed",
         *(field for _, field, _ in _METRIC_COLUMNS)])
    for cell in doc.get("cells", []):
        overrides = cell.get("overrides", {})
        result = cell.get("result", {})
        metrics = [lookup_path(result, field)
                   for _, field, _ in _METRIC_COLUMNS]
        table.add_row(
            cell.get("index", ""),
            *(axis_value(overrides, axis, "") for axis in axes),
            cell.get("seed", ""),
            *("" if value is None else value for value in metrics),
        )
    return table


def compare_table(results: Sequence[Dict[str, Any]]) -> ResultTable:
    """The paired defense-comparison table for ``repro compare --json`` output."""
    table = ResultTable(
        "Defense comparison",
        ["defense", "seed", *(name for name, _, _ in _METRIC_COLUMNS)])
    for result in results:
        table.add_row(
            result.get("defense", "?"), result.get("seed", "-"),
            *(fmt(lookup_path(result, field))
              for _, field, fmt in _METRIC_COLUMNS),
        )
    return table


def result_table(result: Dict[str, Any]) -> ResultTable:
    """A metric/value table for one ``experiment_result/v1`` document."""
    table = ResultTable(
        f"Experiment: {result.get('name', '?')} [{result.get('defense', '?')}]",
        ["metric", "value"])
    table.add_row("topology", result.get("topology", "?"))
    table.add_row("seed", result.get("seed", "-"))
    table.add_row("duration", format_seconds(result.get("duration", 0.0)))
    for name, field, fmt in _METRIC_COLUMNS:
        table.add_row(name, fmt(lookup_path(result, field)))
    return table


def document_tables(doc: Any) -> List[ResultTable]:
    """The rendered tables for any recognised document."""
    kind = document_kind(doc)
    if kind == "sweep":
        return sweep_tables(doc)
    if kind == "compare":
        return [compare_table(doc)]
    return [result_table(doc)]


# ----------------------------------------------------------------------
# whole-report rendering
# ----------------------------------------------------------------------
def render_markdown(doc: Any, *, source: str = "",
                    provenance: Optional[Dict[str, Any]] = None) -> str:
    """The full markdown report for a document (plus optional provenance)."""
    kind = document_kind(doc)
    lines = [f"# repro report — {kind}", ""]
    if source:
        lines += [f"Source: `{source}`", ""]
    if kind == "sweep":
        axes = list(doc.get("grid", {}))
        lines += [f"{len(doc.get('cells', []))} cells over "
                  f"{len(axes)} axis(es): {', '.join(axes) or '(none)'}", ""]
    for table in document_tables(doc):
        lines += [table.render_markdown(), ""]
    if provenance:
        lines += ["## Provenance", ""]
        cache = provenance.get("cache", {})
        workers = provenance.get("workers")
        if isinstance(workers, (list, tuple)):
            # Cluster provenance lists worker identities; local records a count.
            workers = ", ".join(workers) or "none"
        for label, value in (
            ("mode", provenance.get("mode")),
            ("root seed", provenance.get("root_seed")),
            ("workers", workers),
            ("cache hits / misses",
             f"{cache.get('hits', '?')} / {cache.get('misses', '?')}"),
            ("resumed", provenance.get("resumed")),
            ("wall clock", format_seconds(provenance["wall_seconds"])
             if provenance.get("wall_seconds") is not None else None),
        ):
            if value is not None:
                lines.append(f"- **{label}**: {value}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_csv(doc: Any) -> str:
    """The CSV rendition of a document (flat raw values for sweeps)."""
    kind = document_kind(doc)
    if kind == "sweep":
        return sweep_flat_table(doc).to_csv()
    if kind == "compare":
        return compare_table(doc).to_csv()
    return result_table(doc).to_csv()
