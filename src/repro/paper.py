"""One-command paper reproduction: run every committed grid, emit figures.

``repro paper`` walks the sweep-request files under ``examples/specs/grids/``
(E2–E5 resource grids, the on-off evasion grid, the power-law scaling grid),
executes each one — serially, on a process pool (``--workers``), or over a
shared cluster directory (``--cluster``) — and renders the results into a
self-contained output tree::

    paper_results/
      index.md                   # figure gallery + per-grid tables
      sweeps/<grid>.json         # canonical sweep documents
      sweeps/<grid>.provenance.json
      reports/<grid>.md          # markdown tables
      reports/<grid>.csv
      figures/<grid>--<figure>.svg

Every byte except the provenance sidecars is a pure function of the
committed grid files: the sweep documents are canonical
(execution-independent, see :mod:`repro.experiments.sweep`) and the figures
are rendered deterministically from them — so two runs with different worker
counts, or one run on the cluster path, produce identical trees.  The
paper-grid CI job diffs exactly that.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.figures import default_figures, render_figures
from repro.analysis.sweep_report import render_csv, render_markdown
from repro.experiments.request import (
    SweepRequest,
    load_sweep_request,
    resolve_request,
)
from repro.experiments.sweep import SweepResult, SweepRunner
from repro.obs.logsetup import get_logger
from repro.obs.progress import log_cell_progress, provenance_summary

logger = get_logger("paper")

#: Default location of the committed paper grids, relative to the repo root.
DEFAULT_GRIDS_DIR = os.path.join("examples", "specs", "grids")


@dataclass
class GridRunSummary:
    """What one grid contributed to the reproduction tree."""

    name: str
    cells: int
    axes: List[str]
    sweep_path: str
    report_path: str
    csv_path: str
    figure_paths: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_hits: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "cells": self.cells, "axes": self.axes,
            "sweep": self.sweep_path, "report": self.report_path,
            "csv": self.csv_path, "figures": self.figure_paths,
            "wall_seconds": self.wall_seconds, "cache_hits": self.cache_hits,
        }


def discover_grids(grids_dir: str) -> List[str]:
    """The committed grid files, in sorted (stable) order."""
    paths = sorted(glob.glob(os.path.join(grids_dir, "*.json")))
    if not paths:
        raise ValueError(f"no grid files (*.json) found under {grids_dir!r}")
    return paths


def _execute_request(request: SweepRequest, *, workers: int,
                     cluster_dir: Optional[str],
                     timeout: Optional[float]) -> SweepResult:
    if cluster_dir:
        from repro.cluster import SweepCoordinator

        return SweepCoordinator(
            os.path.join(cluster_dir, request.name),
            progress=log_cell_progress).run_grid(
                request.base, request.grid, reseed=request.reseed,
                resume=True, timeout=timeout)
    return SweepRunner(workers=workers, progress=log_cell_progress).run_grid(
        request.base, request.grid, reseed=request.reseed)


def run_grid(path: str, output_dir: str, *, quick: bool = False,
             workers: int = 1, cluster_dir: Optional[str] = None,
             renderer: str = "builtin",
             timeout: Optional[float] = None) -> GridRunSummary:
    """Execute one grid file and write its sweep/report/figure outputs."""
    request = resolve_request(load_sweep_request(path), quick=quick,
                              source=path)
    start = time.perf_counter()
    sweep = _execute_request(request, workers=workers,
                             cluster_dir=cluster_dir, timeout=timeout)
    wall = time.perf_counter() - start
    logger.info("grid %s: %s", request.name,
                provenance_summary(sweep.provenance))

    sweeps_dir = os.path.join(output_dir, "sweeps")
    reports_dir = os.path.join(output_dir, "reports")
    figures_dir = os.path.join(output_dir, "figures")
    for directory in (sweeps_dir, reports_dir, figures_dir):
        os.makedirs(directory, exist_ok=True)

    sweep_path = os.path.join(sweeps_dir, f"{request.name}.json")
    sweep.write(sweep_path)
    sweep.write_provenance(os.path.join(sweeps_dir,
                                        f"{request.name}.provenance.json"))
    doc = sweep.to_dict()

    report_path = os.path.join(reports_dir, f"{request.name}.md")
    with open(report_path, "w") as handle:
        handle.write(render_markdown(doc, source=f"sweeps/{request.name}.json"))
    csv_path = os.path.join(reports_dir, f"{request.name}.csv")
    with open(csv_path, "w") as handle:
        handle.write(render_csv(doc))

    figures = request.figures or default_figures(doc)
    figure_paths = render_figures(doc, figures, figures_dir,
                                  renderer=renderer,
                                  prefix=f"{request.name}--")

    cache = sweep.provenance.get("cache", {})
    return GridRunSummary(
        name=request.name,
        cells=len(sweep.cells),
        axes=list(request.grid),
        sweep_path=sweep_path,
        report_path=report_path,
        csv_path=csv_path,
        figure_paths=figure_paths,
        wall_seconds=wall,
        cache_hits=int(cache.get("hits", 0)),
    )


def write_gallery(output_dir: str,
                  summaries: List[GridRunSummary], *, quick: bool) -> str:
    """The ``index.md`` gallery tying figures, tables and documents together.

    Content is a pure function of the grid outputs (no timing, no worker
    counts), so the gallery participates in the byte-determinism gate.
    """
    lines = [
        "# Paper reproduction gallery",
        "",
        f"Variant: {'quick (CI-sized grids)' if quick else 'full paper grids'}."
        "  Regenerate with `python -m repro paper"
        f"{' --quick' if quick else ''}`.",
        "",
    ]
    for summary in summaries:
        lines += [f"## {summary.name}", ""]
        lines += [f"{summary.cells} cells over axes: "
                  f"{', '.join(f'`{axis}`' for axis in summary.axes)}.", ""]
        for figure_path in summary.figure_paths:
            relative = os.path.relpath(figure_path, output_dir)
            caption = os.path.splitext(os.path.basename(figure_path))[0]
            lines += [f"![{caption}]({relative})", ""]
        sweep_rel = os.path.relpath(summary.sweep_path, output_dir)
        report_rel = os.path.relpath(summary.report_path, output_dir)
        csv_rel = os.path.relpath(summary.csv_path, output_dir)
        lines += [f"Tables: [{report_rel}]({report_rel}) · "
                  f"CSV: [{csv_rel}]({csv_rel}) · "
                  f"sweep document: [{sweep_rel}]({sweep_rel})", ""]
    text = "\n".join(lines).rstrip() + "\n"
    path = os.path.join(output_dir, "index.md")
    os.makedirs(output_dir, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def run_paper(*, grids_dir: str = DEFAULT_GRIDS_DIR,
              output_dir: str = "paper_results", quick: bool = False,
              workers: int = 1, cluster_dir: Optional[str] = None,
              renderer: str = "builtin",
              timeout: Optional[float] = None) -> Dict[str, Any]:
    """Run every committed grid and assemble the reproduction tree."""
    summaries = [
        run_grid(path, output_dir, quick=quick, workers=workers,
                 cluster_dir=cluster_dir, renderer=renderer, timeout=timeout)
        for path in discover_grids(grids_dir)
    ]
    gallery = write_gallery(output_dir, summaries, quick=quick)
    return {
        "output_dir": output_dir,
        "gallery": gallery,
        "quick": quick,
        "grids": [summary.to_dict() for summary in summaries],
    }
