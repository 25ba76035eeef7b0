"""The sweep progress plane: per-cell status lines and provenance summaries.

Sweeps already record exactly what happened — mode, workers, per-cell
wall-clock and cache hits — in their ``*.provenance.json`` sidecars (kept
out of the canonical sweep document so results stay byte-identical across
execution modes).  This module turns that data into the live progress lines
``repro sweep`` / ``repro paper`` log as cells land, and into one-line
summaries for finished runs, so nobody has to read a sidecar by hand.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.obs.logsetup import get_logger

logger = get_logger("progress")


def format_cell_line(index: int, total: int, spec_hash: str,
                     wall_seconds: Optional[float] = None,
                     cached: bool = False,
                     label: Optional[str] = None) -> str:
    """One live progress line for a finished sweep cell."""
    width = len(str(total))
    parts = [f"cell {index + 1:>{width}}/{total}", spec_hash[:12]]
    if label:
        parts.append(label)
    if wall_seconds is not None:
        parts.append(f"{wall_seconds:.2f}s")
    if cached:
        parts.append("(cached)")
    return "  ".join(parts)


def log_cell_progress(info: Mapping[str, Any]) -> None:
    """Sweep progress callback: one INFO line per finished cell, whichever
    executor finished it (see :class:`repro.experiments.sweep.CellResolver`)."""
    logger.info("%s", format_cell_line(
        info["position"], info["total"], info["spec_hash"],
        wall_seconds=info.get("wall_seconds"),
        cached=bool(info.get("cached"))))


def provenance_summary(provenance: Mapping[str, Any]) -> str:
    """One line summarising a sweep's provenance sidecar."""
    cells = provenance.get("cells", [])
    cache: Dict[str, Any] = provenance.get("cache", {}) or {}
    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    parts = [f"{len(cells)} cells"]
    mode = provenance.get("mode")
    if mode:
        workers = provenance.get("workers")
        parts.append(f"mode={mode}" + (f" workers={workers}"
                                       if workers else ""))
    wall = provenance.get("wall_seconds")
    if wall is not None:
        parts.append(f"wall={float(wall):.2f}s")
    if hits or misses:
        total = hits + misses
        parts.append(f"cache {hits}/{total} hits")
    if provenance.get("resumed"):
        parts.append("resumed")
    slow = _slowest_cell(provenance)
    if slow is not None:
        parts.append(f"slowest cell {slow['index']} "
                     f"{float(slow.get('wall_seconds', 0.0)):.2f}s")
    return ", ".join(parts)


def _slowest_cell(provenance: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    cells = [cell for cell in provenance.get("cells", [])
             if cell.get("wall_seconds") is not None and not cell.get("cached")]
    if not cells:
        return None
    return max(cells, key=lambda cell: cell["wall_seconds"])
