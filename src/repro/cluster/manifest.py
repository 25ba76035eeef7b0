"""The durable record of what a cluster sweep *is*.

``run.json`` in the cluster directory pins the sweep's identity: the base
spec, the grid, the reseed policy, and every expanded cell as the record
:meth:`repro.experiments.sweep.SweepCell.to_dict` renders (index,
overrides, seed, concrete spec, content hash).  It is the *only*
description of a cell: queue tasks are empty markers named after a
position in ``cells`` (:func:`cell_name`), and workers, the coordinator
and the merge all read the cell from here.  It is written once when the
sweep is submitted, and ``--resume`` validates against it so a coordinator
restarted with a *different* grid fails loudly instead of silently merging
two different experiments into one document.

The manifest deliberately stores the fully expanded cells rather than
re-deriving them on resume: a resumed run must finish exactly the cells the
original run started, even if the expansion code changes between versions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.cluster.fsqueue import read_json, write_json_atomic
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import expand_grid

#: Version tag written into run manifests.
MANIFEST_SCHEMA = "sweep_run/v1"


@dataclass
class RunManifest:
    """The submitted sweep: base spec, grid, and every expanded cell."""

    base_spec: Dict[str, Any]
    grid: Dict[str, List[Any]]
    reseed: bool
    cells: List[Dict[str, Any]] = field(default_factory=list)
    schema: str = MANIFEST_SCHEMA

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, base: ExperimentSpec, grid: Mapping[str, Sequence[Any]],
              *, reseed: bool = True) -> "RunManifest":
        """Expand ``grid`` over ``base`` into a manifest (pure; shares
        :func:`repro.experiments.sweep.expand_grid` with the local path)."""
        return cls(
            base_spec=base.to_dict(),
            grid={key: list(values) for key, values in grid.items()},
            reseed=reseed,
            cells=[cell.to_dict()
                   for cell in expand_grid(base, grid, reseed=reseed)],
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "base_spec": self.base_spec,
            "grid": self.grid,
            "reseed": self.reseed,
            "cells": self.cells,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        schema = data.get("schema", MANIFEST_SCHEMA)
        if schema != MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported run manifest schema {schema!r} "
                f"(this build reads {MANIFEST_SCHEMA!r})")
        return cls(base_spec=dict(data["base_spec"]),
                   grid={k: list(v) for k, v in data["grid"].items()},
                   reseed=bool(data.get("reseed", True)),
                   cells=[dict(cell) for cell in data["cells"]])

    @classmethod
    def path_in(cls, cluster_dir: str) -> str:
        return os.path.join(cluster_dir, "run.json")

    @classmethod
    def load(cls, cluster_dir: str) -> Optional["RunManifest"]:
        """The manifest in ``cluster_dir``, or ``None`` if none was
        submitted yet (workers poll on this)."""
        data = read_json(cls.path_in(cluster_dir))
        return None if data is None else cls.from_dict(data)

    def save(self, cluster_dir: str, tmp_dir: str) -> None:
        write_json_atomic(self.path_in(cluster_dir), self.to_dict(), tmp_dir)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def describes(self, base: ExperimentSpec,
                  grid: Mapping[str, Sequence[Any]], *, reseed: bool = True) -> bool:
        """Whether a submission of ``base`` x ``grid`` is this same sweep
        (resume validation) — decided without expanding the grid."""
        return identity_json(self.base_spec, self.grid, self.reseed) == \
            identity_json(base.to_dict(), grid, reseed)

    def __len__(self) -> int:
        return len(self.cells)


def identity_json(base_spec: Mapping[str, Any],
                   grid: Mapping[str, Sequence[Any]], reseed: bool) -> str:
    """Canonical text of what makes two submissions the same sweep."""
    return json.dumps(
        {"base_spec": base_spec,
         "grid": {key: list(values) for key, values in grid.items()},
         "reseed": reseed},
        sort_keys=True, separators=(",", ":"))


def cell_name(position: int) -> str:
    """Queue marker name for the cell at ``position`` of the manifest
    (zero-padded so listings sort); ``int(name)`` is the way back."""
    return f"{position:05d}"
