"""Adversarial red-team search and verified minimal policy repair.

The paper's security analysis (Sections II-E and III-B) asks how AITF
degrades under adversaries that do more than flood: forged filtering
requests, filter-table exhaustion, on-off evasion, compromised on-path
routers.  This package turns that question into a closed loop:

:mod:`repro.redteam.spec`
    ``redteam_spec/v1`` — a committed file naming the base experiment, the
    attack-parameter *ladders* to search, the collapse threshold, and a
    cost-ordered menu of candidate repairs.

:mod:`repro.redteam.search`
    Seeded successive-refinement over the attack ladders: coarse cartesian
    probe first, then ladder-adjacent neighbours of every collapse cell.
    Emits a ``redteam_search/v1`` document of cells whose goodput fell
    below the threshold.

:mod:`repro.redteam.repair`
    For each collapse cell, tries the repair candidates cheapest-first and
    verifies — by re-running the cell's exact seed with the delta applied —
    the cheapest one that restores goodput.  Emits ``repair_report/v1``
    stamped with a canonical run-hash so CI can replay it byte-for-byte.

Every cell is executed through one
:class:`~repro.experiments.sweep.SweepRunner` — serial or process pool,
optionally fronted by the content-addressed
:class:`~repro.cluster.cache.CellCache` — so the loop is bit-deterministic
across worker counts and a ``verify`` replay is served almost entirely from
cache.  The runner's running hit/miss/wall totals feed the provenance
sidecars, never the canonical documents.
"""

from repro.redteam.repair import (
    REPAIR_SCHEMA,
    report_run_hash,
    run_repair,
    verify_replay,
    write_report,
)
from repro.redteam.search import SEARCH_SCHEMA, run_search, write_search
from repro.redteam.spec import REDTEAM_SPEC_SCHEMA, RedTeamSpec, RepairCandidate

__all__ = [
    "REDTEAM_SPEC_SCHEMA",
    "REPAIR_SCHEMA",
    "RedTeamSpec",
    "RepairCandidate",
    "SEARCH_SCHEMA",
    "report_run_hash",
    "run_repair",
    "run_search",
    "verify_replay",
    "write_report",
    "write_search",
]
