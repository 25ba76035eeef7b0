"""The path -> layer map, and the fold of a cProfile run onto it.

Layers are the boxes of ``docs/architecture.md``.  Every package and
top-level module under ``src/repro/`` must appear in :data:`PACKAGE_LAYER`;
``bench/test_bench_contract.py`` fails when one is missing, so a new
package cannot fall silently into ``py``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

#: Layers the benchmark reports, in architecture order (bottom up), plus
#: ``other`` for the packages it leaves out of scope.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "router", "core", "baselines", "attacks", "topology",
    "routing_policy", "faults", "experiments", "cluster", "obs", "analysis",
    "other",
)

#: First path component under ``src/repro/`` (package directory or module
#: file stem) -> layer.
PACKAGE_LAYER: Dict[str, str] = {
    "sim": "sim",
    "net": "net",
    "router": "router",
    "core": "core",
    "baselines": "baselines",
    "attacks": "attacks",
    "topology": "topology",
    "routing_policy": "routing_policy",
    "faults": "faults",
    "experiments": "experiments",
    "cluster": "cluster",
    "obs": "obs",
    "analysis": "analysis",
    # Out of scope for this benchmark (see bench/README.md).
    "shard": "other",
    "redteam": "other",
    "scenarios": "other",
    "contracts": "other",
    "traceback": "other",
    "perf": "other",
    "cli": "other",
    "paper": "other",
    "__init__": "other",
    "__main__": "other",
}

#: Buckets outside ``repro``; with the layers they partition a profile.
PY_BUILTIN = "py.builtin"      # C functions and methods
PY_OTHER = "py.other"          # stdlib, other site-packages, this harness
DEP_NETWORKX = "dep.networkx"

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_NETWORKX_MARK = os.sep + "networkx" + os.sep


def repro_component(path: str) -> Optional[str]:
    """``sim`` for ``.../src/repro/sim/engine.py``, ``faults`` for
    ``.../src/repro/faults.py``; None outside ``src/repro``."""
    index = path.rfind(_REPRO_MARK)
    if index < 0:
        return None
    head = path[index + len(_REPRO_MARK):].split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


def bucket_of(path: str) -> str:
    """The bucket one profile entry's file belongs to."""
    if path == "~" or path.startswith("<"):
        return PY_BUILTIN
    component = repro_component(path)
    if component is not None:
        return PACKAGE_LAYER[component]
    if _NETWORKX_MARK in path:
        return DEP_NETWORKX
    return PY_OTHER


def fold(stats: Mapping[Tuple[str, int, str], Tuple[Any, ...]]
         ) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into ``bucket -> {self_s, calls}``.

    ``self_s`` sums ``tottime`` and ``calls`` sums primitive calls, so the
    buckets partition the profiled total exactly.
    """
    buckets = (*LAYERS, PY_BUILTIN, PY_OTHER, DEP_NETWORKX)
    folded = {bucket: {"self_s": 0.0, "calls": 0} for bucket in buckets}
    for (path, _line, _name), (primitive, _total, tottime, _cum, _callers) \
            in stats.items():
        entry = folded[bucket_of(path)]
        entry["self_s"] += tottime
        entry["calls"] += primitive
    return folded


def cumulative(stats: Mapping[Tuple[str, int, str], Tuple[Any, ...]],
               path_suffix: str, names: Iterable[str]) -> float:
    """Summed cumulative time of the functions called ``names`` in the file
    ending ``path_suffix`` (a path relative to ``src/repro``)."""
    wanted = set(names)
    suffix = _REPRO_MARK + path_suffix.replace("/", os.sep)
    return sum(entry[3] for (path, _line, name), entry in stats.items()
               if name in wanted and path.endswith(suffix))
