"""Cross-shard rules: how one statistic measured by several shards combines.

A sharded run (:mod:`repro.shard`) measures one experiment in several
worker processes, each with the serial ``ExperimentExecution.measure``
after running only the traffic of the nodes it owns.  Every statistic
names its rule in ``shard_rules`` next to the code that reports it (a
defense backend's ``collect()``, a workload handle's ``stats()``), and
:func:`combine_stats` refuses one that names none rather than copy some
shard's value.

A rule is a function of the per-shard values, shard 0 first: ``sum`` for
what is counted where it happened (a node's traffic runs on its owner's
shard only, so the shards' counts partition the serial count), ``max``
for a high-water mark, or one of the functions below.  A :class:`Derived`
rule recomputes a value from the other combined ones.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Sequence


def owns_everything(node: str) -> bool:
    """The ownership predicate of a serial run: one process runs every node."""
    return True


def shared(values: List[Any]) -> Any:
    """Configuration, or time-triggered state every shard holds alike."""
    if any(value != values[0] for value in values[1:]):
        raise ValueError(f"declared shared, but the shards differ: {values!r}")
    return values[0]


def victim(values: List[Any]) -> Any:
    """Measured at the victim or its gateway, which shard 0 always holds."""
    return values[0]


def earliest(values: List[Any]) -> Any:
    """The first time any shard saw it (None when none did)."""
    return min((value for value in values if value is not None), default=None)


def owned(values: List[Any]) -> Any:
    """Measured by the one shard that owns it; the others report None."""
    return next((value for value in values if value is not None), None)


class Derived:
    """A value recomputed from the other combined statistics."""

    def __init__(self, compute: Callable[[Mapping[str, Any]], Any]) -> None:
        self.compute = compute


def combine_stats(rules: Mapping[str, Any],
                  per_shard: Sequence[Mapping[str, Any]],
                  what: str) -> Dict[str, Any]:
    """One stats dict from per-shard ones, in the key order shard 0 reported.

    Raises ValueError, naming ``what``, for keys without a rule and for a
    ``shared`` key whose shards disagree.
    """
    missing = [key for key in per_shard[0] if key not in rules]
    if missing:
        raise ValueError(
            f"{what}: no cross-shard rule for {', '.join(missing)}; declare "
            "one in shard_rules beside the code that reports it")
    combined: Dict[str, Any] = {}
    for key in per_shard[0]:
        try:
            combined[key] = (None if isinstance(rules[key], Derived) else
                             rules[key]([stats[key] for stats in per_shard]))
        except ValueError as exc:
            raise ValueError(f"{what} {key!r}: {exc}") from None
    for key, rule in rules.items():
        if isinstance(rule, Derived) and key in combined:
            combined[key] = rule.compute(combined)
    return combined
