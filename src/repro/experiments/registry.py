"""Named registries behind the declarative experiment surface.

Topologies, defense backends and workloads are all looked up by name from an
:class:`ExperimentSpec`, so adding a new one is one ``register`` call — no
CLI or runner changes.  Lookup errors spell out the available names because
the most common failure mode is a typo in a spec file.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, FrozenSet, Generic, Iterator, List, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """A name -> factory mapping with helpful unknown-name errors.

    Each entry declares its parameters once: the keyword-only arguments of
    its builder, or of the function ``declared_by`` returns for an entry
    that forwards ``**params`` (a thunk, so a module is imported only when
    a spec names the entry).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        self._declared_by: Dict[str, Callable[[], Any]] = {}
        self._parameters: Dict[str, FrozenSet[str]] = {}

    def register(self, name: str, value: T = None, *,
                 declared_by: Callable[[], Any] = None) -> Callable[[T], T]:
        """Register ``value`` under ``name``; usable as a decorator.

        Re-registering a name is an error: silently shadowing a backend would
        make two specs with the same text mean different experiments.
        """
        def _add(entry: T) -> T:
            if name in self._entries:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._entries[name] = entry
            self._declared_by[name] = declared_by or (lambda: entry)
            return entry

        if value is not None:
            return _add(value)
        return _add

    def get(self, name: str) -> T:
        """The entry registered under ``name`` (ValueError with choices when absent)."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            ) from None

    def parameters(self, name: str) -> FrozenSet[str]:
        """The parameter names entry ``name`` declares, worked out once."""
        if name not in self._parameters:
            self.get(name)
            signature = inspect.signature(self._declared_by[name]())
            self._parameters[name] = frozenset(
                key for key, parameter in signature.parameters.items()
                if parameter.kind is parameter.KEYWORD_ONLY)
        return self._parameters[name]

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)


#: Topology builders: name -> callable(**params) -> TopologyHandle.
TOPOLOGIES: Registry = Registry("topology")

#: Defense backends: name -> DefenseBackend subclass, built with ``**params``.
DEFENSES: Registry = Registry("defense backend")

#: Workload builders: name -> callable(ctx, index, **params) -> WorkloadHandle.
WORKLOADS: Registry = Registry("workload")

#: Metric collectors: name -> callable(ctx, index, **params) -> MetricCollector.
COLLECTORS: Registry = Registry("collector")
