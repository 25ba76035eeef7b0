"""Named registries behind the declarative experiment surface.

Topologies, defense backends and workloads are all looked up by name from an
:class:`ExperimentSpec`, so adding a new one is one ``register`` call — no
CLI or runner changes.  Lookup errors spell out the available names because
the most common failure mode is a typo in a spec file.
"""

from __future__ import annotations

import inspect
import typing
from typing import (Any, Callable, Dict, FrozenSet, Generic, Iterator, List,
                    Optional, TypeVar)

T = TypeVar("T")

#: What a parameter takes (:meth:`Registry.check_values`): the first
#: value types its default is an instance of, and how an error says so.
#: A bool is not a number; a subclass of a listed type other than bool is
#: one of it.
_TAKES = (
    (frozenset({bool}), "true or false"),
    (frozenset({int, float}), "a number"),
    (frozenset({str}), "a string"),
    (frozenset({list, tuple}), "a list"),
)


def _takes(default: Any, hint: Any = None) -> Optional[tuple]:
    """The entry of :data:`_TAKES` for ``default`` (None: any value).

    A None default reads the parameter's ``Optional[X]`` annotation
    ``hint`` instead: the entry for ``X``, widened to take None too.
    """
    if default is not None:
        return next((take for take in _TAKES
                     if isinstance(default, tuple(take[0]))), None)
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    base = (typing.get_origin(args[0]) or args[0]) if len(args) == 1 else None
    if not isinstance(base, type):
        return None
    take = next((take for take in _TAKES
                 if issubclass(base, tuple(take[0]))), None)
    return None if take is None else (take[0] | {type(None)}, take[1])


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
        self._defaults: Dict[str, Dict[str, Any]] = {}
        #: Entry -> parameter -> its :data:`_TAKES` entry (None: any value).
        self._wants: Dict[str, Dict[str, Optional[tuple]]] = {}

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
            self._parameters[name] = frozenset(self.defaults(name))
        return self._parameters[name]

    def defaults(self, name: str) -> Dict[str, Any]:
        """Entry ``name``'s parameters and their defaults, read once from
        the keyword-only arguments of its builder."""
        if name not in self._defaults:
            self.get(name)
            signature = inspect.signature(self._declared_by[name]())
            self._defaults[name] = {
                key: parameter.default
                for key, parameter in signature.parameters.items()
                if parameter.kind is parameter.KEYWORD_ONLY}
        return self._defaults[name]

    def check_values(self, name: str, params: Dict[str, Any]) -> None:
        """Refuse a declared parameter's value of the wrong type (ValueError
        naming each): a number where the default is an int or a float (a
        bool is not one), a bool where it is a bool, a string where it is a
        string, a list or tuple where it is a list or tuple.  A None
        default takes None or what its ``Optional[X]`` annotation's ``X``
        would take as a default.  Other defaults take any value."""
        wants = self._wants.get(name)
        if wants is None:
            defaults = self.defaults(name)
            builder = self._declared_by[name]()
            hints = (typing.get_type_hints(builder.__init__
                                           if inspect.isclass(builder)
                                           else builder)
                     if None in defaults.values() else {})
            wants = self._wants[name] = {
                key: _takes(default, hints.get(key))
                for key, default in defaults.items()}
        wrong = []
        for key, value in params.items():
            take = wants.get(key)
            if take is None or type(value) in take[0] or (
                    not isinstance(value, bool)
                    and isinstance(value, tuple(take[0]))):
                continue
            wrong.append(f"{key}={value!r} (want {take[1]})")
        if wrong:
            raise ValueError(f"bad {self.kind} {name!r} parameter value(s): "
                             f"{', '.join(sorted(wrong))}")

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
