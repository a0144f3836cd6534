"""The unified strategy registry behind :mod:`repro.api`.

Before this module, the repo grew three ad-hoc registries: the initial
mapping algorithms in ``mapping.mapper``, the topology builders in
``experiments.topologies`` and the scenario tables in
``experiments.matrix``.  All three now register into one namespaced
:class:`Registry`, so CLI, library and experiment traffic resolve
pluggable strategies the same way, and downstream code can add its own
partitioners / mappers / enhancers / topologies without patching any
module-private dict.

Namespaces (``kind``) in use by the built-in stages:

===================  ====================================================
kind                 values
===================  ====================================================
``partition``        :class:`PartitionStrategy` callables (``kway``)
``initial_mapping``  the paper's cases ``c1 .. c4``
``enhance``          :class:`EnhanceStrategy` callables (``timer``)
``topology``         processor-graph builders (``grid16x16``, ...)
``scenario``         experiment sweep scenarios (``paper``, ...)
``verify``           pipeline verification hooks
``report``           pipeline report hooks
``kernel_backend``   :class:`repro.core.backend.KernelBackend` instances
                     (``numpy``, ``numba``, ``numba-parallel``)
===================  ====================================================

This module is deliberately dependency-free (only :mod:`repro.errors`):
the modules that *define* strategies import the registry, never the
other way around, so there are no import cycles.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable, Iterable
from typing import Any

from repro.errors import ConfigurationError

#: Canonical namespace names, importable so call sites avoid typos.
PARTITION = "partition"
INITIAL_MAPPING = "initial_mapping"
ENHANCE = "enhance"
TOPOLOGY = "topology"
SCENARIO = "scenario"
VERIFY = "verify"
REPORT = "report"
KERNEL_BACKEND = "kernel_backend"


class Registry:
    """A namespaced ``(kind, name) -> value`` registry.

    Values are arbitrary objects -- stage callables, dataclass instances,
    builder thunks.  Registration is idempotent only under ``overwrite=True``;
    accidental double registration of a different value fails fast, which
    is what catches two plugins claiming the same strategy name.
    """

    def __init__(self) -> None:
        self._spaces: dict[str, dict[str, Any]] = {}
        self._listeners: dict[str, list[Callable[[str], None]]] = {}

    def subscribe(self, kind: str, listener: Callable[[str], None]) -> None:
        """Call ``listener(name)`` whenever ``kind``'s entries change.

        Lets derived caches (e.g. :class:`~repro.api.topology.Topology`
        sessions) invalidate themselves on re-registration instead of
        silently serving stale values.
        """
        self._listeners.setdefault(kind, []).append(listener)

    def _notify(self, kind: str, name: str) -> None:
        for listener in self._listeners.get(kind, ()):
            listener(name)

    # -- writing -------------------------------------------------------
    def register(
        self,
        kind: str,
        name: str | None = None,
        value: Any = None,
        *,
        overwrite: bool = False,
    ) -> Any:
        """Register ``value`` under ``(kind, name)``.

        Without ``value`` this returns a decorator, with ``name``
        defaulting to the decorated object's ``__name__``::

            @REGISTRY.register("verify")
            def balance(ctx): ...
        """
        if value is None:

            def decorator(obj: Any) -> Any:
                self.register(
                    kind, name or getattr(obj, "__name__", None), obj,
                    overwrite=overwrite,
                )
                return obj

            return decorator
        if not name:
            raise ConfigurationError(f"cannot register a {kind!r} without a name")
        space = self._spaces.setdefault(kind, {})
        if name in space and not overwrite and space[name] is not value:
            raise ConfigurationError(
                f"{kind} strategy {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        space[name] = value
        self._notify(kind, name)
        return value

    def unregister(self, kind: str, name: str) -> None:
        """Remove ``(kind, name)``; missing entries are ignored."""
        if self._spaces.get(kind, {}).pop(name, None) is not None:
            self._notify(kind, name)

    # -- reading -------------------------------------------------------
    def get(self, kind: str, name: str) -> Any:
        """The value registered under ``(kind, name)``.

        Unknown names raise :class:`ConfigurationError` listing what *is*
        registered -- the message callers relied on from the old per-module
        registries.  The name is echoed bounded: it may come off the wire.
        """
        space = self._spaces.get(kind, {})
        if name not in space:
            known = ", ".join(sorted(space)) or "<nothing>"
            raise ConfigurationError(
                f"unknown {kind} {reprlib.repr(name)}; known: {known}"
            )
        return space[name]

    def resolve(self, kind: str, spec: Any) -> Any:
        """``spec`` verbatim unless it is a string, then :meth:`get`.

        This is what lets pipelines be assembled "from stage names or
        instances" with one code path.
        """
        if isinstance(spec, str):
            return self.get(kind, spec)
        return spec

    def names(self, kind: str) -> tuple[str, ...]:
        """Sorted names registered under ``kind``."""
        return tuple(sorted(self._spaces.get(kind, {})))

    def kinds(self) -> tuple[str, ...]:
        """Sorted namespaces that have at least one entry."""
        return tuple(sorted(k for k, v in self._spaces.items() if v))

    def items(self, kind: str) -> Iterable[tuple[str, Any]]:
        """``(name, value)`` pairs of ``kind`` in sorted name order."""
        space = self._spaces.get(kind, {})
        return tuple((name, space[name]) for name in sorted(space))

    def __contains__(self, key: tuple[str, str]) -> bool:
        kind, name = key
        return name in self._spaces.get(kind, {})


#: The process-wide registry every built-in module registers into.
REGISTRY = Registry()


def register_topology(name: str, builder: Callable, *, overwrite: bool = False) -> Callable:
    """Convenience wrapper: register a processor-graph builder."""
    # repro: allow[REG001] reason=this IS the sanctioned public registration entry point; callers invoke it from their own module import scope
    return REGISTRY.register(TOPOLOGY, name, builder, overwrite=overwrite)
