"""Outside-in layer ledger: spans and exact work counters from wrappers.

A traced run replaces the public function of each layer *in the module
that calls it* (for example ``repro.partitioning.multilevel.fm_refine``)
with a wrapper that times the call, charges its duration to the
enclosing wrapped call as child time, and derives exact work counters
from the call's arguments and return value.  :func:`traced` installs
the wrappers and always puts the original function objects back, so
untraced runs execute the unmodified program.

A layer's self time is its span time minus the time of its direct child
spans; ``Ledger.self_seconds`` accumulates exactly that.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


class Ledger:
    """Per-layer span totals, call counts and work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` as one span of ``layer`` nested in the open span."""
        self._child_time.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
            self.seconds[layer] += duration
            self.self_seconds[layer] += duration - children
            self.calls[layer] += 1


# -- exact work counters ------------------------------------------------
# Each takes (counters, args, kwargs, result) of one wrapped call.


def _changed(before: Any, after: Any) -> int:
    import numpy as np

    return int(np.count_nonzero(np.asarray(before) != np.asarray(after)))


def _count_bisection(c: dict, args: tuple, kwargs: dict, out: Any) -> None:
    c["partitioning.bisections"] += 1


def _count_coarsening(c: dict, args: tuple, kwargs: dict, out: Any) -> None:
    c["partitioning.coarsen_levels"] += len(out)


def _count_fm(c: dict, args: tuple, kwargs: dict, out: Any) -> None:
    c["partitioning.fm_calls"] += 1
    assignment = args[1] if len(args) > 1 else kwargs["assignment"]
    c["partitioning.fm_moved"] += _changed(assignment, out)


def _count_kway(c: dict, args: tuple, kwargs: dict, out: Any) -> None:
    part = args[0] if args else kwargs["part"]
    c["partitioning.kway_moved"] += _changed(part.assignment, out.assignment)


def _count_swaps(c: dict, args: tuple, kwargs: dict, out: Any) -> None:
    c["core.swap_calls"] += 1
    c["core.swaps"] += int(out[0])


def _count_contraction(c: dict, args: tuple, kwargs: dict, out: Any) -> None:
    level = args[0] if args else kwargs["level"]
    c["core.levels"] += 1
    if out.n == level.n:
        c["core.empty_levels"] += 1


def _count_accepted(c: dict, args: tuple, kwargs: dict, out: Any) -> None:
    c["core.hierarchies_accepted"] += int(out.hierarchies_accepted)


@dataclass(frozen=True)
class Target:
    """One wrapped call site: ``module.attr`` is charged to ``layer``."""

    module: str
    attr: str
    layer: str
    count: Callable | None = None


#: Every wrapped call site, by the module that calls it.  The objective
#: functions share one layer; the two ``utils`` sorts are wrapped where
#: contraction and assembly call them.
TARGETS = (
    Target("repro.api.stages", "partition_kway", "partitioning.partition"),
    Target("repro.partitioning.kway", "bisect_multilevel", "partitioning.bisect",
           _count_bisection),
    Target("repro.partitioning.kway", "rebalance", "partitioning.rebalance"),
    Target("repro.partitioning.kway", "kway_refine", "partitioning.kway_refine",
           _count_kway),
    Target("repro.partitioning.multilevel", "coarsen_to_size", "partitioning.coarsen",
           _count_coarsening),
    Target("repro.partitioning.multilevel", "grow_bisection", "partitioning.initial"),
    Target("repro.partitioning.multilevel", "fm_refine", "partitioning.fm", _count_fm),
    Target("repro.api.stages", "compute_initial_mapping", "mapping.initial"),
    Target("repro.api.stages", "timer_enhance", "core.enhance", _count_accepted),
    Target("repro.core.enhancer", "build_application_labeling", "core.app_labeling"),
    Target("repro.core.enhancer", "swap_pass", "core.swap", _count_swaps),
    Target("repro.core.enhancer", "contract_level", "core.contract", _count_contraction),
    Target("repro.core.enhancer", "assemble", "core.assemble"),
    Target("repro.core.enhancer", "coco_plus", "core.objective"),
    Target("repro.core.enhancer", "coco_of_labels", "core.objective"),
    Target("repro.core.enhancer", "div_of_labels", "core.objective"),
    Target("repro.core.contraction", "unique_labels", "utils.unique_labels"),
    Target("repro.core.assemble", "label_sort_keys", "utils.label_sort_keys"),
    Target("repro.api.topology", "partial_cube_labeling", "topology.labeling"),
    Target("repro.api.topology", "all_pairs_distances", "topology.distances"),
)

#: Counter names, all reported (0 when the layer never ran).
COUNTERS = (
    "partitioning.bisections",
    "partitioning.fm_calls",
    "partitioning.coarsen_levels",
    "partitioning.fm_moved",
    "partitioning.kway_moved",
    "core.swap_calls",
    "core.swaps",
    "core.levels",
    "core.empty_levels",
    "core.hierarchies_accepted",
)


def _wrap(ledger: Ledger, target: Target, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        out = ledger.call(target.layer, fn, args, kwargs)
        if target.count is not None:
            target.count(ledger.counters, args, kwargs, out)
        return out

    return wrapper


@contextmanager
def traced(ledger: Ledger, targets: tuple[Target, ...] = TARGETS):
    """Install a wrapper at every target for the duration of the block.

    The originals are restored in reverse order even when the block or
    an installation raises, so no wrapper outlives the traced run.
    """
    installed: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr)
            setattr(module, target.attr, _wrap(ledger, target, original))
            installed.append((module, target.attr, original))
        yield ledger
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)
