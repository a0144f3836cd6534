"""The paper's processor topologies (§7.1) and their labelings.

The five production topologies all have 256 or 512 PEs; recognition plus
labeling costs a few hundred milliseconds each, so labelings are cached
per process.  ``*_small`` variants keep unit and integration tests fast.

Note on convex-cut counts: the paper states the topologies have
30/21/32/24/8 convex cuts respectively.  Grid and hypercube counts match
our Djokovic computation; for the tori the *isometric* dimension is 16
(16x16) and 12 (8x8x8) because antipodal meridian edge classes coincide
(each even cycle ``C_{2k}`` contributes ``k`` classes, not ``2k``).  Our
labels pass the exhaustive Hamming-equals-distance check, so the smaller
dimensions are the correct partial-cube labelings; the paper evidently
counted both meridians of each class.  EXPERIMENTS.md discusses the
(minor) consequences for the runtime-quotient narrative.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.api.registry import REGISTRY, TOPOLOGY
from repro.api.topology import Topology
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.partialcube.djokovic import PartialCubeLabeling

#: The five topologies of the paper's evaluation, in Table 2 order.
PAPER_TOPOLOGIES: tuple[str, ...] = (
    "grid16x16",
    "grid8x8x8",
    "torus16x16",
    "torus8x8x8",
    "hq8",
)

#: Widened scenario set beyond the paper's grid/torus/hypercube matrix:
#: a fat-tree (largest complete binary switch tree under the historical
#: 63-class packed-label limit), a partial-cube dragonfly (8 groups of
#: 32-router hypercubes on a global ring, 256 PEs) and an anisotropic
#: 3-D torus (256 PEs).  See :mod:`repro.graphs.generators.interconnects`.
WIDENED_TOPOLOGIES: tuple[str, ...] = (
    "fattree2x5",
    "dragonfly8x5",
    "torus8x8x4",
)

#: Wide-label scenario set (ISSUE 4): topologies that only exist because
#: the 63-class packed-label cap is gone, plus the large paper torus for
#: contrast.  ``fattree2x7`` is the headline instance -- 255 PEs, 254
#: Djokovic classes, 4-word labels; ``fattree4x3`` (85 PEs, 84 classes)
#: is the cheap 2-word variant; ``dragonfly16x6`` scales the dragonfly
#: to 1024 PEs (one-word labels, dim 14; included for the PE-count axis).
WIDE_TOPOLOGIES: tuple[str, ...] = (
    "fattree2x7",
    "fattree4x3",
    "dragonfly16x6",
    "torus16x16",
)

#: The built-in builders, registered below into the unified registry
#: (kind ``topology``) -- the single lookup the CLI, the pipeline and the
#: experiment runner all resolve topology names through.
_BUILTIN_BUILDERS: dict[str, Callable[[], Graph]] = {
    # paper set
    "grid16x16": lambda: gen.grid(16, 16),
    "grid8x8x8": lambda: gen.grid(8, 8, 8),
    "torus16x16": lambda: gen.torus(16, 16),
    "torus8x8x8": lambda: gen.torus(8, 8, 8),
    "hq8": lambda: gen.hypercube(8),
    # widened interconnect set (ISSUE 2): fat-tree, dragonfly, 3-D torus
    "fattree2x5": lambda: gen.fat_tree(2, 5),
    "fattree4x2": lambda: gen.fat_tree(4, 2),
    "dragonfly8x5": lambda: gen.dragonfly(8, 5),
    "torus8x8x4": lambda: gen.torus(8, 8, 4),
    # wide-label set (ISSUE 4): beyond the lifted 63-class cap
    "fattree2x7": lambda: gen.fat_tree(2, 7),
    "fattree4x3": lambda: gen.fat_tree(4, 3),
    "fattree2x6": lambda: gen.fat_tree(2, 6),
    "dragonfly16x6": lambda: gen.dragonfly(16, 6),
    # small variants for tests, docs and quick examples
    "dragonfly4x2": lambda: gen.dragonfly(4, 2),
    "grid4x4": lambda: gen.grid(4, 4),
    "grid8x8": lambda: gen.grid(8, 8),
    "grid4x4x4": lambda: gen.grid(4, 4, 4),
    "torus4x4": lambda: gen.torus(4, 4),
    "torus8x8": lambda: gen.torus(8, 8),
    "torus4x4x4": lambda: gen.torus(4, 4, 4),
    "hq4": lambda: gen.hypercube(4),
    "hq6": lambda: gen.hypercube(6),
    "path16": lambda: gen.path(16),
    "cbt4": lambda: gen.complete_binary_tree(4),
}

for _name, _builder in _BUILTIN_BUILDERS.items():
    REGISTRY.register(TOPOLOGY, _name, _builder)


def topology_names(paper_only: bool = False) -> tuple[str, ...]:
    """Known topology names (the paper's five, or all registered)."""
    if paper_only:
        return PAPER_TOPOLOGIES
    return REGISTRY.names(TOPOLOGY)


def make_topology(name: str) -> tuple[Graph, PartialCubeLabeling]:
    """Build topology ``name`` and its partial-cube labeling (cached).

    Delegates to the :class:`~repro.api.topology.Topology` session cache
    -- the *only* cache on this path, so harness code using ``(graph,
    labeling)`` tuples and pipeline code using sessions share one
    labeling per process, and ``Topology.clear_sessions()`` invalidates
    both views together.
    """
    session = Topology.from_name(name)
    return session.graph, session.labeling
