"""Hierarchical interconnect topologies beyond the paper's grid/torus set.

TIMER only needs the processor graph to be a partial cube (its hierarchy
comes from a Hamming labeling), so the widened experiment scenarios use
partial-cube abstractions of two staple HPC interconnects:

- :func:`fat_tree` -- the complete ``arity``-ary switch tree underlying a
  fat-tree.  Every tree is a partial cube; its isometric dimension is
  ``n - 1`` (one Djokovic class per edge).  With the wide multi-word
  label representation there is no size cap anymore -- a 255-switch
  ``fat_tree(2, 7)`` labels into 4-word bitvectors just like a 63-switch
  tree labels into one ``int64``.  Link "fatness" (capacity growing
  toward the root) is not modeled -- TIMER's objective only sees hop
  distances.
- :func:`dragonfly` -- groups of tightly coupled routers joined by a
  global ring: the Cartesian product ``C_g x Q_d`` of an even cycle over
  the groups with a ``d``-dimensional hypercube inside each group.  A
  Cartesian product of partial cubes is a partial cube, so the labeling
  machinery applies directly with dimension ``g / 2 + d`` -- unlike the
  textbook dragonfly, whose intra-group cliques contain triangles and are
  therefore not even bipartite.  The hypercube keeps the dragonfly's
  signature low intra-group diameter while staying labelable.

Both constructions are verified against ``partialcube.verify`` in the
test suite.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.builder import from_arrays
from repro.graphs.graph import Graph


def fat_tree(arity: int, height: int, name: str | None = None) -> Graph:
    """Complete ``arity``-ary tree of the given height (root at id 0).

    ``height`` counts edge levels: ``height == 0`` is the bare root,
    ``fat_tree(2, h)`` equals ``complete_binary_tree(h)``.  Vertices are
    numbered level by level, so node ``v``'s children are
    ``arity * v + 1 .. arity * v + arity``.

    A tree's isometric dimension equals its edge count; dimensions beyond
    63 now label into the wide multi-word representation, so fat-trees of
    any size build and label.
    """
    if arity < 2:
        raise ValueError(f"fat-tree arity must be >= 2, got {arity}")
    if height < 0:
        raise ValueError(f"fat-tree height must be >= 0, got {height}")
    n = (arity ** (height + 1) - 1) // (arity - 1)
    kids = np.arange(1, n, dtype=np.int64)
    parents = (kids - 1) // arity
    return from_arrays(n, parents, kids, name=name or f"fattree{arity}x{height}")


def dragonfly(n_groups: int, group_dim: int, name: str | None = None) -> Graph:
    """Partial-cube dragonfly: an even ring of hypercube groups.

    ``n_groups`` groups (even, so the global ring is an even cycle and the
    product stays a partial cube) of ``2 ** group_dim`` routers each.
    Router ``r`` of group ``g`` has id ``g * 2**group_dim + r``; it links
    to its intra-group hypercube neighbors and to router ``r`` of the two
    neighboring groups (``n_groups == 2`` degenerates to a single
    inter-group link per router, avoiding parallel edges).
    """
    if n_groups < 2 or n_groups % 2:
        raise ValueError(f"n_groups must be even and >= 2, got {n_groups}")
    if group_dim < 0:
        raise ValueError(f"group_dim must be >= 0, got {group_dim}")
    gsize = 1 << group_dim
    n = n_groups * gsize
    ids = np.arange(n, dtype=np.int64)
    us, vs = [], []
    for b in range(group_dim):  # intra-group hypercube links
        us.append(ids)
        vs.append(ids ^ (1 << b))
    wrap = ids if n_groups > 2 else ids[ids < gsize]
    us.append(wrap)  # global ring: same router id, next group
    vs.append((wrap + gsize) % n if n_groups > 2 else wrap + gsize)
    label = name or f"dragonfly{n_groups}x{group_dim}"
    return from_arrays(n, np.concatenate(us), np.concatenate(vs), name=label)
