#!/usr/bin/env python
"""Custom topologies: trees and user-defined partial cubes.

The paper stresses that the partial-cube class covers "all trees" besides
meshes, even tori and hypercubes.  This example maps a workload onto a
complete binary tree (a stand-in for a fat-tree-style switch hierarchy)
and onto a hand-built topology, demonstrating:

- recognition of arbitrary user graphs (with a clear error for
  non-partial-cubes),
- that TIMER runs unmodified on any recognized topology.

Run:  python examples/custom_topology_tree.py
"""

from __future__ import annotations


from repro import TimerConfig, timer_enhance
from repro.errors import NotPartialCubeError
from repro.graphs import generators as gen
from repro.graphs.builder import from_edges
from repro.partialcube import is_partial_cube, partial_cube_labeling
from repro.partitioning import partition_kway
from repro.utils.bitops import label_to_int


def main() -> None:
    # --- a tree topology: 31 switches/PEs in a binary hierarchy --------
    tree = gen.complete_binary_tree(4)
    pc = partial_cube_labeling(tree)
    print(f"binary tree: {tree.n} PEs, partial-cube dimension {pc.dim} "
          "(every edge is its own convex cut)")

    ga = gen.barabasi_albert(900, 4, seed=3)
    part = partition_kway(ga, tree.n, seed=4)
    mu = part.assignment.copy()
    res = timer_enhance(ga, tree, pc, mu, seed=5, config=TimerConfig(n_hierarchies=25))
    print(f"tree mapping:  Coco {res.coco_before:.0f} -> {res.coco_after:.0f} "
          f"({res.coco_improvement:.1%})")

    # --- a hand-built partial cube: two 4-cycles joined by a matching --
    # (the 'ladder' Q3 minus nothing: actually a cube graph)
    cube = from_edges(
        8,
        [
            (0, 1), (1, 2), (2, 3), (3, 0),      # bottom 4-cycle
            (4, 5), (5, 6), (6, 7), (7, 4),      # top 4-cycle
            (0, 4), (1, 5), (2, 6), (3, 7),      # vertical matching
        ],
        name="cube",
    )
    pc_cube = partial_cube_labeling(cube)
    print(f"\nhand-built cube: dim {pc_cube.dim}, labels "
          f"{[f'{label_to_int(pc_cube.labels, v):03b}' for v in range(cube.n)]}")
    part2 = partition_kway(ga, cube.n, seed=6)
    res2 = timer_enhance(ga, cube, pc_cube, part2.assignment, seed=7,
                         config=TimerConfig(n_hierarchies=25))
    print(f"cube mapping:  Coco {res2.coco_before:.0f} -> {res2.coco_after:.0f} "
          f"({res2.coco_improvement:.1%})  "
          "(8 PEs leave little headroom -- expect a small gain)")

    # --- graceful failure on a non-partial-cube ------------------------
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    print(f"\nK4 is a partial cube? {is_partial_cube(k4)}")
    try:
        partial_cube_labeling(k4)
    except NotPartialCubeError as exc:
        print(f"recognition says: {exc} (reason: {exc.reason})")


if __name__ == "__main__":
    main()
