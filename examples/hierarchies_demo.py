#!/usr/bin/env python
"""Figure 2 demo: opposite hierarchies of the 4-D hypercube.

The paper's Figure 2 shows how two permutations of the label entries
induce completely different (but equally valid) hierarchies on the same
vertex set.  TIMER's power comes from searching across many such
hierarchies.  This script prints both Figure-2 hierarchies level by level
and a random third one.

Run:  python examples/hierarchies_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.graphs import generators as gen
from repro.partialcube import partial_cube_labeling
from repro.partialcube.hierarchy import (
    hierarchy_from_permutation,
    identity_permutation,
    opposite_permutation,
)
from repro.utils.bitops import label_to_int


def render(title: str, labels: np.ndarray, dim: int, perm: np.ndarray) -> None:
    h = hierarchy_from_permutation(labels, dim, perm)
    print(f"\n{title} (perm = {perm.tolist()}):")
    for level in range(dim + 1):
        parts = h.partition(level)
        rendered = []
        for part in parts:
            bits = [f"{label_to_int(labels, v):0{dim}b}" for v in sorted(part.tolist())]
            rendered.append("{" + ",".join(bits) + "}")
        print(f"  level {level} ({len(parts):>2} parts): " + " ".join(rendered))


def main() -> None:
    g = gen.hypercube(4)
    pc = partial_cube_labeling(g)
    print(f"4-D hypercube: {g.n} vertices, dimension {pc.dim}")
    render("Hierarchy H_pi, pi = (1,2,3,4)", pc.labels, pc.dim, identity_permutation(pc.dim))
    render("Hierarchy H_pi, pi = (4,3,2,1)", pc.labels, pc.dim, opposite_permutation(pc.dim))
    rng = np.random.default_rng(7)
    render("A random hierarchy", pc.labels, pc.dim, rng.permutation(pc.dim))


if __name__ == "__main__":
    main()
