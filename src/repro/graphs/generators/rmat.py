"""R-MAT / Kronecker random graphs.

R-MAT (Chakrabarti et al.) recursively drops each edge into one of four
quadrants of the adjacency matrix with probabilities ``(a, b, c, d)``;
skewed probabilities generate the scale-free, community-rich structure of
web and social graphs.  It stands in for the paper's largest instances
(web-Google, as-skitter, wiki-Talk) at laptop scale.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.builder import from_arrays
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, make_rng

#: Largest ``scale`` :func:`rmat` accepts: graphs of at most 2**24 vertices.
MAX_SCALE = 24


def rmat(
    scale: int,
    edge_factor: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    name: str | None = None,
) -> Graph:
    """R-MAT graph on ``2**scale`` vertices and ``~edge_factor * n`` edges.

    ``d`` is implied as ``1 - a - b - c``.  Duplicate edges collapse (their
    multiplicity becomes the edge weight in many uses, but here the builder
    sums unit weights, so heavily-duplicated pairs end up heavier -- a
    feature: it models hot communication pairs).
    """
    if scale < 1 or scale > MAX_SCALE:
        raise ValueError(f"scale must be in [1, {MAX_SCALE}], got {scale}")
    if edge_factor < 1:
        raise ValueError(f"edge_factor must be >= 1, got {edge_factor}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError(f"quadrant probabilities must be non-negative, got d={d:.3f}")
    rng = make_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    us = np.zeros(m, dtype=np.int64)
    vs = np.zeros(m, dtype=np.int64)
    # One vectorized pass per bit level: pick the quadrant of all m edges.
    for _level in range(scale):
        r = rng.random(m)
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        down = r >= a + b
        us = (us << 1) | down.astype(np.int64)
        vs = (vs << 1) | right.astype(np.int64)
    keep = us != vs
    return from_arrays(n, us[keep], vs[keep], name=name or f"rmat{scale}")
