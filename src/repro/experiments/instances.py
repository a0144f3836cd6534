"""Synthetic stand-ins for the paper's 15 complex networks (Table 1).

The paper benchmarks on SNAP/DIMACS downloads that are unavailable
offline; per the substitution policy in DESIGN.md each instance is
replaced by a random-graph model matching its *type* (file-sharing,
social, citation, router, web) and approximate density, scaled down so a
pure-Python pipeline completes the full factorial.

``scale`` controls the vertex count: ``n = clip(paper_n // divisor,
n_min, n_max)``, which the R-MAT rows round up to a power of two.  Every
generated instance is reduced to its largest connected component (the
paper itself uses e.g. the PGP giant component) and regenerated
deterministically from ``(name, seed)``; :func:`max_vertices` bounds the
result's size without building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.graphs import generators as gen
from repro.graphs.algorithms import largest_component
from repro.graphs.generators.random_graphs import (
    configuration_model,
    powerlaw_degree_sequence,
)
from repro.graphs.generators.rmat import MAX_SCALE
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class InstanceSpec:
    """One Table-1 row: paper metadata plus our synthetic recipe."""

    name: str
    paper_n: int
    paper_m: int
    kind: str
    #: builder(n, rng) -> Graph
    builder: Callable[[int, np.random.Generator], Graph]
    #: vertices(n) -> how many vertices builder(n, rng) makes
    vertices: Callable[[int], int] = lambda n: n
    #: most vertices builder can make (None = no bound of its own)
    vertex_limit: int | None = None


def _config_powerlaw(gamma: float, min_deg: int):
    def build(n: int, rng: np.random.Generator) -> Graph:
        seq = powerlaw_degree_sequence(n, gamma, min_deg, seed=rng)
        return configuration_model(seq, seed=rng)

    return build


def _ba(m: int):
    return lambda n, rng: gen.barabasi_albert(n, m, seed=rng)


def _plc(m: int, p: float):
    return lambda n, rng: gen.powerlaw_cluster(n, m, p, seed=rng)


def _rmat_scale(n: int) -> int:
    """R-MAT's scale for ``n`` vertices: the least ``scale >= 1`` with ``2**scale >= n``."""
    return max(1, int(np.ceil(np.log2(max(2, n)))))


def _rmat(edge_factor: int, a: float = 0.57, b: float = 0.19, c: float = 0.19):
    def build(n: int, rng: np.random.Generator) -> Graph:
        return gen.rmat(_rmat_scale(n), edge_factor, a=a, b=b, c=c, seed=rng)

    return build


def _rmat_vertices(n: int) -> int:
    return 1 << _rmat_scale(n)


def _ws(k: int, beta: float):
    return lambda n, rng: gen.watts_strogatz(n, k, beta, seed=rng)


#: Table 1, in paper order.  Average degrees mirror the paper's m/n.
INSTANCES: tuple[InstanceSpec, ...] = (
    InstanceSpec("p2p-Gnutella", 6_405, 29_215, "file-sharing network",
                 _config_powerlaw(2.3, 2)),
    InstanceSpec("PGPgiantcompo", 10_680, 24_316, "PGP user web of trust",
                 _plc(2, 0.6)),
    InstanceSpec("email-EuAll", 16_805, 60_260, "email connections",
                 _config_powerlaw(1.9, 2)),
    InstanceSpec("as-22july06", 22_963, 48_436, "internet routers",
                 _config_powerlaw(2.1, 1)),
    InstanceSpec("soc-Slashdot0902", 28_550, 379_445, "news network",
                 _rmat(13), _rmat_vertices, 1 << MAX_SCALE),
    InstanceSpec("loc-brightkite_edges", 56_739, 212_945, "location-based friendship",
                 _plc(4, 0.4)),
    InstanceSpec("loc-gowalla_edges", 196_591, 950_327, "location-based friendship",
                 _plc(5, 0.4)),
    InstanceSpec("citationCiteseer", 268_495, 1_156_647, "citation network",
                 _ba(4)),
    InstanceSpec("coAuthorsCiteseer", 227_320, 814_134, "citation network",
                 _plc(4, 0.7)),
    InstanceSpec("wiki-Talk", 232_314, 1_458_806, "user interactions",
                 _rmat(6, a=0.62, b=0.18, c=0.18), _rmat_vertices, 1 << MAX_SCALE),
    InstanceSpec("coAuthorsDBLP", 299_067, 977_676, "citation network",
                 _plc(3, 0.7)),
    InstanceSpec("web-Google", 356_648, 2_093_324, "hyperlink network",
                 _rmat(6, a=0.6, b=0.2, c=0.15), _rmat_vertices, 1 << MAX_SCALE),
    InstanceSpec("coPapersCiteseer", 434_102, 16_036_720, "citation network",
                 _ba(8)),
    InstanceSpec("coPapersDBLP", 540_486, 15_245_729, "citation network",
                 _ba(8)),
    InstanceSpec("as-skitter", 554_930, 5_797_663, "internet service providers",
                 _config_powerlaw(2.25, 2)),
)

_BY_NAME = {spec.name: spec for spec in INSTANCES}


def instance_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in INSTANCES)


def get_instance(name: str) -> InstanceSpec:
    if name not in _BY_NAME:
        raise KeyError(f"unknown instance {name!r}; known: {', '.join(_BY_NAME)}")
    return _BY_NAME[name]


def instance_fingerprint(name: str) -> str:
    """Stable recipe fingerprint for artifact-store cell identities.

    Captures the Table-1 metadata the synthetic recipe is derived from,
    so renaming-preserving recipe edits that change the target size or
    kind invalidate cached cells (structural builder changes are covered
    by the code-version component of the key).
    """
    spec = get_instance(name)
    return f"{spec.paper_n}:{spec.paper_m}:{spec.kind}"


def scaled_n(spec: InstanceSpec, divisor: int, n_min: int = 384, n_max: int = 4096) -> int:
    """Vertex budget for ``spec`` under a scale divisor."""
    return int(np.clip(spec.paper_n // divisor, n_min, n_max))


def max_vertices(name: str, divisor: int = 64, n_min: int = 384, n_max: int = 4096) -> int:
    """The most vertices :func:`generate_instance` can return for this sizing.

    Its builder makes ``spec.vertices(scaled_n(...))`` vertices, which is
    more than ``n_max`` on the R-MAT rows, and the largest component
    keeps at most all of them.
    """
    spec = get_instance(name)
    return spec.vertices(scaled_n(spec, divisor, n_min, n_max))


def generate_instance(
    name: str,
    seed: SeedLike = None,
    divisor: int = 64,
    n_min: int = 384,
    n_max: int = 4096,
) -> Graph:
    """Generate the synthetic stand-in for Table-1 row ``name``.

    The result is the largest connected component, relabeled 0..n-1, with
    ``graph.name`` set to the paper instance name.
    """
    spec = get_instance(name)
    rng = make_rng(seed)
    n = scaled_n(spec, divisor, n_min, n_max)
    g = spec.builder(n, rng)
    giant, _ = largest_component(g)
    return Graph(
        giant.indptr,
        giant.indices,
        giant.weights,
        giant.vertex_weights,
        name=spec.name,
        _validate=False,
    )
