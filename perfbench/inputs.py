"""Seeded input generation for the benchmark workloads (stdlib only).

Everything the program under test receives is built here from the
workload seed: application graphs, the supplied mapping of
``enhance-wide`` and the request plan of ``serve-mixed``.  The program's
own generators are deliberately not used, so a change to them cannot
change the benchmark's inputs.

``random.Random`` seeded with a string hashes it with SHA-512, so every
stream below is stable across processes and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random

#: The Eq. (1) imbalance the pipeline's default config allows; the
#: output checks hold every partition to it.
EPSILON = 0.03
#: BA graph sizes of the two pipeline workloads (recorded in DESIGN.json).
PIPELINE_N = {"pipeline-grid": 1000, "enhance-wide": 4000}
PIPELINE_M = 4
#: BA graphs per seed that a measuring worker cycles through: enough
#: to average out how much the partitioner's work varies from graph to
#: graph, few enough that each graph repeats two to four times in a
#: 40 s window.  TIMER's work barely varies, so enhance-wide needs one.
PIPELINE_POOL = {"pipeline-grid": 6, "enhance-wide": 1}
#: TIMER hierarchies per run (the paper's N_H).
PIPELINE_NH = 10
#: ``Pipeline.run``'s own seed, the same for every workload seed: it
#: steers the partitioner's randomized choices, whose cost varies far
#: more from one value to the next than from one BA graph to the next.
PIPELINE_RUN_SEED = 3

#: serve-mixed: catalog of request bodies, 4x the default 128-entry
#: response cache, so uniform draws both repeat and evict.
CATALOG_SIZE = 512
#: (topology, PE count); fattree4x3 has 84-bit (wide) labels.
SERVE_TOPOLOGIES = (("grid4x4", 16), ("torus8x8", 64), ("fattree4x3", 85))
SERVE_N_RANGE = (64, 192)
SERVE_M = 3
#: TIMER hierarchies per served request (the load generator's default)
SERVE_NH = 2
#: every fifth catalog entry is an /enhance request (20%)
ENHANCE_EVERY = 5
#: Plan positions that repeat an earlier request (30%).
REPEAT_SLOTS = (3, 6, 9)
#: Replies to catalog entries 0 .. QUALITY_PROBE-1 define the serve
#: quality metrics; every run requests far more fresh entries.
QUALITY_PROBE = 40


def barabasi_albert(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Preferential-attachment edge list: vertex ``v >= m`` links to ``m``
    distinct earlier vertices drawn proportionally to degree."""
    edges: list[tuple[int, int]] = []
    targets = list(range(m))
    repeated: list[int] = []
    for v in range(m, n):
        for t in targets:
            edges.append((t, v))
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    return edges


def pipeline_graph(workload: str, seed: int, instance: int) -> list[tuple[int, int]]:
    """Edges of BA graph ``instance`` of a pipeline workload's seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}:{instance}")
    return barabasi_albert(PIPELINE_N[workload], PIPELINE_M, rng)


def round_robin_mapping(n: int, k: int) -> list[int]:
    """``enhance-wide``'s supplied mapping: vertex i -> PE i mod k.

    Built without the partitioner, so partitioner changes cannot alter
    the workload's input.
    """
    return [i % k for i in range(n)]


def catalog_entry(seed: int, index: int) -> tuple[str, dict]:
    """Request ``index`` of the serve catalog: ``(path, body)``.

    The catalog's make-up is fixed -- topology, graph size and endpoint
    follow from ``index`` alone -- and the seed draws the edges, the
    run seed and the supplied mapping, so runs on different seeds load
    the server alike.
    """
    rng = random.Random(f"perfbench:catalog:{seed}:{index}")
    topology, k = SERVE_TOPOLOGIES[index % len(SERVE_TOPOLOGIES)]
    lo, hi = SERVE_N_RANGE
    n = lo + (index * 37) % (hi - lo + 1)
    edges = barabasi_albert(n, SERVE_M, rng)
    body: dict = {
        "topology": topology,
        "graph": {"kind": "edges", "n": n, "edges": [[u, v, 1] for u, v in edges]},
        "seed": rng.randrange(2**31),
        "config": {"nh": SERVE_NH},
    }
    if index % ENHANCE_EVERY == 0:
        mu = round_robin_mapping(n, k)
        rng.shuffle(mu)
        body["mu"] = mu
        return "/enhance", body
    return "/map", body


class RequestPlan:
    """The serve-mixed request sequence.

    Three positions in every ten (3, 6 and 9 mod 10) repeat, verbatim,
    the request at a uniformly drawn earlier position; the others walk
    the catalog in order.  Fixing where repeats fall and what the fresh
    requests are keeps the load alike across seeds, while the repeat
    targets still reach back past the response cache's capacity.
    Position ``i`` always names the same request for a given seed, so
    replies can be checked and compared whatever the number of requests
    a run completes.  Bodies are encoded once, so a repeat is
    byte-identical on the wire.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._draws = random.Random(f"perfbench:plan:{seed}")
        self._indices: list[int] = []
        self._fresh = 0
        self._bodies: dict[int, tuple[str, dict, bytes]] = {}

    def prepare(self) -> None:
        """Encode the whole catalog now, so no body is built while timing."""
        for idx in range(CATALOG_SIZE):
            self._encode(idx)

    def index(self, position: int) -> int:
        """The catalog index requested at ``position``."""
        while len(self._indices) <= position:
            p = len(self._indices)
            if p % 10 in REPEAT_SLOTS:
                self._indices.append(self._indices[self._draws.randrange(p)])
            else:
                self._indices.append(self._fresh % CATALOG_SIZE)
                self._fresh += 1
        return self._indices[position]

    def request(self, position: int) -> tuple[str, dict, bytes]:
        """``(path, body, encoded body)`` of plan position ``position``."""
        return self._encode(self.index(position))

    def _encode(self, idx: int) -> tuple[str, dict, bytes]:
        if idx not in self._bodies:
            path, body = catalog_entry(self.seed, idx)
            self._bodies[idx] = (path, body, json.dumps(body).encode())
        return self._bodies[idx]
