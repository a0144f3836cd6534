"""Kernel regression smoke runner: times before/after and emits JSON.

Runs the seed ("before") and kernel ("after") implementations of TIMER's
hot loops on the standard micro-benchmark workload (BA n=2000 m=4 mapped
onto a 16x16 grid) and writes ``BENCH_kernels.json`` next to this file, so
future PRs have a perf trajectory to compare against:

    PYTHONPATH=src python benchmarks/bench_regress.py

The "before" measurements reconstruct the seed paths from primitives that
are deliberately kept in-tree (``swap_pass_reference``, the per-vertex
``bfs_distances`` loop, ``_djokovic_classes_loop``), so the
comparison stays honest as the library evolves.  Each measurement is
best-of-``repeats`` wall time; the runner exits non-zero if a kernel
regresses below its floor (swap_pass >= 5x, partial-cube labeling >= 3x),
making it usable as a CI smoke gate.

The ``wide_hierarchy`` entry times one whole hierarchy of the enhancer
(``_one_hierarchy``: permute, swap and contract at every level,
assemble) on the multi-word workload below, as production runs it,
against the level walk forced onto the sort-based, whole-level oracles
(``contract_level_reference``, ``assemble_reference``, a
``sibling_pairs`` that sorts the labels every level, and swap gains that
sum every CSR row and scan every edge for the pair weights); its floor
(>= 1.5x) keeps a hierarchy from sorting its labels at every level.  The ``hierarchy_blocks``
entry times the same hierarchy on the production level walk
(``blocks=False``) against its greedy passes solved a block of levels
at a time (``blocks=True``), outputs checked identical first; its floor
(>= 2x) keeps the blocks worth their code.  The ``wide_assemble`` entry
times assembly alone on that hierarchy after its swap passes: the
production grant fed from the block hierarchy's flips against
``assemble_reference`` on the walk's levels, outputs checked identical
first; its floor (>= 10x) keeps the grant on the label trie's branching
nodes.

The ``fm_refine`` and ``grow_bisection`` entries time the partitioner's
incremental-gain paths against the fresh-sum oracles kept beside them
(``fm_refine_reference``, ``grow_bisection_reference``) on the same BA
graph; the ``kway_refine`` entry times k-way refinement on Python lists
against its numpy oracle (``kway_refine_reference``) on a perturbed
64-block partition of that graph.  Their floors (>= 3x, >= 2x, >= 3x)
keep the move loops off per-vertex numpy.

Labels have one representation, ``(n, W)`` ``uint64``.  The
``swap_pass`` and ``partial_cube_labeling`` entries run one-word labels
(grid16x16: 30 classes); the ``wide_*`` entries time the same kernels
on multi-word labels (fattree2x7: 255 PEs, 254 classes, 4-word PE
labels and 5-word application labels) -- both sets of floors prove the
kernels stay vectorized at every word count.

Where numba imports (the CI ``numba-kernels`` job; never the base
image), the ``numba_*`` entries additionally time the compiled backend
tiers on larger workloads: serial numba vs the numpy reference
(recorded, no floor -- the win depends on the host), and numba-parallel
vs serial numba (floored: the thread fan-out must actually pay for
itself on the swap fixpoint and the sharded BFS).  Every tier is gated
on byte-identical results before any timing.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import enhancer, kernels
from repro.core.assemble import assemble, assemble_reference
from repro.core.backend import available_backends, current_backend, get_backend, use_backend
from repro.core.config import TimerConfig
from repro.core.contraction import contract_level_reference, make_finest_level
from repro.core.labels import build_application_labeling
from repro.core.swaps import swap_pass, swap_pass_reference
from repro.graphs import generators as gen
from repro.graphs.algorithms import all_pairs_distances, bfs_distances
from repro.partialcube.djokovic import (
    _djokovic_classes_loop,
    djokovic_classes,
    partial_cube_labeling,
)
from repro.partitioning.fm import fm_refine, fm_refine_reference
from repro.partitioning.initial import grow_bisection, grow_bisection_reference
from repro.partitioning.kway import partition_kway
from repro.partitioning.kway_refine import kway_refine, kway_refine_reference
from repro.utils.segments import build_csr

OUTPUT = Path(__file__).parent / "BENCH_kernels.json"

#: speedup floors enforced by the runner (and recorded in the JSON)
FLOORS = {
    "swap_pass": 5.0,
    "partial_cube_labeling": 3.0,
    "wide_swap_pass": 3.0,
    "wide_partial_cube_labeling": 3.0,
    "wide_hierarchy": 1.5,
    "hierarchy_blocks": 2.0,
    "wide_assemble": 10.0,
    "fm_refine": 3.0,
    "grow_bisection": 2.0,
    "kway_refine": 3.0,
    # compiled tiers (present only where numba imports): the parallel
    # backend must beat serial numba on the big workloads
    "numba_parallel_swap_pass": 1.1,
    "numba_parallel_all_pairs": 1.3,
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _workload():
    ga = gen.barabasi_albert(2000, 4, seed=1)
    gp = gen.grid(16, 16)
    pc = partial_cube_labeling(gp)
    rng = np.random.default_rng(2)
    mu = (np.arange(ga.n) % gp.n).astype(np.int64)
    rng.shuffle(mu)
    app = build_application_labeling(ga, pc, mu, seed=3)
    return ga, gp, app


def perturbed_partition(ga, k: int):
    """A k-way partition of ``ga`` with 10% of its vertices moved at random,
    so k-way refinement has boundary vertices worth moving."""
    part = partition_kway(ga, k, seed=6, kway_passes=0)
    rng = np.random.default_rng(7)
    assign = part.assignment.copy()
    moved = rng.random(ga.n) < 0.1
    assign[moved] = rng.integers(0, k, int(moved.sum()))
    return part.with_assignment(assign)


def assembled_levels(edges, app, perm, blocks: bool) -> list:
    """The levels ``_one_hierarchy`` hands to ``assemble`` for ``perm``.

    Block views after their block solves (``blocks=True``) or walk
    levels after their swap passes (``blocks=False``), greedy swaps.
    """
    seen = []
    real = enhancer.assemble
    enhancer.assemble = lambda levels, dim: seen.append(levels) or real(levels, dim)
    try:
        enhancer._one_hierarchy(
            edges, app.labels, app.dim, app.dim_e, perm, TimerConfig(), blocks=blocks
        )
    finally:
        enhancer.assemble = real
    return seen[0]


def _seed_partial_cube_labeling(gp):
    """The seed recognition path: one Python BFS per vertex + class loop."""
    distances = np.stack([bfs_distances(gp, v) for v in range(gp.n)])
    return _djokovic_classes_loop(gp, distances)


@contextmanager
def _sort_based_hierarchy():
    """Run the enhancer's hierarchy walk on the sort-based oracles.

    Contraction and assembly become their ``*_reference`` versions, the
    swap kernel's sibling pairs sort the labels afresh every level (no
    shared sibling mask), and its gains come from every CSR row and its
    pair weights from every edge (``batch_pair_deltas``,
    ``sibling_pair_weights``).
    """
    gather, sort_pairs = kernels.pair_rows, kernels.sibling_pairs
    patches = [
        (enhancer, "contract_level", contract_level_reference),
        (enhancer, "assemble", assemble_reference),
        (kernels, "sibling_mask", lambda level: None),
        (kernels, "sibling_pairs", lambda labels, order=None, mask=None: sort_pairs(labels)),
        (kernels, "pair_rows", lambda level, pairs, csr: gather(level, pairs, csr)._replace(
            pair_w=kernels.sibling_pair_weights(level, pairs))),
        (kernels, "pair_row_gains", lambda labels, rows, sign: kernels.batch_pair_deltas(
            labels, rows.pairs, rows.csr, sign, rows.pair_w)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, fn in patches:
        setattr(module, name, fn)
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _backend_tiers(repeats: int) -> dict:
    """Time the compiled backend tiers against each other (numba hosts).

    Bigger workloads than the main entries: the parallel tier's floors
    assert that thread fan-out wins, which needs enough work per thread
    to amortize the fork/join.
    """
    tiers = [t for t in ("numba", "numba-parallel") if t in available_backends()]
    if not tiers:
        return {}

    big = gen.barabasi_albert(20000, 4, seed=7)
    big_edges = big.edge_arrays()
    rng = np.random.default_rng(8)
    labels = rng.choice(1 << 16, size=big.n, replace=False).astype(np.int64)
    gp_big = gen.grid(40, 40)

    def swap_with(name):
        with use_backend(name):
            lvl = make_finest_level(big_edges, labels.copy())
            res = swap_pass(lvl, sign=1)
        return res, lvl.labels

    def apd_with(name):
        with use_backend(name):
            return all_pairs_distances(gp_big)

    # Correctness gate doubles as the JIT warmup, so _best_of never
    # times compilation.
    ref_swap, ref_labels = swap_with("numpy")
    ref_dist = apd_with("numpy")
    for name in tiers:
        got, got_labels = swap_with(name)
        if got != ref_swap or not np.array_equal(ref_labels, got_labels):
            raise AssertionError(f"{name} swap pass diverged from numpy: {got}")
        if not np.array_equal(ref_dist, apd_with(name)):
            raise AssertionError(f"{name} all-pairs BFS diverged from numpy")

    results: dict = {}
    swap_wl = "BA n=20000 m=4, sign=+1, 1 sweep"
    apd_wl = "40x40 grid, n=1600 sources (25 bitset words)"
    times_swap = {
        name: _best_of(lambda name=name: swap_with(name), repeats)
        for name in ["numpy", *tiers]
    }
    times_apd = {
        name: _best_of(lambda name=name: apd_with(name), repeats)
        for name in ["numpy", *tiers]
    }
    results["numba_swap_pass"] = {
        "workload": swap_wl + " (numpy vs serial numba)",
        "before_s": times_swap["numpy"],
        "after_s": times_swap["numba"],
    }
    results["numba_all_pairs"] = {
        "workload": apd_wl + " (numpy vs serial numba)",
        "before_s": times_apd["numpy"],
        "after_s": times_apd["numba"],
    }
    if "numba-parallel" in tiers:
        results["numba_parallel_swap_pass"] = {
            "workload": swap_wl + " (serial numba vs numba-parallel)",
            "before_s": times_swap["numba"],
            "after_s": times_swap["numba-parallel"],
        }
        results["numba_parallel_all_pairs"] = {
            "workload": apd_wl + " (serial numba vs numba-parallel)",
            "before_s": times_apd["numba"],
            "after_s": times_apd["numba-parallel"],
        }
    return results


def run(repeats: int = 5) -> dict:
    ga, gp, app = _workload()
    edges = ga.edge_arrays()
    results: dict = {}

    # --- swap pass: scalar greedy sweep vs batch kernel -----------------
    def before_swaps():
        lvl = make_finest_level(edges, app.labels.copy())
        return swap_pass_reference(lvl, sign=1)

    def after_swaps():
        lvl = make_finest_level(edges, app.labels.copy())
        return swap_pass(lvl, sign=1)

    # correctness gate before timing: byte-identical outcomes
    la = make_finest_level(edges, app.labels.copy())
    lb = make_finest_level(edges, app.labels.copy())
    ra = swap_pass_reference(la, sign=1)
    rb = swap_pass(lb, sign=1)
    if ra != rb or not np.array_equal(la.labels, lb.labels):
        raise AssertionError(f"batch swap pass diverged from scalar: {ra} vs {rb}")
    results["swap_pass"] = {
        "workload": "BA n=2000 m=4 on 16x16 grid, sign=+1, 1 sweep",
        "before_s": _best_of(before_swaps, repeats),
        "after_s": _best_of(after_swaps, repeats),
    }

    # --- partial-cube recognition: seed BFS+loop vs batched kernels -----
    def before_pc():
        return _seed_partial_cube_labeling(gp)

    def after_pc():
        return partial_cube_labeling(gp)

    ec_a, cls_a = _seed_partial_cube_labeling(gp)
    ec_b, cls_b = djokovic_classes(gp, all_pairs_distances(gp))
    if not np.array_equal(ec_a, ec_b) or cls_a != cls_b:
        raise AssertionError("vectorized djokovic classes diverged from loop")
    results["partial_cube_labeling"] = {
        "workload": "16x16 grid (dim 30), full recognition + labeling",
        "before_s": _best_of(before_pc, repeats),
        "after_s": _best_of(after_pc, repeats),
    }

    # --- all-pairs distances: per-vertex Python BFS vs bitset BFS -------
    def before_apd():
        return np.stack([bfs_distances(gp, v) for v in range(gp.n)])

    assert np.array_equal(before_apd(), all_pairs_distances(gp))
    results["all_pairs_distances"] = {
        "workload": "16x16 grid, n=256 sources",
        "before_s": _best_of(before_apd, repeats),
        "after_s": _best_of(lambda: all_pairs_distances(gp), repeats),
    }

    # --- djokovic classes alone (distances precomputed) -----------------
    dist = all_pairs_distances(gp)
    results["djokovic_classes"] = {
        "workload": "16x16 grid, distances precomputed, production default (auto)",
        "before_s": _best_of(lambda: _djokovic_classes_loop(gp, dist), repeats),
        "after_s": _best_of(lambda: current_backend().djokovic_classes(gp, dist), repeats),
    }

    # --- wide labels: same kernels past the 63-class cap ----------------
    ft = gen.fat_tree(2, 7)  # 255 PEs, 254 Djokovic classes, W = 4
    ft_pc = partial_cube_labeling(ft)
    mu_ft = (np.arange(ga.n) % ft.n).astype(np.int64)
    np.random.default_rng(2).shuffle(mu_ft)
    wide_app = build_application_labeling(ga, ft_pc, mu_ft, seed=3)
    assert wide_app.labels.shape[1] == 5  # really multi-word

    def before_wide_swaps():
        lvl = make_finest_level(edges, wide_app.labels.copy())
        return swap_pass_reference(lvl, sign=1)

    def after_wide_swaps():
        lvl = make_finest_level(edges, wide_app.labels.copy())
        return swap_pass(lvl, sign=1)

    wa = make_finest_level(edges, wide_app.labels.copy())
    wb = make_finest_level(edges, wide_app.labels.copy())
    rwa = swap_pass_reference(wa, sign=1)
    rwb = swap_pass(wb, sign=1)
    if rwa != rwb or not np.array_equal(wa.labels, wb.labels):
        raise AssertionError(f"wide batch swap diverged from scalar: {rwa} vs {rwb}")
    results["wide_swap_pass"] = {
        "workload": "BA n=2000 m=4 on fattree2x7 (dim 256, 4-word labels)",
        "before_s": _best_of(before_wide_swaps, repeats),
        "after_s": _best_of(after_wide_swaps, repeats),
    }

    # --- one hierarchy walk: level order vs sorting at every level -------
    perm = np.random.default_rng(6).permutation(wide_app.dim).astype(np.int64)
    finest_csr = build_csr(ga.n, *edges)

    def walk(blocks=None):
        return enhancer._one_hierarchy(
            edges, wide_app.labels, wide_app.dim, wide_app.dim_e, perm,
            TimerConfig(), finest_csr, blocks,
        )

    def before_walk():
        with _sort_based_hierarchy():
            return walk(blocks=False)

    if not np.array_equal(before_walk(), walk()):
        raise AssertionError("one-sort hierarchy diverged from the sort-based oracles")
    hierarchy = "BA n=2000 m=4 on fattree2x7 (dim 257, 5-word labels), one hierarchy: "
    results["wide_hierarchy"] = {
        "workload": hierarchy + "255 swap+contract levels, then assembly "
        "(sort-based oracles on the level walk vs production)",
        "before_s": _best_of(before_walk, repeats),
        "after_s": _best_of(walk, repeats),
    }
    if not np.array_equal(walk(blocks=False), walk(blocks=True)):
        raise AssertionError("block hierarchy diverged from the level walk")
    results["hierarchy_blocks"] = {
        "workload": hierarchy + "the level walk vs swap passes solved in blocks",
        "before_s": _best_of(lambda: walk(blocks=False), repeats),
        "after_s": _best_of(lambda: walk(blocks=True), repeats),
    }

    # --- assembly: the grant fed from the flips vs the sort-based oracle --
    views = assembled_levels(edges, wide_app, perm, blocks=True)
    walk_levels = assembled_levels(edges, wide_app, perm, blocks=False)
    dim = wide_app.dim
    if not np.array_equal(assemble(views, dim), assemble_reference(walk_levels, dim)):
        raise AssertionError("assembly from the flips diverged from the reference")
    results["wide_assemble"] = {
        "workload": hierarchy + "assembly alone (assemble_reference on the "
        "walk's levels vs assemble on the block hierarchy)",
        "before_s": _best_of(lambda: assemble_reference(walk_levels, dim), repeats),
        "after_s": _best_of(lambda: assemble(views, dim), repeats),
    }

    def before_wide_pc():
        return _seed_partial_cube_labeling(ft)

    def after_wide_pc():
        return partial_cube_labeling(ft)

    results["wide_partial_cube_labeling"] = {
        "workload": "fattree2x7 (255 switches, dim 254), recognition + labeling",
        "before_s": _best_of(before_wide_pc, repeats),
        "after_s": _best_of(after_wide_pc, repeats),
    }

    # --- partitioner: incremental FM and growing vs fresh sums ----------
    total = float(ga.vertex_weights.sum())
    start = np.random.default_rng(5).integers(0, 2, ga.n)
    caps = (0.53 * total, 0.53 * total)
    if not np.array_equal(
        fm_refine(ga, start, caps), fm_refine_reference(ga, start, caps)
    ):
        raise AssertionError("incremental FM diverged from the reference")
    results["fm_refine"] = {
        "workload": "BA n=2000 m=4, random 0/1 start, caps 0.53 W, 8 passes",
        "before_s": _best_of(lambda: fm_refine_reference(ga, start, caps), repeats),
        "after_s": _best_of(lambda: fm_refine(ga, start, caps), repeats),
    }
    if not np.array_equal(
        grow_bisection(ga, total / 2, seed=4),
        grow_bisection_reference(ga, total / 2, seed=4),
    ):
        raise AssertionError("incremental growing diverged from the reference")
    results["grow_bisection"] = {
        "workload": "BA n=2000 m=4, target W/2, 4 attempts",
        "before_s": _best_of(
            lambda: grow_bisection_reference(ga, total / 2, seed=4), repeats
        ),
        "after_s": _best_of(lambda: grow_bisection(ga, total / 2, seed=4), repeats),
    }
    part = perturbed_partition(ga, 64)
    if not np.array_equal(
        kway_refine(part, 0.03).assignment, kway_refine_reference(part, 0.03).assignment
    ):
        raise AssertionError("k-way refinement diverged from the reference")
    results["kway_refine"] = {
        "workload": "BA n=2000 m=4, k=64 partition with 10% of vertices "
        "moved at random, 3 passes",
        "before_s": _best_of(lambda: kway_refine_reference(part, 0.03), repeats),
        "after_s": _best_of(lambda: kway_refine(part, 0.03), repeats),
    }

    # --- edge_arrays caching --------------------------------------------
    def before_edges():
        # fresh graph per call = the seed behavior (rebuild every time)
        g2 = ga.copy()
        for _ in range(10):
            g2._edge_arrays_cache = None
            g2.edge_arrays()

    def after_edges():
        g2 = ga.copy()
        for _ in range(10):
            g2.edge_arrays()

    results["edge_arrays_x10"] = {
        "workload": "BA n=2000 m=4, 10 objective-style accesses",
        "before_s": _best_of(before_edges, repeats),
        "after_s": _best_of(after_edges, repeats),
    }

    # --- compiled backend tiers (numba hosts only) ----------------------
    results.update(_backend_tiers(repeats))

    for name, entry in results.items():
        entry["speedup"] = entry["before_s"] / entry["after_s"]
        entry["floor"] = FLOORS.get(name)

    return {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backend": get_backend(),
            "backends_available": available_backends(),
            "repeats": repeats,
        },
        "kernels": results,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument(
        "--floor-scale",
        type=float,
        default=1.0,
        help="multiply the speedup floors before enforcing them; CI uses a "
        "value < 1 so shared-runner timing noise cannot fail unrelated PRs "
        "(the recorded floors in the JSON stay unscaled)",
    )
    args = ap.parse_args(argv)
    payload = run(repeats=args.repeats)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    failed = []
    for name, entry in payload["kernels"].items():
        floor = entry.get("floor")
        line = (
            f"{name:24s} before {entry['before_s'] * 1e3:8.2f} ms   "
            f"after {entry['after_s'] * 1e3:8.2f} ms   "
            f"speedup {entry['speedup']:6.1f}x"
        )
        if floor is not None:
            enforced = floor * args.floor_scale
            line += f"   (floor {floor:g}x"
            if args.floor_scale != 1.0:
                line += f", enforcing {enforced:.1f}x"
            line += ")"
            if entry["speedup"] < enforced:
                failed.append(name)
                line += "  FAIL"
        print(line)
    print(f"wrote {OUTPUT}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
