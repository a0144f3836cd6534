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

The ``wide_*`` entries time the same kernels on the multi-word label
representation (fattree2x7: 255 PEs, 254 classes, 4-word labels) --
their floors prove the wide path stays vectorized, while the unchanged
narrow floors prove the ``W == 1`` fast path did not slow down under the
representation split.

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
from pathlib import Path

import numpy as np

from repro.core.backend import available_backends, current_backend, get_backend, use_backend
from repro.core.contraction import make_finest_level
from repro.core.labels import build_application_labeling
from repro.core.swaps import swap_pass, swap_pass_reference
from repro.graphs import generators as gen
from repro.graphs.algorithms import all_pairs_distances, bfs_distances
from repro.partialcube.djokovic import (
    _djokovic_classes_loop,
    djokovic_classes,
    partial_cube_labeling,
)

OUTPUT = Path(__file__).parent / "BENCH_kernels.json"

#: speedup floors enforced by the runner (and recorded in the JSON)
FLOORS = {
    "swap_pass": 5.0,
    "partial_cube_labeling": 3.0,
    "wide_swap_pass": 3.0,
    "wide_partial_cube_labeling": 3.0,
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


def _seed_partial_cube_labeling(gp):
    """The seed recognition path: one Python BFS per vertex + class loop."""
    distances = np.stack([bfs_distances(gp, v) for v in range(gp.n)])
    return _djokovic_classes_loop(gp, distances)


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
    assert wide_app.labels.ndim == 2  # really multi-word

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

    def before_wide_pc():
        return _seed_partial_cube_labeling(ft)

    def after_wide_pc():
        return partial_cube_labeling(ft)

    results["wide_partial_cube_labeling"] = {
        "workload": "fattree2x7 (255 switches, dim 254), recognition + labeling",
        "before_s": _best_of(before_wide_pc, repeats),
        "after_s": _best_of(after_wide_pc, repeats),
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
    # The numba CI legs select their tier through the deprecated
    # REPRO_KERNEL_BACKEND fallback; keep its warning out of the report.
    import warnings

    warnings.simplefilter("ignore", DeprecationWarning)
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
            line += f"   (floor {floor:.0f}x"
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
