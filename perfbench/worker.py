"""One fresh process of a pipeline workload (``pipeline-grid``, ``enhance-wide``).

Usage: ``python worker.py WORKLOAD SEED SECONDS MODE`` with ``src`` on
``PYTHONPATH``.  Writes JSON lines to stdout:

- ``{"event": "ready"}`` once set-up is done: imports, the topology
  session, its labeling and ``Pipeline.warm_caches()``.  The parent
  times process start to this line as one ``setup_s`` sample.
- ``{"event": "result", ...}`` at the end (modes ``measure``/``trace``).

Modes: ``setup`` exits after ``ready``; ``measure`` runs untraced
``Pipeline.run`` calls in whole rounds over the seed's graph pool for
about SECONDS; ``trace`` alternates untraced and traced calls (at least
one and two) and reports the layer ledger.  Every result is checked; a
violation is counted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
from ledger import COUNTERS, Ledger, traced  # noqa: E402

#: workload -> (topology, whether the benchmark supplies mu itself)
WORKLOADS = {"pipeline-grid": ("grid16x16", False), "enhance-wide": ("fattree2x7", True)}

#: Layer spans reported per run, by ledger layer name.
SPAN_LAYERS = (
    "partitioning.partition", "partitioning.bisect", "partitioning.coarsen",
    "partitioning.initial", "partitioning.fm", "partitioning.kway_refine",
    "partitioning.rebalance", "mapping.initial", "core.enhance",
    "core.app_labeling", "core.swap", "core.contract", "core.assemble",
    "core.objective", "utils.unique_labels", "utils.label_sort_keys",
)
STAGE_LAYERS = ("partitioning.partition", "mapping.initial", "core.enhance")


def emit(event: str, **fields) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def set_up(topology: str):
    from repro.api import Pipeline, PipelineConfig
    from repro.core.config import TimerConfig

    config = PipelineConfig(timer=TimerConfig(n_hierarchies=inputs.PIPELINE_NH))
    pipeline = Pipeline(topology, config)
    pipeline.warm_caches()
    return pipeline


def hop_distances(graph) -> list[list[int]]:
    """All-pairs BFS on the topology, independent of the program's own."""
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    rows = []
    for source in range(graph.n):
        dist = [-1] * graph.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u]:indptr[u + 1]]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(dist)
    return rows


class Checker:
    """The output checks of one workload; returns violation names."""

    def __init__(self, n, k, mu_given, dist) -> None:
        import numpy as np

        self.np = np
        self.n = n
        self.k = k
        self.dist = np.asarray(dist, dtype=np.int64)
        self.loads_given = (
            None if mu_given is None else np.bincount(mu_given, minlength=k)
        )
        #: instance -> sha256 of its final mapping
        self.digests: dict[int, str] = {}

    def check(self, instance: int, us, vs, result) -> list[str]:
        np = self.np
        mu = np.asarray(result.mu_final, dtype=np.int64)
        bad: list[str] = []
        if mu.shape != (self.n,):
            return ["mu_length"]
        if mu.min() < 0 or mu.max() >= self.k:
            return ["pe_range"]
        m = result.metrics
        if not m["coco_after"] <= m["coco_before"]:
            bad.append("coco_regressed")
        coco = float(self.dist[mu[us], mu[vs]].sum())
        cut = float(np.count_nonzero(mu[us] != mu[vs]))
        if coco != m["coco_after"] or cut != m["cut_after"]:
            bad.append("reported_quality")
        loads = np.bincount(mu, minlength=self.k)
        if self.loads_given is None:
            cap = (1.0 + inputs.EPSILON) * math.ceil(self.n / self.k)
            if loads.max() > cap + 1e-9:
                bad.append("balance_cap")
        elif not np.array_equal(loads, self.loads_given):
            bad.append("pe_loads_changed")
        digest = hashlib.sha256(mu.tobytes()).hexdigest()
        if self.digests.setdefault(instance, digest) != digest:
            bad.append("nondeterministic_mapping")
        return bad


def main(argv: list[str]) -> int:
    began = time.perf_counter()
    hostspeed.start()
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    topology, supplies_mu = WORKLOADS[workload]
    setup_ledger = Ledger()
    if mode == "trace":
        with traced(setup_ledger):
            pipeline = set_up(topology)
    else:
        pipeline = set_up(topology)
    emit("ready", speed=hostspeed.speed(began, time.perf_counter()))
    if mode == "setup":
        return 0

    import numpy as np
    from repro.graphs.builder import from_arrays

    n = inputs.PIPELINE_N[workload]
    k = pipeline.topology.n
    mu = (
        np.asarray(inputs.round_robin_mapping(n, k), dtype=np.int64)
        if supplies_mu else None
    )
    checker = Checker(n, k, mu, hop_distances(pipeline.topology.graph))
    instances: dict[int, tuple] = {}

    def instance(i: int) -> tuple:
        """Graph ``i`` of this seed as ``(ga, us, vs)``, built untimed."""
        if i not in instances:
            edges = inputs.pipeline_graph(workload, seed, i)
            us = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
            vs = np.fromiter((v for _, v in edges), dtype=np.int64, count=len(edges))
            instances[i] = (from_arrays(n, us, vs, name=f"ba{n}-{i}"), us, vs)
        return instances[i]

    untraced_s: list[tuple[int, float]] = []  # (graph, reference seconds)
    wall_s: list[float] = []  # the same runs' wall seconds
    traced_runs: list[tuple[float, Ledger]] = []
    violations: dict[str, int] = {}
    attempted = failed = 0
    quality: dict = {}  # graph 0's metrics: deterministic per seed

    def one_run(i: int, ledger: Ledger | None) -> bool:
        """One checked ``Pipeline.run`` on graph ``i``; False when it raised."""
        nonlocal attempted, failed
        ga, us, vs = instance(i)
        attempted += 1
        try:
            if ledger is None:
                t0 = time.perf_counter()
                result = pipeline.run(ga, mu=mu, seed=inputs.PIPELINE_RUN_SEED)
                t1 = time.perf_counter()
                untraced_s.append((i, hostspeed.reference_seconds(t0, t1)))
                wall_s.append(t1 - t0)
            else:
                with traced(ledger):
                    t0 = time.perf_counter()
                    result = pipeline.run(ga, mu=mu, seed=inputs.PIPELINE_RUN_SEED)
                    t1 = time.perf_counter()
                traced_runs.append((hostspeed.reference_seconds(t0, t1), ledger))
        except Exception as exc:  # a failed run is counted, not fatal
            violations[f"raised {type(exc).__name__}: {exc}"] = 1
            failed += 1
            return False
        bad = checker.check(i, us, vs, result)
        if i == 0:
            quality.update(result.metrics)
        for name in bad:
            violations[name] = violations.get(name, 0) + 1
        failed += bool(bad)
        return True

    start = time.perf_counter()
    if mode == "measure":
        # Whole rounds over the pool, at least two, so every graph is
        # repeated; a round starts only if one like the last still ends
        # within the window.  A failed run ends the loop.
        pool = inputs.PIPELINE_POOL[workload]
        ok, round_s = True, 0.0
        while ok and (attempted < 2 * pool
                      or time.perf_counter() - start + round_s <= seconds):
            t0 = time.perf_counter()
            ok = all(one_run(i, None) for i in range(pool))
            round_s = time.perf_counter() - t0
    else:
        # graph 0 only, so traced runs can be compared exactly:
        # untraced, traced, traced, then alternating
        while attempted < 3 or time.perf_counter() - start < seconds:
            trace_next = 0 < attempted and len(traced_runs) <= len(untraced_s)
            if not one_run(0, Ledger() if trace_next else None):
                break  # a run raised; the result is already a failure

    out = {
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "digests": [checker.digests[i] for i in sorted(checker.digests)],
        "coco_after": quality.get("coco_after"),
        "cut_after": quality.get("cut_after"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_s": untraced_s,
        "wall_s": wall_s,
        "labels_dim": int(pipeline.topology.labeling.dim),
        "n": n,
        "m": len(instance(0)[1]),
        "pe_count": k,
    }
    if mode == "trace" and traced_runs and untraced_s:
        out["layers"], counter_sets = layer_metrics(setup_ledger, traced_runs, untraced_s)
        if any(c != counter_sets[0] for c in counter_sets[1:]):
            violations["counters_differ"] = 1
            out["failed"] += 1
        out["counters"] = counter_sets
    emit("result", **out)
    return 0


def layer_metrics(setup: Ledger, runs: list[tuple[float, Ledger]],
                  untraced_s: list[tuple[int, float]]):
    """Per-run means of every layer metric, plus each traced run's counters."""
    count = len(runs)
    layers: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        layers[layer + "_s"] = sum(led.seconds[layer] for _, led in runs) / count
    layers["partitioning.self_s"] = (
        sum(led.self_seconds["partitioning.partition"] for _, led in runs) / count
    )
    layers["core.self_s"] = sum(led.self_seconds["core.enhance"] for _, led in runs) / count
    layers["api.overhead_s"] = sum(
        wall - sum(led.seconds[s] for s in STAGE_LAYERS) for wall, led in runs
    ) / count
    layers["topology.labeling_s"] = setup.seconds["topology.labeling"]
    layers["topology.distances_s"] = setup.seconds["topology.distances"]
    # fastest against fastest, as run_s is taken (all on graph 0)
    layers["trace.overhead_s"] = (
        min(wall for wall, _ in runs) - min(s for _, s in untraced_s)
    )
    counter_sets = [{name: led.counters[name] for name in COUNTERS} for _, led in runs]
    layers.update(counter_sets[0])
    return layers, counter_sets


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        hostspeed.stop()  # a SIGALRM after its handler is gone would kill us
    sys.exit(code)
