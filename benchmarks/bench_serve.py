"""Serving benchmarks: batching, cache replay, sharding, tracing cost.

Four gated measurements against the real HTTP service, all fired with
deterministic open-loop load profiles (mixed topologies from the
``smoke`` scenario, exponential arrivals):

1. **Batching** -- the batched server (window + max_batch + coalescing)
   vs. the same service with batching disabled (``window=0,
   max_batch=1``) on identical traffic.  Both servers run with the
   response cache *off* so the ratio isolates what batching itself buys.
   Gate: ``speedup >= 2.0``.
2. **Response-cache replay** -- one cache-enabled server, the same
   hot-key profile fired twice.  The second pass replays identities the
   first pass computed, so its requests are answered from the
   run-identity response cache across batching windows -- full fidelity,
   zero recompute (the JSON records the replay pass's batch count and
   ``labelings_computed``).  Gate: replay ``hit_rate >= 0.5``.
3. **Shard scaling** -- a 2-shard cluster vs. a 1-shard cluster (real
   worker processes, consistent-hash front end) on identical traffic
   spread uniformly over the two ``shard-scale`` topologies, with each
   worker's session *and pipeline* LRUs limited to 1 and both disk and
   response caches off.  Rendezvous routing splits the pair 1 + 1, and
   the shard1-routed ``dragonfly16x6`` (1024 PEs) carries expensive
   precomputation.  One worker cannot hold both topologies and swaps on
   every topology switch (~half the requests), re-paying labelings and
   distance matrices each time; two workers each own their routed
   topology and stay warm forever -- locality, not core count, is the
   win, so the gate holds on a single-core runner.
   Gate: ``scaling >= 1.6``.
4. **Cost of tracing** -- the same server and traffic with end-to-end
   tracing on vs. off (response cache disabled on both sides so every
   request walks the instrumented path).  Gate: traced/untraced
   throughput ratio ``>= 0.98`` -- tracing may cost at most 2%.

Writes ``BENCH_serve.json`` next to this file and exits non-zero if any
gate fails, making it a CI gate like ``bench_regress.py``:

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
from pathlib import Path

from repro.api.registry import REGISTRY, SCENARIO
from repro.api.topology import LABELING_CACHE_ENV
from repro.experiments.matrix import Scenario
from repro.experiments.runner import ExperimentConfig
from repro.serve.loadgen import LoadProfile, http_request_json, run_load
from repro.serve.service import ServeSettings, ServerThread
from repro.serve.shard import FrontendThread, ShardCluster

OUTPUT = Path(__file__).parent / "BENCH_serve.json"

# Bench-local scenario for the shard-scaling section, registered at
# import scope (REG001).  Rendezvous over {shard0, shard1} splits the
# topology pair 1 + 1: fattree2x6 -> shard0, dragonfly16x6 -> shard1.
# dragonfly16x6's 1024-PE labeling + distance matrix is the expensive
# precomputation one thrashing worker keeps re-paying; the tiny
# application graphs keep the warm per-request cost low so that
# eviction surplus dominates the measured ratio.
REGISTRY.register(
    SCENARIO,
    "shard-scale",
    Scenario(
        "shard-scale",
        ExperimentConfig(
            instances=("p2p-Gnutella",),
            topologies=("fattree2x6", "dragonfly16x6"),
            cases=("c2",),
            repetitions=1,
            n_hierarchies=0,
            divisor=1024,
            n_min=48,
            n_max=64,
        ),
        "session-locality workload for the shard-scaling gate",
    ),
)

#: enforced batched/unbatched throughput ratio
SPEEDUP_FLOOR = 2.0
#: enforced response-cache hit rate on the replayed pass
CACHE_HIT_FLOOR = 0.5
#: enforced 2-shard / 1-shard throughput ratio on the thrash profile
SHARD_SCALING_FLOOR = 1.6
#: enforced traced/untraced throughput ratio (tracing costs <= 2%)
TRACING_RATIO_FLOOR = 0.98


def _server_stats(metrics: dict) -> dict:
    return {
        "batches_total": metrics.get("batches_total", 0),
        "coalesced_total": metrics.get("coalesced_total", 0),
        "batch_size": metrics.get("batch_size", {}),
        "compute_seconds": metrics.get("compute_seconds", {}),
        "labelings_computed": metrics.get("labelings_computed", 0),
        "response_cache_hits_total": metrics.get(
            "response_cache_hits_total", 0
        ),
        "response_cache_misses_total": metrics.get(
            "response_cache_misses_total", 0
        ),
        "sessions_evictions": metrics.get("cache_sessions_evictions", 0),
    }


async def _fire(profile: LoadProfile, host: str, port: int, label: str):
    """One load run + metrics snapshot against a live endpoint."""
    status, health = await http_request_json(host, port, "GET", "/healthz")
    assert status == 200 and health.get("status") == "ok", (label, health)
    report = await run_load(profile, url=f"http://{host}:{port}")
    status, metrics = await http_request_json(
        host, port, "GET", "/metrics?format=json"
    )
    assert status == 200, label
    if report.errors:
        raise AssertionError(f"{label}: load run had errors: {report.errors}")
    return report, metrics


def _measure(profile: LoadProfile, settings: ServeSettings, label: str) -> dict:
    with ServerThread(settings) as srv:
        report, metrics = asyncio.run(_fire(profile, srv.host, srv.port, label))
    return {
        "settings": {
            "window_ms": settings.window_ms,
            "max_batch": settings.max_batch,
            "response_cache": settings.response_cache,
        },
        "report": report.to_json(),
        "server": _server_stats(metrics),
    }


def _derive(profile: LoadProfile, **overrides) -> LoadProfile:
    base = profile.__dict__ | overrides
    return LoadProfile(**base)


# ----------------------------------------------------------------------
# Section 1: batched vs. unbatched (response cache off on both sides)
# ----------------------------------------------------------------------
def run_batching(profile: LoadProfile) -> dict:
    batched_settings = ServeSettings(
        port=0, window_ms=60.0, max_batch=24, max_queue=4096, response_cache=0,
    )
    unbatched_settings = ServeSettings(
        port=0, window_ms=0.0, max_batch=1, max_queue=4096, response_cache=0,
    )

    # Warmup: touch every topology/config group once so session caches
    # are hot for both measured runs (they share the process-wide LRU).
    warm_profile = _derive(
        profile,
        requests=min(16, profile.requests),
        rate=200.0,
        seed=profile.seed + 1,
        hot_fraction=0.0,  # spread over the whole catalog
    )
    _measure(warm_profile, batched_settings, "warmup")

    batched = _measure(profile, batched_settings, "batched")
    unbatched = _measure(profile, unbatched_settings, "unbatched")
    speedup = (
        batched["report"]["throughput_rps"]
        / unbatched["report"]["throughput_rps"]
    )
    mean_batch = batched["report"]["batch"].get("mean_size", 0.0)
    if not mean_batch > 1.0:
        raise AssertionError(
            f"no batch amortization: mean served batch size {mean_batch}"
        )
    return {
        "batched": batched,
        "unbatched": unbatched,
        "speedup": speedup,
        "floor": SPEEDUP_FLOOR,
    }


# ----------------------------------------------------------------------
# Section 2: cross-window response-cache replay
# ----------------------------------------------------------------------
def run_response_cache(profile: LoadProfile) -> dict:
    settings = ServeSettings(
        port=0, window_ms=25.0, max_batch=24, max_queue=4096,
    )
    cache_profile = _derive(profile, repeat_fraction=0.6)
    with ServerThread(settings) as srv:

        async def go():
            first = await _fire(cache_profile, srv.host, srv.port, "cache-1")
            replay = await _fire(cache_profile, srv.host, srv.port, "cache-2")
            return first, replay

        (first_report, first_metrics), (replay_report, replay_metrics) = (
            asyncio.run(go())
        )
    replay_hits = (
        replay_metrics["response_cache_hits_total"]
        - first_metrics["response_cache_hits_total"]
    )
    replay_batches = (
        replay_metrics["batches_total"] - first_metrics["batches_total"]
    )
    hit_rate = replay_hits / replay_report.requests
    return {
        "first_pass": {
            "report": first_report.to_json(),
            "server": _server_stats(first_metrics),
        },
        "replay": {
            "report": replay_report.to_json(),
            "server": _server_stats(replay_metrics),
            # recompute on the replayed pass only: cached answers cost
            # neither a batch dispatch nor a labeling
            "batches": replay_batches,
            "labelings_computed": (
                replay_metrics.get("labelings_computed", 0)
                - first_metrics.get("labelings_computed", 0)
            ),
        },
        "hit_rate": hit_rate,
        "replay_speedup": (
            replay_report.throughput_rps / first_report.throughput_rps
            if first_report.throughput_rps > 0 else 0.0
        ),
        "floor": CACHE_HIT_FLOOR,
    }


# ----------------------------------------------------------------------
# Section 3: 2-shard vs. 1-shard scaling (session-locality workload)
# ----------------------------------------------------------------------
def _measure_cluster(profile: LoadProfile, shards: int, label: str) -> dict:
    # Workers sized so one process cannot hold both shard-scale
    # topologies: session LRU of 1 AND pipeline LRU of 1 (pipelines pin
    # their topology session, so both bounds are needed to actually
    # evict a labeling), no disk tier, no response cache.  The 1-shard
    # cluster re-pays labelings + distance matrices on every topology
    # switch (~half the requests); the 2-shard cluster's rendezvous
    # split (1 + 1) fits each worker exactly.  Batching is disabled
    # inside the workers (identically for both cluster sizes) so
    # coalescing cannot amortize the eviction cost this section
    # isolates -- section 1 measures batching.
    settings = ServeSettings(
        port=0, window_ms=0.0, max_batch=1, max_queue=4096,
        max_sessions=1, max_pipelines=1, response_cache=0,
    )
    # The disk tier would absorb exactly the recompute this section
    # measures; forked workers inherit the environment, so clear it for
    # the cluster's lifetime.
    saved_disk = os.environ.pop(LABELING_CACHE_ENV, None)
    try:
        with ShardCluster(settings, shards) as cluster:
            with FrontendThread(cluster.backends) as front:
                report, metrics = asyncio.run(
                    _fire(profile, front.host, front.port, label)
                )
    finally:
        if saved_disk is not None:
            os.environ[LABELING_CACHE_ENV] = saved_disk
    return {
        "shards": shards,
        "settings": {
            "window_ms": settings.window_ms,
            "max_batch": settings.max_batch,
            "max_sessions": settings.max_sessions,
            "max_pipelines": settings.max_pipelines,
            "response_cache": settings.response_cache,
        },
        "report": report.to_json(),
        "server": _server_stats(metrics),
        "frontend": metrics.get("frontend", {}),
    }


def run_sharding(profile: LoadProfile) -> dict:
    # hot = the catalog's first entry (fattree2x6) at fraction 0.5: with
    # a 2-entry catalog that is *exactly* uniform traffic, and it keeps
    # both pools non-degenerate.  nh=0 minimizes warm per-request work
    # so the session-eviction surplus dominates.
    shard_profile = _derive(
        profile,
        scenario="shard-scale",
        nh=0,
        seed_pool=1,
        hot_keys=1,
        hot_fraction=0.5,
    )
    one = _measure_cluster(shard_profile, 1, "one-shard")
    two = _measure_cluster(shard_profile, 2, "two-shards")
    scaling = (
        two["report"]["throughput_rps"] / one["report"]["throughput_rps"]
    )
    return {
        "one_shard": one,
        "two_shards": two,
        "scaling": scaling,
        "floor": SHARD_SCALING_FLOOR,
    }


# ----------------------------------------------------------------------
# Section 4: cost of tracing (traced vs. untraced, identical traffic)
# ----------------------------------------------------------------------
def run_tracing_overhead(profile: LoadProfile) -> dict:
    # Span bookkeeping is a few dict writes and one sha256 per request
    # against milliseconds of mapping compute, so the traced server must
    # stay within 2% of the untraced one.  Response cache off so every
    # request exercises the full span tree (cache hits would hide the
    # instrumented path); batching identical on both sides.  The traced
    # server runs *first* so any residual session warmup from earlier
    # sections biases against the gate, not for it.
    base = dict(
        port=0, window_ms=25.0, max_batch=24, max_queue=4096,
        response_cache=0,
    )
    traced = _measure(profile, ServeSettings(**base, trace=True), "traced")
    untraced = _measure(
        profile, ServeSettings(**base, trace=False), "untraced"
    )
    ratio = (
        traced["report"]["throughput_rps"]
        / untraced["report"]["throughput_rps"]
    )
    return {
        "traced": traced,
        "untraced": untraced,
        "throughput_ratio": ratio,
        "overhead_pct": max(0.0, (1.0 - ratio) * 100.0),
        "floor": TRACING_RATIO_FLOOR,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=80)
    ap.add_argument("--rate", type=float, default=300.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nh", type=int, default=1)
    ap.add_argument("--shard-requests", type=int, default=96,
                    help="requests per cluster in the shard-scaling run")
    ap.add_argument(
        "--floor-scale",
        type=float,
        default=1.0,
        help="multiply every floor before enforcing it; CI uses < 1 "
        "to absorb shared-runner noise (the JSON records unscaled floors)",
    )
    args = ap.parse_args(argv)
    profile = LoadProfile(
        scenario="smoke",
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        nh=args.nh,
        seed_pool=1,
        hot_keys=3,
        hot_fraction=0.8,
    )
    batching = run_batching(profile)
    response_cache = run_response_cache(profile)
    sharding = run_sharding(
        _derive(profile, requests=args.shard_requests, rate=150.0)
    )
    tracing = run_tracing_overhead(profile)
    payload = {
        "meta": {
            "python": platform.python_version(),
            "workload": (
                f"{profile.requests} requests at {profile.rate:g}/s, "
                f"scenario {profile.scenario!r}, nh={profile.nh}, "
                f"hot {profile.hot_keys} keys x {profile.hot_fraction:g}"
            ),
            "profile": profile.__dict__ | {"matrix_path": profile.matrix_path},
        },
        # batching section stays at the top level: bench_regress-style
        # consumers read "speedup"/"floor" here as before
        **batching,
        "response_cache": response_cache,
        "sharding": sharding,
        "tracing": tracing,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for label in ("batched", "unbatched"):
        rep = payload[label]["report"]
        lat = rep["latency"]
        print(
            f"{label:10s} {rep['throughput_rps']:7.1f} rps   "
            f"p50 {lat['p50'] * 1e3:7.0f} ms   p95 {lat['p95'] * 1e3:7.0f} ms   "
            f"p99 {lat['p99'] * 1e3:7.0f} ms   mean batch "
            f"{rep['batch'].get('mean_size', 1.0):5.2f}"
        )
    print(
        f"cache      replay hit rate {response_cache['hit_rate']:.2f}  "
        f"({response_cache['replay']['batches']} batches, "
        f"{response_cache['replay']['report']['cached']} cached replies, "
        f"{response_cache['replay_speedup']:.2f}x replay speedup)"
    )
    for key in ("one_shard", "two_shards"):
        rep = sharding[key]["report"]
        print(
            f"{key:10s} {rep['throughput_rps']:7.1f} rps   "
            f"sessions evicted {sharding[key]['server']['sessions_evictions']}"
        )
    print(
        f"tracing    {tracing['traced']['report']['throughput_rps']:7.1f} rps"
        f" traced vs "
        f"{tracing['untraced']['report']['throughput_rps']:7.1f} rps bare  "
        f"({tracing['overhead_pct']:.1f}% overhead)"
    )

    gates = [
        ("speedup", payload["speedup"], SPEEDUP_FLOOR),
        ("cache_hit_rate", response_cache["hit_rate"], CACHE_HIT_FLOOR),
        ("shard_scaling", sharding["scaling"], SHARD_SCALING_FLOOR),
        ("tracing_ratio", tracing["throughput_ratio"], TRACING_RATIO_FLOOR),
    ]
    failed = []
    for name, value, floor in gates:
        enforced = floor * args.floor_scale
        verdict = "ok" if value >= enforced else "FAIL"
        if verdict == "FAIL":
            failed.append(name)
        print(
            f"{name} {value:.2f} (floor {floor:g}, enforcing {enforced:g})"
            f"  {verdict}"
        )
    print(f"wrote {OUTPUT}")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
