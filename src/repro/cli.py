"""File-based command line interface: ``python -m repro <command>``.

Gives downstream users the paper's pipeline on their own METIS graphs
without writing Python:

- ``info GRAPH``                  -- vertex/edge counts, degree stats
- ``recognize GRAPH``             -- partial-cube verdict, dimension, labels
- ``partition GRAPH K``           -- balanced k-way partition (KaHIP stand-in)
- ``map GRAPH TOPOLOGY``          -- partition + initial mapping (c1..c4)
- ``enhance GRAPH TOPOLOGY MU``   -- run TIMER on an existing mapping
- ``serve``                       -- long-running batching mapping service
                                     (JSON over HTTP, or --stdio JSON lines)
- ``loadgen URL``                 -- deterministic open-loop load generator
- ``lint [PATHS]``                -- AST lint enforcing the repo contracts
                                     (see ``docs/development.md``)

``TOPOLOGY`` is either a registered name (``grid16x16``, ``torus8x8x8``,
``hq8``, ... -- see the unified registry, kind ``topology``) or a path to
a METIS file.  Assignments/mappings are plain text: one integer per line,
line i = block/PE of vertex i.

``map`` and ``enhance`` are thin consumers of :class:`repro.api.Pipeline`
-- the same staged path the library quickstart and the experiment harness
use -- with ``seed_policy="raw"`` pinning the CLI's historical per-stage
seeding, so outputs on fixed seeds are byte-identical across the API
redesign.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.api.pipeline import Pipeline, PipelineConfig
from repro.api.topology import Topology
from repro.core.config import TimerConfig
from repro.errors import NotPartialCubeError, ReproError
from repro.graphs.graph import Graph
from repro.graphs.io import read_metis
from repro.partialcube.djokovic import partial_cube_labeling
from repro.partitioning.kway import partition_kway


def _load_graph(path: str) -> Graph:
    return read_metis(path, name=Path(path).stem)


def _write_assignment(path: str | None, values: np.ndarray) -> None:
    text = "\n".join(str(int(v)) for v in values) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_assignment(path: str, n: int) -> np.ndarray:
    values = [int(line) for line in Path(path).read_text().split()]
    if len(values) != n:
        raise ReproError(f"mapping file has {len(values)} entries, expected {n}")
    return np.asarray(values, dtype=np.int64)


def cmd_info(args) -> int:
    g = _load_graph(args.graph)
    deg = g.degrees
    print(f"graph:    {g.name}")
    print(f"vertices: {g.n}")
    print(f"edges:    {g.m}")
    print(f"degree:   min {deg.min() if g.n else 0}, "
          f"mean {deg.mean() if g.n else 0:.2f}, max {deg.max() if g.n else 0}")
    print(f"total edge weight: {g.total_edge_weight():.1f}")
    return 0


def cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    try:
        pc = partial_cube_labeling(g)
    except NotPartialCubeError as exc:
        print(f"NOT a partial cube: {exc} (reason: {exc.reason})")
        return 1
    print(f"partial cube of dimension {pc.dim}")
    if args.labels:
        from repro.utils.bitops import label_to_int

        for v in range(g.n):
            print(f"{v} {label_to_int(pc.labels, v):0{pc.dim}b}")
    return 0


def cmd_partition(args) -> int:
    g = _load_graph(args.graph)
    part = partition_kway(g, args.k, epsilon=args.epsilon, seed=args.seed)
    print(f"cut = {part.edge_cut():.1f}, imbalance = {part.imbalance():.4f}",
          file=sys.stderr)
    _write_assignment(args.out, part.assignment)
    return 0


def _print_reports(res) -> None:
    """Render --report hook outputs on stderr (stdout carries the mapping)."""
    for name, value in res.reports.items():
        print(f"[report {name}] {value}", file=sys.stderr)


def cmd_map(args) -> int:
    g = _load_graph(args.graph)
    topology = Topology.from_spec(args.topology)
    # The mapping itself never needs the labeling, but the historical CLI
    # validated every topology as a partial cube up front -- keep that
    # contract (a non-partial-cube file fails loudly here, not later in
    # `enhance`).  Sessions cache it, so `enhance` then gets it for free.
    topology.labeling
    pipe = Pipeline(
        topology,
        PipelineConfig(
            initial_mapping=args.case,
            enhance="none",
            epsilon=args.epsilon,
            seed_policy="raw",
            post_verify=("mapping-valid",) + tuple(args.verify),
            reports=tuple(args.report),
            backend=args.backend,
        ),
    )
    res = pipe.run(g, seed=args.seed)
    print(
        f"Coco = {res.coco_after:.1f} "
        f"(mapping time {res.stage_seconds('initial_mapping'):.2f}s)",
        file=sys.stderr,
    )
    _print_reports(res)
    _write_assignment(args.out, res.mu_final)
    return 0


def cmd_enhance(args) -> int:
    g = _load_graph(args.graph)
    topology = Topology.from_spec(args.topology)
    mu = _read_assignment(args.mu, g.n)
    pipe = Pipeline(
        topology,
        PipelineConfig(
            partition="none",
            initial_mapping="none",
            enhance="timer",
            seed_policy="raw",
            timer=TimerConfig(n_hierarchies=args.nh, swap_strategy=args.strategy),
            pre_verify=("mapping-valid",),
            post_verify=("balance-preserved",) + tuple(args.verify),
            reports=tuple(args.report),
            backend=args.backend,
        ),
    )
    res = pipe.run(g, mu=mu, seed=args.seed)
    timer = res.timer
    print(
        f"Coco {res.coco_before:.1f} -> {res.coco_after:.1f} "
        f"({res.coco_improvement:.1%}), cut {res.cut_before:.1f} -> "
        f"{res.cut_after:.1f}, {timer.hierarchies_accepted}/{args.nh} accepted, "
        f"{timer.elapsed_seconds:.2f}s",
        file=sys.stderr,
    )
    _print_reports(res)
    _write_assignment(args.out, res.mu_final)
    return 0


def cmd_serve(args) -> int:
    # Imported here so the file-based commands never pay for asyncio.
    from repro.serve.service import ServeSettings, run_server

    settings = ServeSettings(
            host=args.host,
            port=args.port,
            window_ms=args.window_ms,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            max_sessions=args.max_sessions,
            max_pipelines=args.max_pipelines,
            labeling_cache=args.labeling_cache,
            max_graph_n=args.max_n,
            warm=tuple(args.warm),
            stdio=args.stdio,
            workers=args.workers,
            retry_attempts=args.retry_attempts,
            retry_base_ms=args.retry_base_ms,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset,
            faults=args.faults,
            backend=args.backend,
            response_cache=args.response_cache,
            response_cache_bytes=args.response_cache_mb * 1024 * 1024,
            shards=args.shards,
            trace=not args.no_trace,
            trace_buffer=args.trace_buffer,
            profile=args.profile,
        )
    if settings.shards > 0:
        if settings.stdio:
            print("repro serve: --shards requires HTTP (drop --stdio)",
                  file=sys.stderr)
            return 2
        from repro.serve.shard import run_sharded_server

        return run_sharded_server(settings)
    return run_server(settings)


def cmd_loadgen(args) -> int:
    from repro.serve.loadgen import LoadProfile, generate_load

    profile = LoadProfile(
        scenario=args.scenario,
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        nh=args.nh,
        seed_pool=args.seed_pool,
        hot_keys=args.hot_keys,
        hot_fraction=args.hot_fraction,
        deadline_s=args.deadline,
        matrix_path=args.matrix,
        allow_degraded=args.allow_degraded,
        repeat_fraction=args.repeat_fraction,
        enhance_fraction=args.enhance_fraction,
        trace_sample=args.trace_sample,
    )
    report = generate_load(profile, args.url)
    print(report.render(), file=sys.stderr)
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.ok == report.requests else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="TIMER mapping pipeline on METIS graph files.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("info", help="graph statistics")
    q.add_argument("graph")
    q.set_defaults(fn=cmd_info)

    q = sub.add_parser("recognize", help="partial-cube recognition + labels")
    q.add_argument("graph")
    q.add_argument("--labels", action="store_true", help="print vertex labels")
    q.set_defaults(fn=cmd_recognize)

    q = sub.add_parser("partition", help="balanced k-way partition")
    q.add_argument("graph")
    q.add_argument("k", type=int)
    q.add_argument("--epsilon", type=float, default=0.03)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--out", default=None)
    q.set_defaults(fn=cmd_partition)

    def add_backend_flag(parser) -> None:
        parser.add_argument(
            "--backend",
            default="",
            metavar="NAME",
            help="kernel backend (numpy, numba, numba-parallel, auto); "
            "default: auto-select, honouring repro.api.set_default_backend",
        )

    def add_hook_flags(parser) -> None:
        parser.add_argument(
            "--verify",
            action="append",
            default=[],
            metavar="NAME",
            help="additional post-run verify hook from the registry "
            "(repeatable); unknown names list the known ones",
        )
        parser.add_argument(
            "--report",
            action="append",
            default=[],
            metavar="NAME",
            help="report hook from the registry (repeatable); results "
            "print to stderr",
        )

    q = sub.add_parser("map", help="partition + initial mapping")
    q.add_argument("graph")
    q.add_argument("topology", help="registered name or METIS file")
    q.add_argument("--case", choices=["c1", "c2", "c3", "c4"], default="c2")
    q.add_argument("--epsilon", type=float, default=0.03)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--out", default=None)
    add_backend_flag(q)
    add_hook_flags(q)
    q.set_defaults(fn=cmd_map)

    q = sub.add_parser("enhance", help="run TIMER on an existing mapping")
    q.add_argument("graph")
    q.add_argument("topology")
    q.add_argument("mu", help="mapping file (one PE id per line)")
    q.add_argument("--nh", type=int, default=50)
    q.add_argument("--strategy", choices=["greedy", "kl"], default="greedy")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("-o", "--out", default=None)
    add_backend_flag(q)
    add_hook_flags(q)
    q.set_defaults(fn=cmd_enhance)

    q = sub.add_parser("serve", help="long-running batching mapping service")
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, default=8080, help="0 = ephemeral")
    q.add_argument("--window-ms", type=float, default=25.0,
                   help="micro-batching window (milliseconds)")
    q.add_argument("--max-batch", type=int, default=16,
                   help="dispatch a group at this many requests")
    q.add_argument("--max-queue", type=int, default=256,
                   help="admission bound on in-flight requests (429 beyond)")
    q.add_argument("--max-sessions", type=int, default=None,
                   help="bound the topology session LRU (evictions fall "
                   "back to the labeling disk cache)")
    q.add_argument("--max-pipelines", type=int, default=64,
                   help="bound memoized per-group pipelines (pipelines pin "
                   "their topology session in memory)")
    q.add_argument("--labeling-cache", default=None, metavar="DIR",
                   help="enable the npz labeling disk cache in DIR")
    q.add_argument("--max-n", type=int, default=None,
                   help="reject application graphs above this many vertices")
    q.add_argument("--warm", action="append", default=[], metavar="TOPOLOGY",
                   help="precompute this topology's labeling at startup "
                   "(repeatable)")
    q.add_argument("--stdio", action="store_true",
                   help="JSON-lines over stdin/stdout instead of HTTP")
    q.add_argument("--workers", type=int, default=0,
                   help="supervised worker processes (0 = compute "
                   "in-process; >0 survives worker crashes)")
    q.add_argument("--retry-attempts", type=int, default=3,
                   help="total tries per request on transient failures")
    q.add_argument("--retry-base-ms", type=float, default=50.0,
                   help="base backoff delay (doubles per attempt, "
                   "deterministically jittered)")
    q.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive failures opening a group's circuit "
                   "breaker")
    q.add_argument("--breaker-reset", type=float, default=10.0,
                   help="seconds an open breaker waits before a "
                   "half-open probe")
    q.add_argument("--faults", default=None, metavar="JSON",
                   help="deterministic fault-injection plan (JSON; "
                   "overrides REPRO_FAULTS)")
    q.add_argument("--response-cache", type=int, default=128,
                   help="max entries in the run-identity response cache "
                   "(0 disables it)")
    q.add_argument("--response-cache-mb", type=int, default=64,
                   help="byte budget of the response cache in MiB "
                   "(0 disables it)")
    q.add_argument("--shards", type=int, default=0,
                   help="serve through a consistent-hash front end over "
                   "this many backend worker processes (0 = single "
                   "process); topologies pin to shards, keeping each "
                   "shard's session and response caches hot")
    q.add_argument("--no-trace", action="store_true",
                   help="disable end-to-end tracing (deterministic span "
                   "trees in /debug/traces; on by default, <2%% cost)")
    q.add_argument("--trace-buffer", type=int, default=256,
                   help="traces retained per process in the /debug/traces "
                   "ring buffer")
    q.add_argument("--profile", action="store_true",
                   help="attach cProfile top-frame hotspots to each "
                   "compute span (diagnostic; adds overhead)")
    add_backend_flag(q)
    q.set_defaults(fn=cmd_serve)

    q = sub.add_parser("loadgen", help="deterministic open-loop load generator")
    q.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8080")
    q.add_argument("--scenario", default="smoke",
                   help="scenario naming the request mix (default: smoke)")
    q.add_argument("--matrix", default=None, help="TOML/JSON matrix file")
    q.add_argument("--requests", type=int, default=60)
    q.add_argument("--rate", type=float, default=40.0,
                   help="offered load in requests/second")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--nh", type=int, default=2,
                   help="TIMER hierarchies per request")
    q.add_argument("--seed-pool", type=int, default=2,
                   help="distinct request seeds per catalog combination")
    q.add_argument("--hot-keys", type=int, default=3,
                   help="size of the hot request set")
    q.add_argument("--hot-fraction", type=float, default=0.6,
                   help="share of traffic on the hot set")
    q.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds")
    q.add_argument("--allow-degraded", action="store_true",
                   help="let the server satisfy requests from the "
                   "degradation ladder (cached / no-enhance results)")
    q.add_argument("--repeat-fraction", type=float, default=0.0,
                   help="share of requests repeating an earlier request "
                   "verbatim (response-cache hot keys)")
    q.add_argument("--enhance-fraction", type=float, default=0.0,
                   help="share of requests converted to /enhance with a "
                   "deterministic supplied mapping")
    q.add_argument("--trace-sample", type=float, default=1.0,
                   help="deterministic fraction of requests retained in "
                   "server-side trace buffers (the rest send a "
                   "{'trace': {'sample': false}} opt-out hint)")
    q.add_argument("--out", default=None, help="write the JSON report here")
    q.set_defaults(fn=cmd_loadgen)

    q = sub.add_parser(
        "lint",
        help="AST lint enforcing the repo's determinism / backend-dispatch "
        "/ serve-hygiene contracts (see docs/development.md)",
    )
    add_lint_arguments(q)
    q.set_defaults(fn=run_lint)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
