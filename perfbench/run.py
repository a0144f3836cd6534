"""The repository benchmark: whole runs and served requests, by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline-grid --seed 1 --seconds 40 --trace 0

Workloads (rationale and sizes in ``perfbench/DESIGN.json``):

- ``pipeline-grid``: default ``Pipeline.run`` (kway -> c2 -> timer,
  N_H=10) of six BA graphs (n=1000, m=4) onto grid16x16;
- ``enhance-wide``: ``Pipeline.run(ga, mu=...)`` of a BA graph
  (n=4000) on fattree2x7 (254-bit labels) with mu built by the benchmark;
- ``serve-mixed``: a ``repro serve`` subprocess under two closed-loop
  clients replaying a seeded catalog of /map and /enhance bodies.

Every timing is in reference seconds: wall seconds scaled by how fast
the measuring CPU ran at that moment (``perfbench/hostspeed.py``).
Pipeline graphs repeat within a run and are timed by their fastest
repeat (see :func:`fastest`).

``--trace 0`` prints the end-to-end metrics of untraced runs;
``--trace 1`` prints the per-layer metrics of a traced run and the
tracing overhead.  Every output is checked; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
program is executed from ``src/`` in fresh processes; this script
imports none of it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("pipeline-grid", "enhance-wide", "serve-mixed")
#: fresh set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 5
#: whole-run budget, under the 180 s a run may take
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "throughput_rps": "1/s",
    "coco_after": "hops",
    "cut_after": "edges",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

_S = "s"
PER_LAYER = {
    **{f"partitioning.{x}": _S for x in (
        "partition_s", "self_s", "bisect_s", "coarsen_s", "initial_s", "fm_s",
        "kway_refine_s", "rebalance_s")},
    **{f"partitioning.{x}": "count" for x in (
        "bisections", "fm_calls", "coarsen_levels", "fm_moved", "kway_moved")},
    "mapping.initial_s": _S,
    **{f"core.{x}": _S for x in (
        "enhance_s", "self_s", "app_labeling_s", "swap_s", "contract_s",
        "assemble_s", "objective_s")},
    **{f"core.{x}": "count" for x in (
        "swap_calls", "swaps", "levels", "empty_levels", "hierarchies_accepted")},
    "utils.unique_labels_s": _S,
    "utils.label_sort_keys_s": _S,
    "topology.labeling_s": _S,
    "topology.distances_s": _S,
    "api.overhead_s": _S,
    **{f"serve.{x}": _S for x in (
        "handle_s", "queue_wait_s", "cache_lookup_s", "compute_s", "overhead_s",
        "stage_partition_s", "stage_enhance_s")},
    "serve.batches": "count",
    "serve.batch_size_mean": "requests",
    "serve.coalesced": "count",
    "serve.response_cache_hit_rate": "ratio",
    "serve.labelings_computed": "count",
    "serve.session_evictions": "count",
    "trace.overhead_s": _S,
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


#: A p95 needs ten samples beyond it.
TAIL_SAMPLES = 200


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_p95(values: list[float]) -> float:
    """The p95, or the median when too few samples measure a tail.

    A pipeline run times at most six graphs, where a p95 would be the
    slowest one and swing with every hiccup of the machine.
    """
    if len(values) < TAIL_SAMPLES:
        return statistics.median(values)
    return percentile(values, 0.95)


def fastest(samples) -> dict:
    """Each repeated operation's fastest time, from ``(key, seconds)`` pairs.

    The fastest repeat is the one least disturbed by the host (timeit's
    rule); it smooths what the host-speed probe does not catch.
    """
    best: dict = {}
    for key, seconds in samples:
        best[key] = min(seconds, best.get(key, math.inf))
    return best


def program_env() -> dict:
    """The environment the program runs in: this checkout's ``src`` only,
    and none of the variables that change its behaviour."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("REPRO_LABELING_CACHE", "REPRO_FAULTS"):
        env.pop(var, None)
    return env


class Worker:
    """A ``worker.py`` process; ``setup_s`` is spawn to its ready line."""

    def __init__(self, args: list[str], deadline: float) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
        )
        self._watchdog = threading.Timer(max(deadline - start, 0.0), self.proc.kill)
        self._watchdog.start()
        try:
            ready = self.expect("ready")
        except BaseException:
            self.kill()
            raise
        self.setup_s = (time.perf_counter() - start) * ready["speed"]

    def expect(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError(f"worker exited (code {self.proc.returncode}) before {event!r}")
        record = json.loads(line)
        if record.get("event") != event:
            raise BenchError(f"worker sent {record.get('event')!r}, expected {event!r}")
        return record

    def close(self) -> None:
        self.proc.stdout.close()
        self.proc.wait()
        self._watchdog.cancel()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def kill(self) -> None:
        """Stop the process if it still runs (error paths)."""
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_pipeline(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    base = [workload, str(seed), str(seconds)]
    setups: list[float] = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            worker = Worker(base + ["setup"], deadline)
            worker.close()
            setups.append(worker.setup_s)
    worker = Worker(base + ["trace" if trace else "measure"], deadline)
    setups.append(worker.setup_s)
    try:
        result = worker.expect("result")
        worker.close()
    finally:
        worker.kill()
    report = {k: result[k] for k in (
        "violations", "digests", "n", "m", "labels_dim", "pe_count", "counters")
        if k in result}
    report["run_s_samples"] = result["run_s"]
    report["wall_s_samples"] = result["wall_s"]
    if trace:
        return result, result.get("layers", {}), report
    if not result["run_s"]:
        raise BenchError("no run completed")
    best = list(fastest(result["run_s"]).values())
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(best),
        "latency_p50_s": statistics.median(best),
        "latency_p95_s": latency_p95(best),
        "throughput_rps": len(best) / sum(best),
        "coco_after": result["coco_after"],
        "cut_after": result["cut_after"],
        "success_rate": (result["attempted"] - result["failed"]) / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    report["setup_s_samples"] = setups
    return result, metrics, report


def run_serve(seed: int, seconds: float, trace: bool, deadline: float):
    import serve_load

    # One CPU for this process and the servers it starts, so the probe
    # here samples the CPU the server computes on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    hostspeed.start()
    env = program_env()
    plan = inputs.RequestPlan(seed)
    plan.prepare()

    def serve(traced: bool, window: float):
        server = serve_load.Server(ROOT, env, traced, max(deadline - time.perf_counter(), 1.0))
        try:
            records, elapsed = serve_load.run_load(server, plan, window)
            summary = serve_load.check_replies(plan, records)
            summary["elapsed"] = elapsed
            summary["peak_rss_mb"] = server.peak_rss_mb()
            if traced:
                summary["layers"] = serve_load.layer_metrics(server, summary)
            return server.setup_s, summary
        finally:
            server.stop()

    if trace:
        # Half the window untraced, half traced, same plan from the start.
        _, plain = serve(False, seconds / 2)
        _, summary = serve(True, seconds / 2)
        layers = summary["layers"]
        layers["trace.overhead_s"] = statistics.median(
            summary["computed_latencies"]) - statistics.median(plain["computed_latencies"])
        result = {k: plain[k] + summary[k] for k in ("attempted", "failed")}
        violations = {**plain["violations"], **summary["violations"]}
        report = {"violations": violations, "digest": summary["digest"],
                  "requests": summary["attempted"], "repeats": summary["repeats"]}
        return result, layers, report

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        server = serve_load.Server(ROOT, env, False, max(deadline - time.perf_counter(), 1.0))
        server.stop()
        setups.append(server.setup_s)
    setup_s, summary = serve(False, seconds)
    setups.append(setup_s)
    if not summary["probe_complete"]:
        raise BenchError("fewer requests completed than the quality probe needs")
    latencies = summary["latencies"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(summary["computed_latencies"]),
        "latency_p50_s": statistics.median(latencies),
        "latency_p95_s": latency_p95(latencies),
        "throughput_rps": summary["ok"] / summary["elapsed"],
        "coco_after": summary["coco_after"],
        "cut_after": summary["cut_after"],
        "success_rate": summary["ok"] / summary["attempted"],
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    report = {
        "violations": summary["violations"],
        "digest": summary["digest"],
        "requests": summary["attempted"],
        "repeats": summary["repeats"],
        "computed": len(summary["computed_latencies"]),
        "beyond_p95": sum(x > metrics["latency_p95_s"] for x in latencies),
        "setup_s_samples": setups,
    }
    return summary, metrics, report


def _terminate(signum, frame) -> None:
    # Unwind through every ``finally`` so child processes are stopped.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.workload == "serve-mixed":
            result, values, report = run_serve(args.seed, args.seconds, trace, deadline)
        else:
            result, values, report = run_pipeline(
                args.workload, args.seed, args.seconds, trace, deadline)
    except (BenchError, OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        hostspeed.stop()
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed, **report}}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
