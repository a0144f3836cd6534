"""The ``serve-mixed`` workload: a ``repro serve`` subprocess under
closed-loop load from two clients in one thread.

The server is started exactly as an operator would start it
(``python -m repro serve --port 0``); the benchmark only speaks HTTP to
it.  Per-layer numbers come from ``/metrics?format=json``,
``/debug/traces`` and the ``batch`` section of each reply.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import hostspeed
import inputs

CLIENTS = 2
#: Traces retained by the traced server: more than one run can produce.
TRACE_BUFFER = 100000


class Server:
    """One ``repro serve`` process; ``setup_s`` is spawn to healthy."""

    def __init__(self, root: Path, env: dict, traced: bool, timeout: float) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        cmd += ["--trace-buffer", str(TRACE_BUFFER)] if traced else ["--no-trace"]
        self._address: tuple[str, int] | None = None
        self._listening = threading.Event()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        # The log goes to stderr; draining it keeps the pipe from filling.
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()
        try:
            if not self._listening.wait(timeout) or self._address is None:
                raise RuntimeError("server did not report a listening address")
            self.host, self.port = self._address
            deadline = start + timeout
            while not self._healthy():
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server did not become healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = hostspeed.reference_seconds(start, time.perf_counter())

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            if self._address is None:
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if event.get("event") == "serve_listening":
                    host, port = event["url"].rsplit("//", 1)[1].rsplit(":", 1)
                    self._address = (host, int(port))
                    self._listening.set()
        self._listening.set()  # EOF: the process ended

    def _healthy(self) -> bool:
        try:
            return self.get("/healthz").get("status") == "ok"
        except (OSError, http.client.HTTPException):
            return False

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started in the background of a
        # non-interactive shell inherits SIGINT as ignored.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)


async def _post(reader, writer, path: str, payload: bytes) -> tuple[int, bytes]:
    writer.write(
        (f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
         f"Content-Length: {len(payload)}\r\n\r\n").encode("latin-1") + payload
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _closed_loop(server: Server, plan: inputs.RequestPlan, seconds: float):
    """``CLIENTS`` closed-loop clients, each on its own keep-alive
    connection, taking plan positions in order until ``seconds`` pass."""
    records: list[tuple[int, float, float, int, bytes]] = []
    position = 0
    start = time.perf_counter()
    deadline = start + seconds

    async def client() -> None:
        nonlocal position
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            while time.perf_counter() < deadline:
                pos, position = position, position + 1
                path, _body, payload = plan.request(pos)
                t0 = time.perf_counter()
                status, reply = await _post(reader, writer, path, payload)
                records.append((pos, t0, time.perf_counter(), status, reply))
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    end = time.perf_counter()
    # latencies and the window in reference seconds (see hostspeed)
    return ([(pos, hostspeed.reference_seconds(t0, t1), status, reply)
             for pos, t0, t1, status, reply in records],
            hostspeed.reference_seconds(start, end))


def run_load(server: Server, plan: inputs.RequestPlan, seconds: float):
    return asyncio.run(_closed_loop(server, plan, seconds))


def check_replies(plan: inputs.RequestPlan, records) -> dict:
    """Check every reply; summarize latency, quality and failures."""
    pe_count = dict(inputs.SERVE_TOPOLOGIES)
    violations: Counter = Counter()
    first_mu: dict[int, list[int]] = {}
    latencies, computed, overheads = [], [], []
    probe: dict[int, dict] = {}  # catalog index -> first reply
    failed = 0
    for pos, latency, status, raw in sorted(records):
        latencies.append(latency)
        path, body, _payload = plan.request(pos)
        bad = _check_reply(path, body, status, raw, pe_count[body["topology"]])
        if not bad:
            reply = json.loads(raw)
            idx = plan.index(pos)
            if first_mu.setdefault(idx, reply["mu"]) != reply["mu"]:
                bad.append("repeat_differs")
            if not reply.get("cached"):
                computed.append(latency)
            batch = reply["batch"]
            overheads.append(latency - batch["queue_seconds"] - batch["compute_seconds"])
            if idx < inputs.QUALITY_PROBE:
                probe.setdefault(idx, reply)
        violations.update(bad)
        failed += bool(bad)
    ok = len(records) - failed
    digest = hashlib.sha256(
        json.dumps([probe[p]["mu"] for p in sorted(probe)]).encode()
    ).hexdigest()
    return {
        "attempted": len(records),
        "failed": failed,
        "violations": dict(violations),
        "latencies": latencies,
        "computed_latencies": computed,
        "overheads": overheads,
        "ok": ok,
        "probe_complete": len(probe) == inputs.QUALITY_PROBE,
        "coco_after": statistics.fmean(r["metrics"]["coco_after"] for r in probe.values()),
        "cut_after": statistics.fmean(r["metrics"]["cut_after"] for r in probe.values()),
        "digest": digest,
        "repeats": len(records) - len(first_mu),
    }


def _check_reply(path: str, body: dict, status: int, raw: bytes, k: int) -> list[str]:
    if status != 200:
        return [f"status_{status}"]
    reply = json.loads(raw)
    if reply.get("ok") is not True:
        return ["not_ok"]
    mu = reply["mu"]
    n = body["graph"]["n"]
    if len(mu) != n:
        return ["mu_length"]
    if min(mu) < 0 or max(mu) >= k:
        return ["pe_range"]
    bad = []
    if not reply["metrics"]["coco_after"] <= reply["metrics"]["coco_before"]:
        bad.append("coco_regressed")
    loads = Counter(mu)
    if path == "/enhance":
        if loads != Counter(body["mu"]):
            bad.append("pe_loads_changed")
    elif max(loads.values()) > (1.0 + inputs.EPSILON) * math.ceil(n / k) + 1e-9:
        bad.append("balance_cap")
    return bad


def layer_metrics(server: Server, summary: dict) -> dict:
    """Serve-layer numbers of a traced server after its load phase."""
    metrics = server.get("/metrics?format=json")
    traces = server.get(f"/debug/traces?recent={TRACE_BUFFER}&slowest=0")
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for entry in traces["recent"]:
        for span in entry["spans"]:
            seconds[span["name"]] += span["duration"]
            calls[span["name"]] += 1
    handled = max(calls["handle"], 1)

    def hist_mean(name: str) -> float:
        return float(metrics.get(name, {}).get("mean", 0.0))

    hits = metrics.get("response_cache_hits_total", 0)
    misses = metrics.get("response_cache_misses_total", 0)
    return {
        "serve.handle_s": seconds["handle"] / handled,
        "serve.queue_wait_s": seconds["queue_wait"] / handled,
        "serve.cache_lookup_s": seconds["cache_lookup"] / handled,
        "serve.compute_s": metrics["compute_seconds"]["sum"] / handled,
        "serve.overhead_s": statistics.fmean(summary["overheads"]),
        "serve.stage_partition_s": hist_mean("stage_seconds_partition"),
        "serve.stage_enhance_s": hist_mean("stage_seconds_enhance"),
        "serve.batches": metrics["batches_total"],
        "serve.batch_size_mean": metrics["batch_size"]["mean"],
        "serve.coalesced": metrics["coalesced_total"],
        "serve.response_cache_hit_rate": hits / max(hits + misses, 1),
        "serve.labelings_computed": metrics["labelings_computed"],
        "serve.session_evictions": metrics["cache_sessions_evictions"],
        # The pipeline stages as the server times them, per computed run.
        "partitioning.partition_s": hist_mean("stage_seconds_partition"),
        "mapping.initial_s": hist_mean("stage_seconds_initial_mapping"),
        "core.enhance_s": hist_mean("stage_seconds_enhance"),
    }
