"""Supervised multi-process worker pool with crash recovery.

The pool executes *tasks* -- ``(payload_key, items)`` batches -- on a
fixed set of worker processes and returns one
:class:`concurrent.futures.Future` per item.  Unlike
:class:`multiprocessing.Pool`, a worker dying (segfault, OOM kill,
injected chaos fault) does not poison the pool or lose work:

1. the supervisor thread detects the death through the worker's
   process sentinel / connection EOF,
2. starts a replacement worker (``generation + 1``, so generation-
   scoped fault plans do not crash-loop),
3. and requeues the in-flight task: a first crash retries the batch
   whole, repeated crashes *bisect* it so a single poison item is
   isolated in ``O(log n)`` worker deaths and failed with
   :class:`~repro.errors.PoisonRequestError` while every other item in
   the batch still succeeds.

Payloads (e.g. a pipeline) are content-addressed by ``payload_key`` and
shipped to each worker at most once; workers unpickle each payload on
first use and keep it, so repeated batches for the same group reuse
warm caches.  Per-item *exceptions* raised by ``runner`` are not
crashes -- they travel back on the result channel and fail only their
own future, which is what lets the serve layer's retry policy treat
injected :class:`TransientError` faults differently from worker deaths.
A task whose payload or items cannot be pickled fails with
:class:`~repro.errors.PermanentError`; the supervisor keeps serving
every other task.

Everything here is deliberately deterministic: no randomized backoff,
no time-based decisions beyond liveness polling.  Retry pacing and
circuit breaking live one layer up (:mod:`repro.serve.retry`).
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection

from repro.errors import (
    ConfigurationError,
    PermanentError,
    PoisonRequestError,
    TransientError,
)
from repro.obs import get_logger, set_process_fields
from repro.serve.faults import FaultClock, FaultPlan, on_item, on_task
from repro.utils.parallel import preferred_mp_context


def _sendable(exc: BaseException) -> Exception:
    """Return ``exc`` if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc  # type: ignore[return-value]
    except Exception:
        return PermanentError(f"{type(exc).__name__}: {exc}")


def _worker_main(conn, runner, generation: int) -> None:
    """Worker process loop: receive payloads and tasks, send results.

    A worker keeps payloads as the pickled bytes the parent sent and
    their unpickled contexts keyed by ``payload_key``; re-sending a key
    replaces both.  Unpickling happens inside the task's ``try``, so a
    payload that cannot be rebuilt here fails its task's items instead
    of killing the worker.  Fault hooks run *inside* the worker so an
    injected kill takes down a real process and exercises the
    supervisor's actual recovery path.
    """
    set_process_fields(worker_generation=generation)
    plan = FaultPlan.from_env()
    clock = FaultClock()
    blobs: dict[str, bytes] = {}
    contexts: dict[str, object] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "stop":
            return
        if kind == "payload":
            _, key, blob = msg
            blobs[key] = blob
            contexts.pop(key, None)
            continue
        _, task_id, key, items = msg
        results: list[tuple[str, object]] = []
        try:
            on_task(plan, clock, generation=generation)
            if key not in contexts:
                contexts[key] = pickle.loads(blobs[key])
            ctx = contexts[key]
        except Exception as exc:
            err = _sendable(exc)
            results = [("err", err) for _ in items]
        else:
            for item in items:
                try:
                    on_item(plan, item, clock)
                    results.append(("ok", runner(ctx, item)))
                except Exception as exc:
                    results.append(("err", _sendable(exc)))
        try:
            conn.send(("result", task_id, results))
        except (BrokenPipeError, OSError):
            return


class _Task:
    __slots__ = ("id", "payload_key", "items", "futures", "crashes", "worker")

    def __init__(self, task_id, payload_key, items, futures, crashes=0,
                 worker=None):
        self.id = task_id
        self.payload_key = payload_key
        self.items = items
        self.futures = futures
        self.crashes = crashes
        #: worker index this task is pinned to (None = any worker).  The
        #: supervisor keeps worker indices stable across crash restarts,
        #: so a pin survives its worker dying -- the replacement at the
        #: same index picks the task up.
        self.worker = worker


class _Worker:
    __slots__ = ("proc", "conn", "generation", "seen", "current", "dead")

    def __init__(self, proc, conn, generation):
        self.proc = proc
        self.conn = conn
        self.generation = generation
        self.seen: set[str] = set()
        self.current: _Task | None = None
        self.dead = False


class SupervisedPool:
    """A crash-tolerant process pool (see module docstring).

    Parameters
    ----------
    runner:
        picklable ``runner(payload, item) -> result`` executed per item.
    workers:
        number of worker processes (the pool keeps this many alive).
    max_item_retries:
        how many times a *singleton* task may crash its worker before
        the item is failed with :class:`PoisonRequestError`.
    """

    def __init__(
        self,
        runner,
        workers: int = 2,
        max_item_retries: int = 1,
        name: str = "pool",
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"pool needs >= 1 worker, got {workers}")
        if max_item_retries < 0:
            raise ConfigurationError("max_item_retries must be >= 0")
        self._runner = runner
        self._size = int(workers)
        self._ctx = preferred_mp_context()
        self._max_item_retries = int(max_item_retries)
        self._name = name
        self._lock = threading.Lock()
        self._pending: deque[_Task] = deque()
        self._payloads: dict[str, object] = {}
        self._task_ids = itertools.count()
        self._worker_ids = itertools.count()
        self._running = True
        self._restarts = 0
        self._crashes = 0
        self._poisoned = 0
        self._tasks_dispatched = 0
        self._log = get_logger("serve.pool").bind(pool=name)
        self._wake_r, self._wake_w = os.pipe()
        self._workers = [self._spawn(0) for _ in range(self._size)]
        self._thread = threading.Thread(
            target=self._supervise, name=f"{name}-supervisor", daemon=True
        )
        self._thread.start()

    # -- public API ----------------------------------------------------
    def submit(
        self, payload_key: str, payload, items, worker: int | None = None
    ) -> list[Future]:
        """Queue one task; returns a future per item (in item order).

        ``worker`` pins the task to one worker index (cache affinity:
        e.g. consistent-hash routing of topologies so each worker's
        session cache stays hot); ``None`` lets any idle worker take it.
        """
        items = list(items)
        if not items:
            return []
        if worker is not None and not 0 <= int(worker) < self._size:
            raise ConfigurationError(
                f"worker pin {worker} outside pool of {self._size}"
            )
        futures = [Future() for _ in items]
        with self._lock:
            if not self._running:
                raise TransientError("worker pool is closed")
            self._payloads[payload_key] = payload
            self._pending.append(
                _Task(next(self._task_ids), payload_key, items, futures,
                      worker=None if worker is None else int(worker))
            )
        self._wake()
        return futures

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self._size,
                "restarts": self._restarts,
                "crashes": self._crashes,
                "poisoned": self._poisoned,
                "tasks_dispatched": self._tasks_dispatched,
                "pending": len(self._pending),
            }

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    def worker_pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers if w.proc.pid is not None]

    def close(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
        self._wake()
        self._thread.join(timeout=10)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervisor thread ---------------------------------------------
    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _spawn(self, generation: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._runner, generation),
            daemon=True,
            name=f"{self._name}-w{next(self._worker_ids)}g{generation}",
        )
        proc.start()
        child_conn.close()
        self._log.debug(
            "worker_spawned", worker=proc.name, worker_generation=generation
        )
        return _Worker(proc, parent_conn, generation)

    def _supervise(self) -> None:
        try:
            while True:
                with self._lock:
                    if not self._running:
                        break
                self._dispatch()
                waitables = [w.conn for w in self._workers if not w.dead]
                waitables += [w.proc.sentinel for w in self._workers if not w.dead]
                waitables.append(self._wake_r)
                ready = connection.wait(waitables, timeout=0.2)
                for obj in ready:
                    if obj == self._wake_r:
                        try:
                            os.read(self._wake_r, 65536)
                        except OSError:
                            pass
                        continue
                    worker = self._worker_for(obj)
                    if worker is None or worker.dead:
                        continue
                    if obj is worker.conn:
                        self._on_readable(worker)
                    else:
                        self._on_exit(worker)
        finally:
            self._shutdown()

    def _worker_for(self, obj) -> _Worker | None:
        for w in self._workers:
            if obj is w.conn or obj == w.proc.sentinel:
                return w
        return None

    def _dispatch(self) -> None:
        for index, worker in enumerate(self._workers):
            if worker.dead or worker.current is not None:
                continue
            with self._lock:
                if not self._pending:
                    return
                # First pending task this worker may run: unpinned tasks
                # go to anyone, pinned tasks only to their index.
                task = next(
                    (t for t in self._pending
                     if t.worker is None or t.worker == index),
                    None,
                )
                if task is None:
                    continue  # only tasks pinned to busy workers remain
                self._pending.remove(task)
                payload = self._payloads[task.payload_key]
            try:
                if task.payload_key not in worker.seen:
                    blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                    worker.conn.send(("payload", task.payload_key, blob))
                    worker.seen.add(task.payload_key)
                worker.conn.send(("task", task.id, task.payload_key, task.items))
            except (BrokenPipeError, OSError):
                # worker died before the task ever reached it: requeue
                # without charging a crash to the task, reap via sentinel.
                with self._lock:
                    self._pending.appendleft(task)
                continue
            except Exception as exc:  # noqa: BLE001 - payload/items unpicklable
                # Pickling fails before any byte is written, so the pipe
                # is still clean: fail this task and keep supervising.
                self._log.warn(
                    "task_unsendable", error=type(exc).__name__, message=str(exc)
                )
                err = PermanentError(
                    f"task could not be sent to a worker: "
                    f"{type(exc).__name__}: {exc}"
                )
                for future in task.futures:
                    if not future.done():
                        future.set_exception(err)
                continue
            worker.current = task
            with self._lock:
                self._tasks_dispatched += 1

    def _on_readable(self, worker: _Worker) -> None:
        try:
            while worker.conn.poll():
                msg = worker.conn.recv()
                self._handle_result(worker, msg)
        except (EOFError, OSError):
            self._on_exit(worker)

    def _handle_result(self, worker: _Worker, msg) -> None:
        if not msg or msg[0] != "result":
            return
        _, task_id, results = msg
        task = worker.current
        if task is None or task.id != task_id:
            return
        worker.current = None
        for future, (kind, value) in zip(task.futures, results):
            if future.done():
                continue
            if kind == "ok":
                future.set_result(value)
            else:
                future.set_exception(value)

    def _on_exit(self, worker: _Worker) -> None:
        if worker.dead:
            return
        if worker.proc.is_alive():
            # Spurious wake (stale fd number reused by a fresh worker's
            # sentinel): a live process is never treated as crashed.
            return
        # A worker may have sent its result and *then* died (e.g. a kill
        # fault on the next task's hook): drain before declaring loss.
        try:
            while worker.conn.poll():
                self._handle_result(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        worker.dead = True
        task = worker.current
        worker.current = None
        worker.proc.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:
            pass
        self._log.warn(
            "worker_crashed",
            worker=worker.proc.name,
            worker_generation=worker.generation,
            exitcode=worker.proc.exitcode,
            task_lost=task is not None,
        )
        index = self._workers.index(worker)
        self._workers[index] = self._spawn(worker.generation + 1)
        with self._lock:
            self._crashes += 1
            self._restarts += 1
        if task is not None:
            self._requeue_crashed(task)

    def _requeue_crashed(self, task: _Task) -> None:
        task.crashes += 1
        if len(task.items) == 1:
            if task.crashes > self._max_item_retries:
                tag = repr(task.items[0])[:120]
                exc = PoisonRequestError(
                    f"work item crashed its worker {task.crashes} times "
                    f"and was isolated by bisection: {tag}"
                )
                with self._lock:
                    self._poisoned += 1
                if not task.futures[0].done():
                    task.futures[0].set_exception(exc)
                return
            with self._lock:
                self._pending.appendleft(task)
            return
        if task.crashes >= 2:
            # Bisect: each half starts with one crash on record so a
            # further death splits it again immediately -- a poison item
            # is cornered in O(log n) restarts.
            mid = len(task.items) // 2
            left = _Task(
                next(self._task_ids),
                task.payload_key,
                task.items[:mid],
                task.futures[:mid],
                crashes=1,
                worker=task.worker,
            )
            right = _Task(
                next(self._task_ids),
                task.payload_key,
                task.items[mid:],
                task.futures[mid:],
                crashes=1,
                worker=task.worker,
            )
            with self._lock:
                self._pending.appendleft(right)
                self._pending.appendleft(left)
            return
        with self._lock:
            self._pending.appendleft(task)

    def _shutdown(self) -> None:
        for worker in self._workers:
            if worker.dead:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        orphans: list[_Task] = []
        for worker in self._workers:
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.current is not None:
                orphans.append(worker.current)
                worker.current = None
        with self._lock:
            while self._pending:
                orphans.append(self._pending.popleft())
        for task in orphans:
            for future in task.futures:
                if not future.done():
                    future.set_exception(TransientError("worker pool closed"))
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass
