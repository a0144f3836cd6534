"""Supervised worker pool: results, crash recovery, poison bisection."""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    PermanentError,
    PoisonRequestError,
    TransientError,
)
from repro.serve.faults import FAULTS_ENV, FaultPlan
from repro.serve.pool import SupervisedPool, pinned_worker


# Module-level so both fork and spawn start methods can ship them.
def _double(ctx, item):
    return (ctx or 0) + 2 * item


def _crash_on_marker(_ctx, item):
    if isinstance(item, str) and item.startswith("die"):
        os._exit(137)
    if isinstance(item, str) and item.startswith("raise"):
        raise TransientError(f"injected for {item}")
    return item


@pytest.fixture(autouse=True)
def no_inherited_faults():
    # Keeps a plan set in the developer's shell out of these tests (a
    # pool built without a plan reads REPRO_FAULTS), and puts it back.
    saved = os.environ.pop(FAULTS_ENV, None)
    yield
    if saved is None:
        os.environ.pop(FAULTS_ENV, None)
    else:
        os.environ[FAULTS_ENV] = saved


class TestBasics:
    def test_results_in_item_order(self):
        with SupervisedPool(_double, workers=2) as pool:
            futures = pool.submit("p", None, [1, 2, 3])
            assert [f.result(timeout=30) for f in futures] == [2, 4, 6]

    def test_setup_payload_reaches_runner(self):
        with SupervisedPool(_double, workers=1) as pool:
            (future,) = pool.submit("p", 40, [1])
            assert future.result(timeout=30) == 42  # payload 40 + 2*1

    def test_item_exception_fails_only_its_future(self):
        with SupervisedPool(_crash_on_marker, workers=1) as pool:
            futures = pool.submit("p", None, ["a", "raise-1", "b"])
            assert futures[0].result(timeout=30) == "a"
            with pytest.raises(TransientError, match="raise-1"):
                futures[1].result(timeout=30)
            assert futures[2].result(timeout=30) == "b"
            assert pool.stats()["restarts"] == 0  # raise != crash

    def test_unpicklable_work_fails_its_task_not_the_pool(self):
        with SupervisedPool(_double, workers=1) as pool:
            (bad_payload,) = pool.submit("k", lambda: 1, [1])
            with pytest.raises(PermanentError, match="could not be sent"):
                bad_payload.result(timeout=30)
            (bad_item,) = pool.submit("p", None, [lambda: 1])
            with pytest.raises(PermanentError, match="could not be sent"):
                bad_item.result(timeout=30)
            (good,) = pool.submit("p", None, [2])
            assert good.result(timeout=30) == 4

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            SupervisedPool(_double, workers=0)

    def test_submit_after_close_rejected(self):
        pool = SupervisedPool(_double, workers=1)
        pool.close()
        with pytest.raises(TransientError, match="closed"):
            pool.submit("p", None, [1])

    def test_close_fails_pending_futures(self):
        pool = SupervisedPool(_crash_on_marker, workers=1)
        # poison crash-loops until close; its future must not hang forever
        futures = pool.submit("p", None, ["die-loop"])
        pool.close()
        with pytest.raises((TransientError, PoisonRequestError)):
            futures[0].result(timeout=30)


class TestCrashRecovery:
    def test_env_fault_kill_recovers_via_restart(self, monkeypatch):
        # Generation-0 worker dies before its first task; the restarted
        # generation-1 worker (kills are gen-0-scoped) finishes the work.
        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kill_task_indices=(0,)).to_json()
        )
        with SupervisedPool(_double, workers=1) as pool:
            futures = pool.submit("p", None, [5, 6])
            assert [f.result(timeout=30) for f in futures] == [10, 12]
            stats = pool.stats()
        assert stats["restarts"] == 1 and stats["crashes"] == 1

    def test_poison_item_isolated_by_bisection(self):
        with SupervisedPool(_crash_on_marker, workers=1) as pool:
            futures = pool.submit("p", None, ["a", "b", "die-hard", "c"])
            assert futures[0].result(timeout=60) == "a"
            assert futures[1].result(timeout=60) == "b"
            with pytest.raises(PoisonRequestError, match="die-hard"):
                futures[2].result(timeout=60)
            assert futures[3].result(timeout=60) == "c"
            stats = pool.stats()
        assert stats["poisoned"] == 1
        assert stats["restarts"] >= 3  # whole batch, then bisected halves

    def test_singleton_crash_retries_then_poisons(self):
        with SupervisedPool(_crash_on_marker, workers=1, max_item_retries=1) as pool:
            (future,) = pool.submit("p", None, ["die-solo"])
            with pytest.raises(PoisonRequestError):
                future.result(timeout=60)
            assert pool.stats()["poisoned"] == 1

    def test_batchmates_survive_unharmed_after_crash(self):
        # The recovered outputs must equal a crash-free run's outputs.
        with SupervisedPool(_crash_on_marker, workers=2) as pool:
            clean = [f.result(timeout=30) for f in pool.submit("p", None, ["x", "y"])]
        with SupervisedPool(_crash_on_marker, workers=2) as pool:
            futures = pool.submit("p", None, ["x", "die-once", "y"])
            survivors = [futures[0].result(timeout=60), futures[2].result(timeout=60)]
            with pytest.raises(PoisonRequestError):
                futures[1].result(timeout=60)
        assert survivors == clean


def _whoami(_ctx, item):
    return (os.getpid(), item)


class TestWorkerPinning:
    def test_pinned_tasks_share_their_worker(self):
        with SupervisedPool(_whoami, workers=2) as pool:
            on0 = pool.submit("p", None, ["a", "b"], worker=0)
            on1 = pool.submit("p", None, ["c"], worker=1)
            again0 = pool.submit("p", None, ["d"], worker=0)
            pids0 = {f.result(timeout=30)[0] for f in on0 + again0}
            pids1 = {f.result(timeout=30)[0] for f in on1}
            assert len(pids0) == 1 and len(pids1) == 1
            assert pids0 != pids1

    def test_invalid_pin_rejected(self):
        with SupervisedPool(_double, workers=2) as pool:
            with pytest.raises(ConfigurationError):
                pool.submit("p", None, [1], worker=2)
            with pytest.raises(ConfigurationError):
                pool.submit("p", None, [1], worker=-1)

    def test_pinned_worker_keeps_the_golden_routes(self):
        # Rendezvous routes recorded when the pin was a shard router:
        # every topology keeps its worker.
        golden = {
            2: {"grid4x4": 0, "torus8x8": 1, "fattree4x3": 0,
                "fattree2x6": 1, "dragonfly16x6": 0},
            3: {"torus8x8": 2, "fattree4x3": 2, "fattree2x6": 1},
        }
        for workers, routes in golden.items():
            for key, index in routes.items():
                assert pinned_worker(key, workers) == index, (key, workers)
        assert pinned_worker("grid4x4", 1) == 0

    def test_pin_survives_crash_restart(self):
        # Worker indices are stable across restarts, so a pin placed
        # before a crash lands on that slot's replacement process.
        with SupervisedPool(_crash_on_marker, workers=2) as pool:
            (dead,) = pool.submit("p", None, ["die-pin"], worker=1)
            with pytest.raises(PoisonRequestError):
                dead.result(timeout=60)
            (alive,) = pool.submit("p", None, ["ok"], worker=1)
            assert alive.result(timeout=60) == "ok"
            assert pool.stats()["restarts"] >= 1


class TestPayloadLifetime:
    def test_parent_drops_a_payload_once_its_tasks_finish(self):
        with SupervisedPool(_double, workers=1) as pool:
            futures = pool.submit("p", 40, [1, 2])
            assert [f.result(timeout=30) for f in futures] == [42, 44]
            assert pool._payloads == {}
            assert pool._workers[0].seen == {"p"}  # the worker keeps it

    def test_forget_ships_the_payload_again(self):
        with SupervisedPool(_double, workers=1) as pool:
            assert pool.submit("p", 40, [1])[0].result(timeout=30) == 42
            # a key ships once: the worker still runs its first payload
            assert pool.submit("p", 100, [1])[0].result(timeout=30) == 42
            pool.forget("p")
            assert pool.submit("p", 100, [1])[0].result(timeout=30) == 102

    def test_concurrent_submit_and_forget_never_lose_a_payload(self):
        # More submitting threads and workers than cores, a short switch
        # interval, and forgets racing submits on shared keys: a drop
        # that overtook a later payload would fail that task (its worker
        # would hold no payload for the key).
        keys = [f"k{i}" for i in range(3)]

        def hammer(pool, t):
            futures = []
            for i in range(150):
                key = keys[(t + i) % len(keys)]
                futures += pool.submit(key, int(key[1:]), [i])
                if i % 3 == 0:
                    pool.forget(keys[(t + 2 * i) % len(keys)])
            return futures

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SupervisedPool(_double, workers=3) as pool:
                with ThreadPoolExecutor(max_workers=4) as threads:
                    batches = list(threads.map(
                        lambda t: hammer(pool, t), range(4)
                    ))
                for t, futures in enumerate(batches):
                    for i, future in enumerate(futures):
                        key = keys[(t + i) % len(keys)]
                        assert future.result(timeout=60) == int(key[1:]) + 2 * i
                assert pool._payloads == {}
        finally:
            sys.setswitchinterval(saved)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # An exited worker that its new parent has not reaped yet is a zombie.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_workers_exit_when_their_owner_is_killed():
    # SIGKILL gives the owner no chance to close the pool: each worker
    # must notice through EOF on its pipe and exit, not live on orphaned.
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import operator, time\n"
        "from repro.serve.pool import SupervisedPool\n"
        "pool = SupervisedPool(operator.add, workers=2)\n"
        "print(*pool.worker_pids(), flush=True)\n"
        "time.sleep(120)\n"
    )
    pids: list[int] = []
    with subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    ) as owner:
        try:
            pids = [int(p) for p in owner.stdout.readline().split()]
            assert len(pids) == 2
            owner.kill()
            owner.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [p for p in pids if _alive(p)] == []
        finally:
            owner.kill()
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)
