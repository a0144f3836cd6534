"""Supervised worker pool: results, crash recovery, poison bisection."""

import os

import pytest

from repro.errors import (
    ConfigurationError,
    PermanentError,
    PoisonRequestError,
    TransientError,
)
from repro.serve.faults import FAULTS_ENV, FaultPlan
from repro.serve.pool import SupervisedPool


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
