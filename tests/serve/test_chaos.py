"""Failure-edge behavior of the scheduler: crashes, retries, breakers,
degradation.  Every surviving response must stay byte-identical to a
direct ``Pipeline.run`` -- fault tolerance never buys approximation on
the non-degraded path."""

import asyncio
import os
import time

import numpy as np
import pytest

from repro.api.pipeline import Pipeline
from repro.errors import (
    CircuitOpenError,
    PoisonRequestError,
    TransientError,
)
from repro.graphs import generators as gen
from repro.serve.faults import FAULTS_ENV, FaultPlan
from repro.serve.retry import CircuitBreaker, RetryPolicy
from repro.serve.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    GraphSpec,
    MapRequest,
)
from repro.serve.service import parse_config


@pytest.fixture(autouse=True)
def no_fault_leakage():
    # Keeps a plan set in the developer's shell out of these tests (a
    # scheduler built without a plan reads REPRO_FAULTS), and puts it back.
    saved = os.environ.pop(FAULTS_ENV, None)
    yield
    if saved is None:
        os.environ.pop(FAULTS_ENV, None)
    else:
        os.environ[FAULTS_ENV] = saved


def _request(seed=0, instance="p2p-Gnutella", topology="grid4x4", **kwargs):
    return MapRequest(
        topology=topology,
        graph=GraphSpec(kind="generate", instance=instance, seed=seed),
        config=parse_config({"nh": 1}),
        seed=seed,
        **kwargs,
    )


def _direct(request):
    pipe = Pipeline(request.topology, request.config)
    return pipe.run(request.graph.build(), seed=request.seed)


def run(coro):
    return asyncio.run(coro)


class TestWorkerCrashRecovery:
    def test_killed_worker_mid_batch_with_coalesced_waiters(self):
        # Three requests, two coalesced onto one work item.  The only
        # worker dies before its first task; the supervisor restarts it
        # and requeues, and every waiter still gets the exact payload.
        requests = [_request(seed=1), _request(seed=1), _request(seed=2)]
        direct = [_direct(r) for r in requests]

        async def go():
            scheduler = BatchScheduler(
                max_batch=8,
                workers=1,
                faults=FaultPlan(kill_task_indices=(0,)),
            )
            try:
                served = await asyncio.gather(
                    *(scheduler.submit(r) for r in requests)
                )
                return served, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        served, metrics = run(go())
        for s, d in zip(served, direct):
            assert np.array_equal(s.result.mu_final, d.mu_final)
            assert s.result.metrics == d.metrics
            assert not s.degraded
        assert served[1].coalesced  # coalescing survived the crash
        assert metrics["worker_restarts"] == 1

    def test_poison_request_isolated_batchmates_succeed(self):
        # seed 777 appears in its work item's repr; the marker makes any
        # worker touching it die, in every generation.  Bisection must
        # corner it: 500 for the poison, exact payloads for the rest.
        poison = _request(seed=777)
        mates = [_request(seed=1), _request(seed=2)]
        direct = [_direct(r) for r in mates]

        async def go():
            scheduler = BatchScheduler(
                max_batch=8,
                workers=1,
                faults=FaultPlan(poison_markers=("777",)),
            )
            try:
                results = await asyncio.gather(
                    scheduler.submit(mates[0]),
                    scheduler.submit(mates[1]),
                    scheduler.submit(poison),
                    return_exceptions=True,
                )
                return results, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        results, metrics = run(go())
        assert isinstance(results[2], PoisonRequestError)
        for served, d in zip(results[:2], direct):
            assert np.array_equal(served.result.mu_final, d.mu_final)
        assert metrics["poisoned_requests"] == 1
        assert metrics["failures_total"]["PoisonRequestError"] == 1


class TestPlanScope:
    def test_closed_chaos_scheduler_leaves_no_plan_behind(self):
        # The plan reaches only this scheduler's own pool workers, so a
        # later pool in the same process computes without faults.
        BatchScheduler(workers=2, faults=FaultPlan(item_error_every=2)).close()
        assert FAULTS_ENV not in os.environ
        pipe = Pipeline("grid4x4", parse_config({"nh": 1}))
        graphs = [gen.barabasi_albert(48 + 8 * i, 2, seed=i) for i in range(4)]
        pooled = pipe.run_batch(graphs, seed=1, jobs=2)
        inline = pipe.run_batch(graphs, seed=1)
        for a, b in zip(pooled, inline):
            assert np.array_equal(a.mu_final, b.mu_final)


class TestRetries:
    def _flaky_pipe(self, scheduler, request, failures):
        """Make the group's pipeline fail ``failures`` times, then work."""
        pipe = scheduler.pipeline_for(request)
        real = pipe.run
        calls = {"n": 0}

        def run(ga, **kwargs):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransientError("injected run failure")
            return real(ga, **kwargs)

        pipe.run = run
        return calls

    def test_transient_failure_retried_to_success(self):
        request = _request(seed=4)
        direct = _direct(request)

        async def go():
            scheduler = BatchScheduler(
                retry=RetryPolicy(max_attempts=3, base_delay=0.001),
            )
            calls = self._flaky_pipe(scheduler, request, failures=1)
            try:
                served = await scheduler.submit(request)
                return served, calls["n"], scheduler.metrics.render_json()
            finally:
                scheduler.close()

        served, calls, metrics = run(go())
        assert np.array_equal(served.result.mu_final, direct.mu_final)
        assert calls == 2
        assert metrics["retries_total"] == 1

    def test_retry_exhaustion_surfaces_transient(self):
        request = _request(seed=4)

        async def go():
            scheduler = BatchScheduler(
                retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            )
            self._flaky_pipe(scheduler, request, failures=99)
            try:
                with pytest.raises(TransientError, match="injected"):
                    await scheduler.submit(request)
                return scheduler.metrics.render_json()
            finally:
                scheduler.close()

        metrics = run(go())
        assert metrics["retries_total"] == 1  # one backoff, then gave up
        assert metrics["failures_total"]["TransientError"] == 1

    def test_deadline_expiry_during_backoff(self):
        # The next backoff would outlive every waiter's deadline: fail
        # the item immediately instead of sleeping + recomputing.
        request = _request(seed=4, deadline_s=0.25)

        async def go():
            scheduler = BatchScheduler(
                retry=RetryPolicy(max_attempts=3, base_delay=5.0, max_delay=5.0),
            )
            self._flaky_pipe(scheduler, request, failures=99)
            try:
                t0 = time.monotonic()
                with pytest.raises(DeadlineExceededError, match="backoff"):
                    await scheduler.submit(request)
                return time.monotonic() - t0, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        elapsed, metrics = run(go())
        assert elapsed < 2.0  # did not serve out the 5s backoff
        assert metrics["rejected_total"]["deadline_retry"] == 1
        assert metrics["retries_total"] == 0


class TestBreaker:
    def test_open_half_open_closed_through_scheduler(self):
        request = _request(seed=4)
        direct = _direct(request)

        async def go():
            scheduler = BatchScheduler(
                retry=RetryPolicy(max_attempts=1),
                breaker_threshold=1,
                breaker_reset_s=0.15,
            )
            calls = TestRetries()._flaky_pipe(scheduler, request, failures=1)
            try:
                with pytest.raises(TransientError):
                    await scheduler.submit(request)  # opens the breaker
                with pytest.raises(CircuitOpenError) as err:
                    await scheduler.submit(request)  # shed while open
                assert err.value.retry_after > 0
                open_metrics = dict(scheduler.metrics.render_json())
                await asyncio.sleep(0.2)  # past reset_s: half-open probe
                served = await scheduler.submit(request)
                snap = scheduler.breaker_snapshot()
                return served, calls["n"], open_metrics, snap
            finally:
                scheduler.close()

        served, calls, open_metrics, snap = run(go())
        assert np.array_equal(served.result.mu_final, direct.mu_final)
        assert calls == 2  # shed request never reached compute
        assert open_metrics["rejected_total"]["breaker_open"] == 1
        assert open_metrics["breakers_open"] == 1
        (state,) = {s["state"] for s in snap.values()}
        assert state == CircuitBreaker.CLOSED


class TestDegradation:
    def test_breaker_open_served_from_response_cache(self):
        # The response cache answers *before* admission and the breaker,
        # so a previously computed identity keeps serving -- at full
        # fidelity, no degraded opt-in needed -- even while the group's
        # circuit is open.
        request = _request(seed=4)

        async def go():
            scheduler = BatchScheduler(breaker_threshold=1)
            try:
                first = await scheduler.submit(request)  # warms the cache
                breaker = scheduler.breaker_for(request.group_key())
                breaker.record_failure()  # force the group unhealthy
                served = await scheduler.submit(request)
                return first, served, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        first, served, metrics = run(go())
        assert served.cached and not served.degraded
        assert np.array_equal(served.result.mu_final, first.result.mu_final)
        assert metrics["response_cache_hits_total"] == 1
        assert not metrics["degraded_total"]

    def test_breaker_open_without_opt_in_sheds(self):
        request = _request(seed=4)

        async def go():
            scheduler = BatchScheduler(breaker_threshold=1)
            try:
                scheduler.breaker_for(request.group_key()).record_failure()
                with pytest.raises(CircuitOpenError):
                    await scheduler.submit(request)
            finally:
                scheduler.close()

        run(go())

    def test_no_cache_hit_falls_back_to_enhance_free_run(self):
        request = _request(seed=4, allow_degraded=True)
        bare = _direct(
            MapRequest(
                topology=request.topology,
                graph=request.graph,
                config=parse_config({"nh": 1, "enhance": "none"}),
                seed=request.seed,
            )
        )

        async def go():
            scheduler = BatchScheduler(breaker_threshold=1)
            try:
                scheduler.breaker_for(request.group_key()).record_failure()
                served = await scheduler.submit(request)
                return served
            finally:
                scheduler.close()

        served = run(go())
        assert served.degraded and served.degraded_mode == "no_enhance"
        assert np.array_equal(served.result.mu_final, bare.mu_final)

    def test_deadline_shorter_than_compute_degrades_to_enhance_free(self):
        # The group's runs take about 0.3 s, so a 0.2 s deadline cannot
        # fit a full run: the opted-in request is rerouted to the
        # enhance-free pipeline and flagged.
        slow = _request(seed=4)
        request = _request(seed=5, allow_degraded=True, deadline_s=0.2)
        bare = _direct(
            MapRequest(
                topology=request.topology,
                graph=request.graph,
                config=parse_config({"nh": 1, "enhance": "none"}),
                seed=request.seed,
            )
        )

        async def go():
            scheduler = BatchScheduler()
            try:
                pipe = scheduler.pipeline_for(slow)
                real_run = pipe.run

                def slow_run(ga, **kwargs):
                    time.sleep(0.3)
                    return real_run(ga, **kwargs)

                pipe.run = slow_run
                await scheduler.submit(slow)  # the group's compute EWMA
                served = await scheduler.submit(request)
                return served, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        served, metrics = run(go())
        assert served.degraded and served.degraded_mode == "no_enhance"
        assert np.array_equal(served.result.mu_final, bare.mu_final)
        assert metrics["degraded_total"]["no_enhance"] == 1
