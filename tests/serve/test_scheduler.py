"""Micro-batching scheduler: identity, coalescing, backpressure, deadlines,
slot-driven dispatch."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.api.pipeline import Pipeline
from repro.serve.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    GraphSpec,
    MapRequest,
    QueueFullError,
)
from repro.serve.service import parse_config


def _request(seed=0, instance="p2p-Gnutella", topology="grid4x4", **kwargs):
    return MapRequest(
        topology=topology,
        graph=GraphSpec(kind="generate", instance=instance, seed=seed),
        config=parse_config({"nh": 1}),
        seed=seed,
        **kwargs,
    )


def run(coro):
    return asyncio.run(coro)


def _slowed(scheduler, request, seconds, calls=None):
    """Make every run of ``request``'s group take ``seconds`` longer.

    Each run appends ``(topology, seed)`` to ``calls`` when given.
    Returns a ``threading.Event`` set as soon as a run starts.
    """
    pipe = scheduler.pipeline_for(request)
    real_run = pipe.run
    started = threading.Event()

    def slow_run(ga, **kwargs):
        started.set()
        if calls is not None:
            calls.append((request.topology, kwargs["seed"]))
        time.sleep(seconds)
        return real_run(ga, **kwargs)

    pipe.run = slow_run
    return started


async def _until(event):
    while not event.is_set():
        await asyncio.sleep(0.001)


class TestByteIdentity:
    """A served request == a direct Pipeline.run, batched or not."""

    def _direct(self, request):
        pipe = Pipeline(request.topology, request.config)
        return pipe.run(request.graph.build(), seed=request.seed)

    def test_served_alone_matches_direct(self):
        request = _request(seed=3)
        direct = self._direct(request)

        async def go():
            scheduler = BatchScheduler()
            try:
                return await scheduler.submit(request)
            finally:
                scheduler.close()

        served = run(go())
        assert np.array_equal(served.result.mu_final, direct.mu_final)
        assert served.result.metrics == direct.metrics
        assert served.batch_size == 1 and not served.coalesced

    def test_served_batched_with_others_matches_direct(self):
        requests = [_request(seed=s) for s in (0, 1, 2)]
        direct = [self._direct(r) for r in requests]

        async def go():
            scheduler = BatchScheduler(max_batch=8)
            try:
                return await asyncio.gather(
                    *(scheduler.submit(r) for r in requests)
                )
            finally:
                scheduler.close()

        served = run(go())
        assert served[0].batch_size == 3  # really one batch
        for s, d in zip(served, direct):
            assert np.array_equal(s.result.mu_final, d.mu_final)

    def test_served_workers2_matches_direct(self):
        requests = [_request(seed=s) for s in (0, 1)]
        direct = [self._direct(r) for r in requests]

        async def go():
            scheduler = BatchScheduler(max_batch=8, workers=2)
            try:
                return await asyncio.gather(
                    *(scheduler.submit(r) for r in requests)
                )
            finally:
                scheduler.close()

        served = run(go())
        for s, d in zip(served, direct):
            assert np.array_equal(s.result.mu_final, d.mu_final)


def _wait_until(predicate, timeout=10.0):
    """Poll ``predicate`` (pool drops are applied by its supervisor)."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestPoolPinning:
    def test_each_group_ships_only_to_its_pinned_worker(self):
        # Golden routes with 2 workers: grid4x4 -> 0, torus8x8 -> 1.
        requests = [_request(seed=1, topology=t) for t in ("grid4x4", "torus8x8")]
        direct = [
            Pipeline(r.topology, r.config).run(r.graph.build(), seed=r.seed)
            for r in requests
        ]

        async def go():
            scheduler = BatchScheduler(max_batch=8, workers=2)
            try:
                served = await asyncio.gather(
                    *(scheduler.submit(r) for r in requests)
                )
                return served, [set(w.seen) for w in scheduler.pool._workers]
            finally:
                scheduler.close()

        served, seen = run(go())
        assert seen == [{requests[0].group_key()}, {requests[1].group_key()}]
        for s, d in zip(served, direct):
            assert np.array_equal(s.result.mu_final, d.mu_final)


class TestPoolPayloadBound:
    """The pipeline LRU bounds what the pool keeps, in both processes."""

    def _requests(self):
        # distinct epsilons -> distinct group keys, one topology
        return [
            MapRequest(
                topology="grid4x4",
                graph=GraphSpec(kind="generate", seed=0),
                config=parse_config({"nh": 1, "epsilon": 0.03 + i / 100}),
                seed=0,
            )
            for i in range(6)
        ]

    def _serve(self, workers, concurrent):
        async def go():
            scheduler = BatchScheduler(
                workers=workers, max_pipelines=2
            )
            try:
                if concurrent:
                    served = await asyncio.gather(
                        *(scheduler.submit(r) for r in self._requests())
                    )
                else:
                    served = [
                        await scheduler.submit(r) for r in self._requests()
                    ]
                await scheduler.drain()
                pool = scheduler.pool
                if pool is not None:
                    assert len(scheduler._pipelines) == 2
                    assert len(pool._payloads) <= 2
                    assert _wait_until(
                        lambda: sum(len(w.seen) for w in pool._workers) <= 2
                    ), [w.seen for w in pool._workers]
                return [s.result.mu_final for s in served]
            finally:
                scheduler.close()

        return run(go())

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_evicted_pipelines_leave_the_pool(self, concurrent):
        pooled = self._serve(workers=1, concurrent=concurrent)
        inline = self._serve(workers=0, concurrent=concurrent)
        assert len(pooled) == len(inline) == 6
        for a, b in zip(pooled, inline):
            assert np.array_equal(a, b)


class TestCoalescing:
    def test_identical_requests_computed_once(self):
        async def go():
            scheduler = BatchScheduler(max_batch=8)
            try:
                return await asyncio.gather(
                    *(scheduler.submit(_request(seed=7)) for _ in range(3))
                ), scheduler.metrics.render_json()
            finally:
                scheduler.close()

        served, metrics = run(go())
        assert [s.coalesced for s in served] == [False, True, True]
        assert all(s.batch_unique == 1 and s.batch_size == 3 for s in served)
        mus = [s.result.mu_final for s in served]
        assert np.array_equal(mus[0], mus[1]) and np.array_equal(mus[0], mus[2])
        assert metrics["coalesced_total"] == 2

    def test_different_seeds_not_coalesced(self):
        async def go():
            scheduler = BatchScheduler(max_batch=8)
            try:
                return await asyncio.gather(
                    scheduler.submit(_request(seed=0)),
                    scheduler.submit(_request(seed=1)),
                )
            finally:
                scheduler.close()

        served = run(go())
        assert all(s.batch_unique == 2 for s in served)
        assert not any(s.coalesced for s in served)


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self):
        async def go():
            scheduler = BatchScheduler(max_batch=64, max_queue=2)
            try:
                first = asyncio.ensure_future(scheduler.submit(_request(seed=0)))
                second = asyncio.ensure_future(scheduler.submit(_request(seed=1)))
                await asyncio.sleep(0)  # both admitted, neither answered
                with pytest.raises(QueueFullError) as exc:
                    await scheduler.submit(_request(seed=2))
                assert exc.value.retry_after > 0
                assert scheduler.metrics.render_json()["rejected_total"] == {
                    "total": 1.0, "queue_full": 1.0,
                }
                first.cancel()
                second.cancel()
            finally:
                scheduler.close()

        run(go())

    def test_closed_scheduler_rejects(self):
        async def go():
            scheduler = BatchScheduler()
            scheduler.close()
            from repro.errors import ReproError

            with pytest.raises(ReproError, match="closed"):
                await scheduler.submit(_request())

        run(go())


class TestDeadlines:
    def test_expiry_while_queued_skips_compute(self):
        # A slowed run of another group holds the only slot; the request
        # queued behind it expires before the slot frees.
        async def go():
            scheduler = BatchScheduler(max_batch=8)
            try:
                blocker = _request(seed=0, topology="hq4")
                started = _slowed(scheduler, blocker, 0.15)
                running = asyncio.ensure_future(scheduler.submit(blocker))
                await _until(started)
                request = _request(seed=0, deadline_s=0.01)
                with pytest.raises(DeadlineExceededError, match="in queue"):
                    await scheduler.submit(request)
                await running
                json_metrics = scheduler.metrics.render_json()
                assert json_metrics["rejected_total"]["deadline_queued"] == 1
                # only the blocker's batch ran; nothing computed for it
                assert json_metrics["batches_total"] == 1
            finally:
                scheduler.close()

        run(go())

    def test_expiry_mid_batch_fails_after_compute(self):
        async def go():
            scheduler = BatchScheduler(max_batch=8)
            try:
                request = _request(seed=0, deadline_s=0.05)
                pipe = scheduler.pipeline_for(request)
                real_run = pipe.run

                def slow_run(ga, **kwargs):
                    time.sleep(0.15)  # batch outlives the deadline
                    return real_run(ga, **kwargs)

                pipe.run = slow_run
                with pytest.raises(DeadlineExceededError, match="during"):
                    await scheduler.submit(request)
                json_metrics = scheduler.metrics.render_json()
                assert json_metrics["rejected_total"]["deadline_compute"] == 1
                assert json_metrics["batches_total"] == 1  # it DID run
            finally:
                scheduler.close()

        run(go())

    def test_mixed_batch_only_expired_requests_fail(self):
        async def go():
            scheduler = BatchScheduler(max_batch=8)
            try:
                # The batch outlives the doomed deadline on any host.
                _slowed(scheduler, _request(seed=0), 0.05)
                healthy = scheduler.submit(_request(seed=0))
                doomed = scheduler.submit(_request(seed=1, deadline_s=0.01))
                results = await asyncio.gather(
                    healthy, doomed, return_exceptions=True
                )
                assert not isinstance(results[0], Exception)
                assert isinstance(results[1], DeadlineExceededError)
            finally:
                scheduler.close()

        run(go())


class TestDispatch:
    def test_idle_scheduler_dispatches_within_three_ticks(self):
        # No timer: a request that finds the slot free leaves on the next
        # tick, so its run starts even while the loop is blocked after
        # three ticks (a timer could not fire then).
        async def go():
            scheduler = BatchScheduler()
            try:
                request = _request(seed=0)
                started = _slowed(scheduler, request, 0.0)
                served = asyncio.ensure_future(scheduler.submit(request))
                for _ in range(3):
                    await asyncio.sleep(0)
                assert started.wait(timeout=5.0)
                assert (await served).batch_size == 1
            finally:
                scheduler.close()

        run(go())

    def test_requests_behind_a_busy_slot_leave_as_one_batch(self):
        async def go():
            scheduler = BatchScheduler()
            try:
                blocker = _request(seed=0, topology="hq4")
                started = _slowed(scheduler, blocker, 0.3)
                running = asyncio.ensure_future(scheduler.submit(blocker))
                await _until(started)
                waiting = []
                for seed in range(3):  # 40 ms apart, all while the slot is busy
                    waiting.append(
                        asyncio.ensure_future(scheduler.submit(_request(seed=seed)))
                    )
                    await asyncio.sleep(0.04)
                await running
                served = await asyncio.gather(*waiting)
                return served, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        served, metrics = run(go())
        assert [s.batch_size for s in served] == [3, 3, 3]
        assert metrics["batches_total"] == 2

    def test_hot_group_goes_to_the_back_of_the_queue(self):
        # max_batch=2: the group with 5 queued jobs takes 2, then waits
        # behind the other group's job instead of holding the slot.
        hot = [_request(seed=s) for s in range(5)]
        other = _request(seed=0, topology="hq4")
        calls = []

        async def go():
            scheduler = BatchScheduler(max_batch=2)
            try:
                _slowed(scheduler, hot[0], 0.0, calls)
                _slowed(scheduler, other, 0.0, calls)
                await asyncio.gather(*(scheduler.submit(r) for r in hot + [other]))
                return scheduler.metrics.render_json()
            finally:
                scheduler.close()

        metrics = run(go())
        assert calls == [
            ("grid4x4", 0), ("grid4x4", 1), ("hq4", 0),
            ("grid4x4", 2), ("grid4x4", 3), ("grid4x4", 4),
        ]
        assert metrics["batches_total"] == 4

    def test_max_batch_overflow_splits_dispatches(self):
        async def go():
            scheduler = BatchScheduler(max_batch=2)
            try:
                served = await asyncio.gather(
                    *(scheduler.submit(_request(seed=s)) for s in range(5))
                )
                # 5 requests with max_batch=2 -> 3 dispatches
                assert scheduler.metrics.render_json()["batches_total"] == 3
                assert max(s.batch_size for s in served) == 2
            finally:
                scheduler.close()

        run(go())

    def test_pipeline_cache_is_bounded(self):
        async def go():
            scheduler = BatchScheduler(max_batch=8,
                                       max_pipelines=2)
            try:
                served = await asyncio.gather(*(
                    scheduler.submit(
                        MapRequest(
                            topology="grid4x4",
                            graph=GraphSpec(kind="generate", seed=0),
                            # distinct epsilons -> distinct group keys
                            config=parse_config({"nh": 1,
                                                 "epsilon": 0.03 + i / 100}),
                            seed=0,
                        )
                    )
                    for i in range(4)
                ))
                assert len(served) == 4
                assert len(scheduler._pipelines) <= 2
                assert scheduler._groups == {}  # drained groups dropped
            finally:
                scheduler.close()

        run(go())

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_compute_ewma_is_bounded(self, concurrent):
        # Group keys embed client-chosen epsilons; the per-group compute
        # EWMA must go when the pipeline LRU evicts the group.
        requests = [
            MapRequest(
                topology="grid4x4",
                graph=GraphSpec(kind="generate", seed=0),
                config=parse_config({"nh": 0, "epsilon": 0.03 + i / 100}),
                seed=0,
            )
            for i in range(5)
        ]

        async def go():
            scheduler = BatchScheduler(max_pipelines=2)
            try:
                if concurrent:
                    await asyncio.gather(*(scheduler.submit(r) for r in requests))
                else:
                    for r in requests:
                        await scheduler.submit(r)
                await scheduler.drain()
                assert 1 <= len(scheduler._compute_ewma) <= 2
                assert set(scheduler._compute_ewma) <= set(scheduler._pipelines)
            finally:
                scheduler.close()

        run(go())

    def test_groups_split_by_topology_and_config(self):
        async def go():
            scheduler = BatchScheduler(max_batch=8)
            try:
                a = scheduler.submit(_request(seed=0, topology="grid4x4"))
                b = scheduler.submit(_request(seed=0, topology="hq4"))
                served = await asyncio.gather(a, b)
                assert all(s.batch_size == 1 for s in served)
            finally:
                scheduler.close()

        run(go())


class TestResponseCacheHotPath:
    """The run-identity response cache answers before admission."""

    def test_second_identical_submit_is_served_from_cache(self):
        request = _request(seed=11)

        async def go():
            scheduler = BatchScheduler()
            try:
                first = await scheduler.submit(request)
                second = await scheduler.submit(request)
                return first, second, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        first, second, metrics = run(go())
        assert not first.cached and second.cached
        # The replay *is* the remembered result object: byte identity by
        # construction, zero recompute (one batch ever dispatched).
        assert second.result is first.result
        assert np.array_equal(second.result.mu_final, first.result.mu_final)
        assert metrics["batches_total"] == 1
        assert metrics["requests_total"] == 2
        assert metrics["response_cache_hits_total"] == 1
        assert metrics["response_cache_misses_total"] == 1
        assert metrics["response_cache_entries"] == 1
        assert metrics["response_cache_bytes"] > 0

    def test_cache_hit_bypasses_admission_control(self):
        # A full queue sheds fresh work with 429 -- but a remembered
        # identity costs no queue slot and keeps serving.
        request = _request(seed=12)

        async def go():
            scheduler = BatchScheduler(max_queue=1)
            try:
                await scheduler.submit(request)
                scheduler._pending = scheduler.max_queue  # saturate
                with pytest.raises(QueueFullError):
                    await scheduler.submit(_request(seed=13))
                return await scheduler.submit(request)
            finally:
                scheduler._pending = 0
                scheduler.close()

        served = run(go())
        assert served.cached

    def test_disabled_cache_recomputes_every_time(self):
        request = _request(seed=11)

        async def go():
            scheduler = BatchScheduler(response_cache_size=0)
            try:
                first = await scheduler.submit(request)
                second = await scheduler.submit(request)
                return first, second, scheduler.metrics.render_json()
            finally:
                scheduler.close()

        first, second, metrics = run(go())
        assert not first.cached and not second.cached
        assert metrics["batches_total"] == 2
        assert np.array_equal(second.result.mu_final, first.result.mu_final)

    def test_byte_budget_gates_storage(self):
        # A 1-byte budget stores nothing, so the second submit recomputes.
        request = _request(seed=11)

        async def go():
            scheduler = BatchScheduler(response_cache_bytes=1)
            try:
                await scheduler.submit(request)
                return (
                    await scheduler.submit(request),
                    scheduler.metrics.render_json(),
                )
            finally:
                scheduler.close()

        second, metrics = run(go())
        assert not second.cached
        assert metrics["batches_total"] == 2
        assert metrics["response_cache_entries"] == 0

    def test_different_identity_misses(self):
        # Same topology/config, different seed -> different work_key.
        async def go():
            scheduler = BatchScheduler()
            try:
                await scheduler.submit(_request(seed=21))
                return (
                    await scheduler.submit(_request(seed=22)),
                    scheduler.metrics.render_json(),
                )
            finally:
                scheduler.close()

        served, metrics = run(go())
        assert not served.cached
        assert metrics["response_cache_hits_total"] == 0
        assert metrics["batches_total"] == 2
