"""Micro-batching scheduler: identity, coalescing, backpressure, deadlines."""

import asyncio
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


class TestByteIdentity:
    """A served request == a direct Pipeline.run, batched or not."""

    def _direct(self, request):
        pipe = Pipeline(request.topology, request.config)
        return pipe.run(request.graph.build(), seed=request.seed)

    def test_served_alone_matches_direct(self):
        request = _request(seed=3)
        direct = self._direct(request)

        async def go():
            scheduler = BatchScheduler(window_s=0.01)
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
            scheduler = BatchScheduler(window_s=0.05, max_batch=8)
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
            scheduler = BatchScheduler(window_s=0.05, max_batch=8, workers=2)
            try:
                return await asyncio.gather(
                    *(scheduler.submit(r) for r in requests)
                )
            finally:
                scheduler.close()

        served = run(go())
        for s, d in zip(served, direct):
            assert np.array_equal(s.result.mu_final, d.mu_final)


class TestCoalescing:
    def test_identical_requests_computed_once(self):
        async def go():
            scheduler = BatchScheduler(window_s=0.05, max_batch=8)
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
            scheduler = BatchScheduler(window_s=0.05, max_batch=8)
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
            scheduler = BatchScheduler(window_s=5.0, max_batch=64, max_queue=2)
            try:
                first = asyncio.ensure_future(scheduler.submit(_request(seed=0)))
                second = asyncio.ensure_future(scheduler.submit(_request(seed=1)))
                await asyncio.sleep(0)  # both admitted, window still open
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
        async def go():
            scheduler = BatchScheduler(window_s=0.08, max_batch=8)
            try:
                request = _request(seed=0, deadline_s=0.01)  # < window
                with pytest.raises(DeadlineExceededError, match="in queue"):
                    await scheduler.submit(request)
                json_metrics = scheduler.metrics.render_json()
                assert json_metrics["rejected_total"]["deadline_queued"] == 1
                # nothing was dispatched for it
                assert json_metrics["batches_total"] == 0
            finally:
                scheduler.close()

        run(go())

    def test_expiry_mid_batch_fails_after_compute(self):
        async def go():
            scheduler = BatchScheduler(window_s=0.0, max_batch=8)
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
            scheduler = BatchScheduler(window_s=0.08, max_batch=8)
            try:
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


class TestWindows:
    def test_empty_window_flush_is_noop(self):
        async def go():
            scheduler = BatchScheduler(window_s=0.01)
            try:
                scheduler._flush("no-such-group")  # missing group
                result = await scheduler.submit(_request(seed=0))
                # the group now exists but is drained; a stray timer fire
                # must be harmless
                scheduler._flush(_request(seed=0).group_key())
                await asyncio.sleep(0.03)
                assert result.batch_size == 1
                assert scheduler.pending == 0
            finally:
                scheduler.close()

        run(go())

    def test_max_batch_overflow_splits_dispatches(self):
        async def go():
            scheduler = BatchScheduler(window_s=0.5, max_batch=2)
            try:
                served = await asyncio.gather(
                    *(scheduler.submit(_request(seed=s)) for s in range(5))
                )
                # 5 requests with max_batch=2 -> 3 dispatches, none waiting
                # for the long window once the first batch filled
                assert scheduler.metrics.render_json()["batches_total"] == 3
                assert max(s.batch_size for s in served) == 2
            finally:
                scheduler.close()

        run(go())

    def test_pipeline_cache_is_bounded(self):
        async def go():
            scheduler = BatchScheduler(window_s=0.02, max_batch=8,
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

    def test_groups_split_by_topology_and_config(self):
        async def go():
            scheduler = BatchScheduler(window_s=0.05, max_batch=8)
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
            scheduler = BatchScheduler(window_s=0.01)
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
            scheduler = BatchScheduler(window_s=0.01, max_queue=1)
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
            scheduler = BatchScheduler(window_s=0.01, response_cache_size=0)
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
            scheduler = BatchScheduler(window_s=0.01, response_cache_bytes=1)
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
            scheduler = BatchScheduler(window_s=0.01)
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
