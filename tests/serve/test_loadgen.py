"""Load generator: determinism, mix shape, end-to-end in-process runs."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.serve.loadgen import (
    LoadProfile,
    build_catalog,
    plan_requests,
    run_load,
)
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import MappingService


class TestPlanDeterminism:
    def test_same_profile_same_plan(self):
        p = LoadProfile(requests=20, seed=7)
        assert plan_requests(p) == plan_requests(p)

    def test_different_seed_different_plan(self):
        a = plan_requests(LoadProfile(requests=20, seed=0))
        b = plan_requests(LoadProfile(requests=20, seed=1))
        assert a != b

    def test_arrivals_are_open_loop_increasing(self):
        offsets = [t for t, _ in plan_requests(LoadProfile(requests=50, seed=0))]
        assert offsets == sorted(offsets)
        assert offsets[0] > 0
        # mean inter-arrival ~ 1/rate
        mean_gap = offsets[-1] / len(offsets)
        assert 0.2 / 40.0 < mean_gap < 5.0 / 40.0


class TestCatalogAndMix:
    def test_catalog_spans_the_scenario(self):
        profile = LoadProfile(scenario="smoke", seed_pool=2)
        catalog = build_catalog(profile)
        # smoke: 2 instances x 4 topologies x 2 cases x seed_pool
        assert len(catalog) == 2 * 4 * 2 * 2
        topologies = {body["topology"] for body in catalog}
        assert "fattree4x3" in topologies  # wide-label topology included
        assert all(body["config"]["nh"] == profile.nh for body in catalog)

    def test_hot_fraction_one_only_hits_hot_keys(self):
        profile = LoadProfile(requests=40, seed=3, hot_fraction=1.0, hot_keys=2)
        catalog = build_catalog(profile)
        hot = [str(body) for body in catalog[:2]]
        for _t, body in plan_requests(profile):
            assert str(body) in hot

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(requests=0)
        with pytest.raises(ConfigurationError):
            LoadProfile(rate=0)
        with pytest.raises(ConfigurationError):
            LoadProfile(hot_fraction=1.5)

    def test_run_load_needs_exactly_one_target(self):
        with pytest.raises(ConfigurationError):
            asyncio.run(run_load(LoadProfile()))


class TestEndToEnd:
    def test_in_process_run_produces_full_report(self):
        scheduler = BatchScheduler(max_batch=8)
        service = MappingService(scheduler)
        profile = LoadProfile(
            requests=10, rate=300.0, seed=0, nh=1, hot_fraction=0.8, hot_keys=2
        )
        try:
            report = asyncio.run(run_load(profile, service=service))
        finally:
            scheduler.close()
        assert report.requests == 10
        assert report.ok == 10 and not report.errors
        assert report.throughput_rps > 0
        assert set(report.latency) >= {"p50", "p95", "p99", "mean", "max"}
        assert report.batch["mean_size"] >= 1.0
        # hot-key skew at this rate must produce some amortization
        assert report.batch["coalesced"] + report.batch["mean_size"] > 1.0
        payload = report.to_json()
        assert payload["profile"]["requests"] == 10
        assert "ok in" in report.render()

    def test_latency_summary_quantiles_and_splits(self):
        scheduler = BatchScheduler(max_batch=8)
        service = MappingService(scheduler)
        profile = LoadProfile(
            requests=12, rate=300.0, seed=0, nh=1, seed_pool=1,
        )
        try:
            # fire twice: the second pass replays identities the first
            # computed, so its replies come from the response cache
            first = asyncio.run(run_load(profile, service=service))
            replay = asyncio.run(run_load(profile, service=service))
        finally:
            scheduler.close()
        overall = first.latency_summary["overall"]
        assert overall["count"] == 12
        assert set(overall) == {"count", "mean", "max", "p50", "p95", "p99"}
        assert overall["p50"] <= overall["p95"] <= overall["p99"]
        assert set(first.latency_summary["by_endpoint"]) == {"map"}
        assert first.latency_summary["by_endpoint"]["map"]["count"] == 12
        # the split populations partition each run by the replies' own
        # flags: a repeat in the first pass (60% of requests go to hot
        # keys, 12 arrive within ~40 ms) is a cache hit whenever its
        # first copy finished first; the replay served everything from
        # cache
        assert first.latency_summary["uncached"]["count"] == 12 - first.cached
        assert first.latency_summary["cached"]["count"] == first.cached
        summary = replay.latency_summary
        assert summary["cached"]["count"] == replay.cached == 12
        assert summary["uncached"] == {"count": 0}
        assert summary["degraded"] == {"count": 0}
        # cache hits skip compute entirely: visibly cheaper
        assert summary["cached"]["p50"] < overall["p50"]


class TestTrafficKnobs:
    def test_default_plan_unchanged_by_knob_code(self):
        # The knobs draw from their own RNG streams only when enabled, so
        # a plain profile's plan is byte-identical to the pre-knob plans.
        plain = plan_requests(LoadProfile(requests=30, seed=5))
        spelled = plan_requests(
            LoadProfile(
                requests=30, seed=5, repeat_fraction=0.0, enhance_fraction=0.0
            )
        )
        assert plain == spelled
        assert all(body.get("op", "map") == "map" for _t, body in plain)

    def test_repeat_fraction_replays_earlier_bodies(self):
        profile = LoadProfile(requests=60, seed=5, repeat_fraction=0.5)
        plan = plan_requests(profile)
        bodies = [body for _t, body in plan]
        assert len(bodies) > len({str(b) for b in bodies})  # duplicates exist
        # arrivals are untouched by the knob
        plain = plan_requests(LoadProfile(requests=60, seed=5))
        assert [t for t, _ in plan] == [t for t, _ in plain]

    def test_repeat_fraction_one_after_first_is_all_repeats(self):
        plan = plan_requests(
            LoadProfile(requests=20, seed=2, repeat_fraction=1.0)
        )
        seen = {str(plan[0][1])}
        for _t, body in plan[1:]:
            assert str(body) in seen
            seen.add(str(body))

    def test_enhance_fraction_converts_with_valid_mapping(self):
        profile = LoadProfile(requests=30, seed=4, enhance_fraction=0.5)
        plan = plan_requests(profile)
        enhanced = [b for _t, b in plan if b.get("op") == "enhance"]
        assert enhanced, "a 0.5 fraction over 30 requests must convert some"
        for body in enhanced:
            from repro.api.topology import Topology
            from repro.serve.scheduler import GraphSpec

            n = GraphSpec.from_wire(body["graph"]).build().n
            n_pe = Topology.from_name(body["topology"]).graph.n
            assert len(body["mu"]) == n
            assert set(body["mu"]) <= set(range(n_pe))
        # conversion is deterministic
        assert plan == plan_requests(profile)

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(repeat_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            LoadProfile(enhance_fraction=1.1)

    def test_mixed_ops_served_end_to_end(self):
        scheduler = BatchScheduler(max_batch=8)
        service = MappingService(scheduler)
        profile = LoadProfile(
            requests=14,
            rate=300.0,
            seed=1,
            nh=1,
            repeat_fraction=0.5,
            enhance_fraction=0.3,
        )
        ops = {b.get("op", "map") for _t, b in plan_requests(profile)}
        assert ops == {"map", "enhance"}
        try:
            report = asyncio.run(run_load(profile, service=service))
        finally:
            scheduler.close()
        assert report.ok == report.requests == 14 and not report.errors
