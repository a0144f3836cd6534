"""Two-tier topology cache: LRU sharing, eviction, disk fallback."""

from repro.api.topology import (
    LABELING_CACHE_ENV,
    Topology,
    labeling_stats,
    session_cache,
)
from repro.serve.cache import TopologyCache


class TestSingleSourceOfTruth:
    def test_lru_is_the_from_name_cache(self):
        cache = TopologyCache()
        assert cache.sessions is session_cache()
        t1 = cache.get("grid4x4")
        t2 = Topology.from_name("grid4x4")
        assert t1 is t2  # one session object, no double-caching

    def test_labeling_computed_once_across_both_entry_points(self):
        base = labeling_stats()["computed"]
        cache = TopologyCache()
        cache.get("grid4x4").labeling
        Topology.from_name("grid4x4").labeling
        cache.get("grid4x4").labeling
        assert labeling_stats()["computed"] - base == 1


class TestLRUBounds:
    def test_eviction_order_and_counters(self):
        cache = TopologyCache(max_sessions=2)
        cache.get("grid4x4")
        cache.get("hq4")
        cache.get("grid4x4")  # refresh: hq4 is now least recent
        cache.get("dragonfly4x2")  # evicts hq4
        sessions = cache.sessions
        assert "grid4x4" in sessions and "dragonfly4x2" in sessions
        assert "hq4" not in sessions
        stats = cache.stats()["sessions"]
        assert stats["evictions"] == 1
        assert stats["size"] == 2 and stats["limit"] == 2
        assert stats["hits"] >= 1 and stats["misses"] >= 3

    def test_default_construction_keeps_the_operator_limit(self):
        TopologyCache(max_sessions=3)
        TopologyCache()  # e.g. BatchScheduler's default cache argument
        assert session_cache().max_sessions == 3
        TopologyCache(max_sessions=None)  # explicit None = unbounded
        assert session_cache().max_sessions is None

    def test_shrinking_limit_evicts_now(self):
        cache = TopologyCache()
        cache.get("grid4x4")
        cache.get("hq4")
        cache.sessions.set_limit(1)
        assert len(cache.sessions) == 1
        assert "hq4" in cache.sessions  # most recent survives

    def test_eviction_falls_back_to_disk_not_recompute(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LABELING_CACHE_ENV, str(tmp_path / "labelings"))
        cache = TopologyCache(max_sessions=1)
        base = labeling_stats()
        cache.get("grid4x4").labeling  # computed + stored to disk
        cache.get("hq4").labeling  # evicts grid4x4's session
        cache.get("grid4x4").labeling  # rebuilt session, disk tier hit
        delta = cache.stats()
        assert labeling_stats()["computed"] - base["computed"] == 2
        assert delta["disk"]["hits"] >= 1
        assert delta["disk"]["stores"] >= 2


class TestSpecResolution:
    def test_warm_precomputes(self):
        cache = TopologyCache()
        base = labeling_stats()["computed"]
        cache.warm(["grid4x4", "hq4"])
        assert labeling_stats()["computed"] - base == 2
        assert cache.get("grid4x4")._labeling is not None


class TestResponseCache:
    def _make(self, **kwargs):
        from repro.serve.cache import ResponseCache

        return ResponseCache(**kwargs)

    def test_lru_eviction_by_entry_count(self):
        cache = self._make(max_entries=2)
        cache.put(("a",), "ra")
        cache.put(("b",), "rb")
        assert cache.get(("a",)) == "ra"  # refresh: b is now LRU
        cache.put(("c",), "rc")  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "ra" and cache.get(("c",)) == "rc"
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2

    def test_eviction_by_byte_budget(self):
        import pickle

        payload = "x" * 1000
        size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        cache = self._make(max_entries=100, max_bytes=2 * size)
        cache.put(("a",), payload)
        cache.put(("b",), payload)
        assert len(cache) == 2 and cache.bytes <= cache.max_bytes
        cache.put(("c",), payload)  # over budget: LRU "a" evicted
        assert cache.get(("a",)) is None
        assert len(cache) == 2 and cache.bytes <= cache.max_bytes
        assert cache.stats()["evictions"] == 1

    def test_oversized_entry_is_not_stored(self):
        cache = self._make(max_entries=10, max_bytes=64)
        cache.put(("big",), "y" * 10_000)
        assert len(cache) == 0 and cache.bytes == 0
        assert cache.stats()["evictions"] == 0  # skipped, nothing flushed

    def test_replacing_a_key_adjusts_bytes(self):
        cache = self._make()
        cache.put(("k",), "small")
        first = cache.bytes
        cache.put(("k",), "a much longer replacement value")
        assert len(cache) == 1 and cache.bytes != first

    def test_zero_disables(self):
        for kwargs in ({"max_entries": 0}, {"max_bytes": 0}):
            cache = self._make(**kwargs)
            assert not cache.enabled
            cache.put(("k",), "v")
            assert len(cache) == 0

    def test_negative_bounds_rejected(self):
        from repro.errors import ConfigurationError
        import pytest

        with pytest.raises(ConfigurationError):
            self._make(max_entries=-1)
        with pytest.raises(ConfigurationError):
            self._make(max_bytes=-1)

    def test_key_is_backend_independent(self):
        """Requests differing only in kernel backend share one cache cell.

        ``PipelineConfig.IDENTITY_EXCLUDED`` keeps ``backend`` out of
        ``identity()``; the scheduler's response-cache key is built from
        ``group_key() + work_key()``, so the audit here is that those
        keys collide exactly when the results are byte-identical.
        """
        from repro.serve.scheduler import GraphSpec, MapRequest
        from repro.serve.service import parse_config

        def key_for(backend):
            request = MapRequest(
                topology="grid4x4",
                graph=GraphSpec(kind="generate", instance="p2p-Gnutella", seed=1),
                config=parse_config({"nh": 1, "backend": backend}),
                seed=1,
            )
            return (request.group_key(),) + request.work_key()

        assert key_for("") == key_for("numpy")
        cache = self._make()
        cache.put(key_for(""), "shared-result")
        assert cache.get(key_for("numpy")) == "shared-result"
