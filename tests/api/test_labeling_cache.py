"""Cross-process labeling disk cache (REPRO_LABELING_CACHE)."""

import io

import numpy as np
import pytest

import repro.api.topology as topo_mod
from repro.api.topology import LABELING_CACHE_ENV, Topology, labeling_cache_key
from repro.graphs import generators as gen


@pytest.fixture(autouse=True)
def fresh_sessions():
    Topology.clear_sessions()
    yield
    Topology.clear_sessions()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "labelings"
    monkeypatch.setenv(LABELING_CACHE_ENV, str(d))
    return d


class TestCacheRoundTrip:
    def test_compute_then_disk_hit(self, cache_dir, monkeypatch):
        t1 = Topology.from_name("fattree4x3")  # 85 PEs, wide labels
        lab1 = t1.labeling
        assert t1.labelings_computed == 1
        assert any(cache_dir.glob("*.npz"))

        Topology.clear_sessions()
        monkeypatch.setattr(
            topo_mod,
            "partial_cube_labeling",
            lambda g: (_ for _ in ()).throw(AssertionError("recomputed")),
        )
        t2 = Topology.from_name("fattree4x3")
        lab2 = t2.labeling
        assert t2.labelings_computed == 0
        assert lab1.dim == lab2.dim
        assert np.array_equal(lab1.labels, lab2.labels)
        assert len(lab1.cut_edges) == len(lab2.cut_edges)
        for a, b in zip(lab1.cut_edges, lab2.cut_edges):
            assert np.array_equal(a, b)

    def test_narrow_labeling_roundtrips_too(self, cache_dir):
        lab1 = Topology.from_name("grid4x4").labeling
        Topology.clear_sessions()
        lab2 = Topology.from_name("grid4x4").labeling
        assert lab2.labels.shape[1] == 1 and np.array_equal(lab1.labels, lab2.labels)

    def test_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LABELING_CACHE_ENV, raising=False)
        t = Topology.from_name("grid4x4")
        t.labeling
        assert t.labelings_computed == 1
        assert not list(tmp_path.glob("**/*.npz"))

    def test_corrupt_file_degrades_to_recompute(self, cache_dir):
        g = gen.grid(4, 4)
        cache_dir.mkdir(parents=True, exist_ok=True)
        (cache_dir / f"{labeling_cache_key(g)}.npz").write_bytes(b"garbage")
        t = Topology.from_graph(g, name="grid4x4")
        t.labeling
        assert t.labelings_computed == 1  # recomputed, not crashed


class TestCacheKey:
    def test_key_is_content_addressed(self):
        # same content -> same key (rebuilt object), different content
        # -> different key
        assert labeling_cache_key(gen.grid(4, 4)) == labeling_cache_key(
            gen.grid(4, 4)
        )
        assert labeling_cache_key(gen.grid(4, 4)) != labeling_cache_key(
            gen.grid(4, 5)
        )

    def test_runner_enables_cache_under_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LABELING_CACHE_ENV, raising=False)
        from repro.experiments.runner import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            instances=("p2p-Gnutella",),
            topologies=("grid4x4",),
            cases=("c2",),
            repetitions=1,
            n_hierarchies=1,
            divisor=1024,
            n_min=64,
            n_max=96,
        )
        run_experiment(config, store=tmp_path / "cells")
        assert list((tmp_path / "cells" / "labelings").glob("*.npz"))

class TestCompression:
    def test_entries_are_compressed(self, cache_dir):
        # fattree4x3: 84 classes, cut_edges carry O(n) int64 pairs per
        # class -- exactly the payload compression targets.
        t = Topology.from_name("fattree4x3")
        pc = t.labeling
        path = next(cache_dir.glob("*.npz"))
        compressed = path.stat().st_size
        raw = io.BytesIO()
        flat = np.concatenate([np.asarray(c) for c in pc.cut_edges])
        splits = np.cumsum([c.shape[0] for c in pc.cut_edges])[:-1]
        np.savez(raw, labels=pc.labels, dim=np.int64(pc.dim), cut_edges=flat,
                 cut_splits=np.asarray(splits, dtype=np.int64))
        assert compressed < 0.5 * raw.getbuffer().nbytes

    def test_schema1_layout_is_quarantined_and_recomputed(self, cache_dir):
        # A valid zip carrying the retired schema-1 members (verbatim
        # cut_edges, no checksum) at the current key: must quarantine and
        # recompute, never crash or serve unverified data.  Real schema-1
        # files live under a different content key (the schema is part of
        # the key) and simply never hit.
        t = Topology.from_name("fattree4x3")
        pc = t.labeling
        path = next(cache_dir.glob("*.npz"))
        flat = np.concatenate([np.asarray(c) for c in pc.cut_edges])
        splits = np.cumsum([c.shape[0] for c in pc.cut_edges])[:-1]
        with open(path, "wb") as f:
            np.savez(f, labels=pc.labels, dim=np.int64(pc.dim), cut_edges=flat,
                     cut_splits=np.asarray(splits, dtype=np.int64))
        Topology.clear_sessions()
        t2 = Topology.from_name("fattree4x3")
        pc2 = t2.labeling
        assert t2.labelings_computed == 1
        assert np.array_equal(pc.labels, pc2.labels)
        for a, b in zip(pc.cut_edges, pc2.cut_edges):
            assert np.array_equal(a, b)
        assert list(cache_dir.glob("*.npz.corrupt"))


class TestStats:
    def test_disk_traffic_counters(self, cache_dir):
        from repro.api.topology import labeling_stats

        base = labeling_stats()
        Topology.from_name("grid4x4").labeling  # compute + store
        Topology.clear_sessions()
        Topology.from_name("grid4x4").labeling  # disk hit
        delta = {k: v - base[k] for k, v in labeling_stats().items()}
        assert delta == {"computed": 1, "disk_hits": 1, "disk_misses": 1,
                         "disk_stores": 1, "disk_corrupt": 0}

    def test_corrupt_zip_magic_degrades_to_recompute(self, cache_dir):
        # Zip magic but truncated body: np.load raises BadZipFile, which
        # must read as a miss, not crash the sweep.
        g = gen.grid(4, 4)
        cache_dir.mkdir(parents=True, exist_ok=True)
        (cache_dir / f"{labeling_cache_key(g)}.npz").write_bytes(b"PK\x03\x04junk")
        t = Topology.from_graph(g, name="grid4x4")
        t.labeling
        assert t.labelings_computed == 1
