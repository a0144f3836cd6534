"""Tests for experiment topologies and the instance suite."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.instances import (
    INSTANCES,
    generate_instance,
    get_instance,
    instance_names,
    max_vertices,
    scaled_n,
)
from repro.experiments.topologies import (
    PAPER_TOPOLOGIES,
    WIDE_TOPOLOGIES,
    WIDENED_TOPOLOGIES,
    make_topology,
    topology_names,
)
from repro.graphs.algorithms import is_connected
from repro.partialcube.verify import verify_labeling
from repro.utils.rng import make_rng


class TestTopologies:
    def test_paper_set(self):
        assert PAPER_TOPOLOGIES == (
            "grid16x16",
            "grid8x8x8",
            "torus16x16",
            "torus8x8x8",
            "hq8",
        )

    @pytest.mark.parametrize(
        "name", ["grid4x4", "torus4x4", "hq4", "cbt4", "path16", "fattree4x2", "dragonfly4x2"]
    )
    def test_small_topologies_labeled(self, name):
        gp, pc = make_topology(name)
        assert verify_labeling(gp, pc.labels)

    def test_widened_set_registered(self):
        assert WIDENED_TOPOLOGIES == ("fattree2x5", "dragonfly8x5", "torus8x8x4")
        assert set(WIDENED_TOPOLOGIES) <= set(topology_names())
        assert not set(WIDENED_TOPOLOGIES) & set(PAPER_TOPOLOGIES)

    @pytest.mark.parametrize(
        "name,n,dim",
        [("fattree2x5", 63, 62), ("dragonfly8x5", 256, 9), ("torus8x8x4", 256, 10)],
    )
    def test_widened_topologies_labeled(self, name, n, dim):
        gp, pc = make_topology(name)
        assert gp.n == n
        assert pc.dim == dim
        assert verify_labeling(gp, pc.labels)

    def test_wide_set_registered(self):
        assert WIDE_TOPOLOGIES == (
            "fattree2x7",
            "fattree4x3",
            "dragonfly16x6",
            "torus16x16",
        )
        assert set(WIDE_TOPOLOGIES) <= set(topology_names())

    @pytest.mark.parametrize(
        "name,n,dim",
        [
            ("fattree2x7", 255, 254),  # 4-word labels
            ("fattree4x3", 85, 84),  # 2-word labels
            ("fattree2x6", 127, 126),
            ("dragonfly16x6", 1024, 14),  # narrow but 1024 PEs
        ],
    )
    def test_wide_topologies_labeled(self, name, n, dim):
        gp, pc = make_topology(name)
        assert gp.n == n
        assert pc.dim == dim
        assert verify_labeling(gp, pc.labels)
        assert pc.labels.shape[1] == -(-dim // 64)  # words

    def test_paper_pe_counts(self):
        for name, n in [("grid16x16", 256), ("grid8x8x8", 512), ("hq8", 256)]:
            gp, _ = make_topology(name)
            assert gp.n == n

    def test_cache_returns_same_object(self):
        a = make_topology("grid4x4")
        b = make_topology("grid4x4")
        assert a[0] is b[0]

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            make_topology("klein-bottle")

    def test_names_listing(self):
        assert set(PAPER_TOPOLOGIES) <= set(topology_names())
        assert topology_names(paper_only=True) == PAPER_TOPOLOGIES


class TestInstances:
    def test_fifteen_rows(self):
        assert len(INSTANCES) == 15
        assert len(instance_names()) == 15

    def test_paper_sizes_recorded(self):
        spec = get_instance("as-skitter")
        assert spec.paper_n == 554_930

    def test_unknown_instance(self):
        with pytest.raises(KeyError):
            get_instance("not-a-network")

    def test_scaled_n_clipped(self):
        spec = get_instance("p2p-Gnutella")
        assert scaled_n(spec, divisor=1, n_max=1000) == 1000
        assert scaled_n(spec, divisor=10**6, n_min=384) == 384

    @pytest.mark.parametrize("spec", INSTANCES, ids=lambda spec: spec.name)
    def test_vertices_counts_what_the_builder_makes(self, spec):
        for n in (100, 128, 129):
            assert spec.builder(n, make_rng(0)).n == spec.vertices(n)

    def test_max_vertices(self):
        # R-MAT rounds its budget up to a power of two; the others keep it.
        assert max_vertices("soc-Slashdot0902", divisor=1, n_min=129, n_max=129) == 256
        assert max_vertices("p2p-Gnutella", divisor=1024, n_min=128, n_max=192) == 128

    @pytest.mark.parametrize("name", ["p2p-Gnutella", "citationCiteseer", "web-Google"])
    def test_generation_connected_named(self, name):
        g = generate_instance(name, seed=1, divisor=128)
        assert g.name == name
        assert is_connected(g)
        assert g.n >= 100

    def test_deterministic(self):
        a = generate_instance("PGPgiantcompo", seed=5, divisor=128)
        b = generate_instance("PGPgiantcompo", seed=5, divisor=128)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_instance("PGPgiantcompo", seed=5, divisor=128)
        b = generate_instance("PGPgiantcompo", seed=6, divisor=128)
        assert a != b

    def test_all_instances_generate_small(self):
        for spec in INSTANCES:
            sizing = {"divisor": 1024, "n_min": 128, "n_max": 256}
            g = generate_instance(spec.name, seed=3, **sizing)
            assert 32 < g.n <= max_vertices(spec.name, **sizing), spec.name
            assert is_connected(g), spec.name
