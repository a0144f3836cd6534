"""Tests for application-vertex labels (paper section 4)."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.graphs import generators as gen
from repro.core.labels import (
    build_application_labeling,
    dim_extension,
)
from repro.partialcube.djokovic import partial_cube_labeling
from repro.utils.bitops import label_to_int


def _ints(labels):
    return [label_to_int(labels, v) for v in range(labels.shape[0])]


@pytest.fixture
def setup():
    ga = gen.barabasi_albert(100, 2, seed=3)
    gp = gen.grid(4, 4)
    pc = partial_cube_labeling(gp)
    rng = np.random.default_rng(0)
    mu = rng.integers(0, gp.n, ga.n)
    return ga, gp, pc, mu


class TestDimExtension:
    def test_definition_4_1(self):
        # blocks of sizes 3, 8, 1 -> ceil(log2 8) = 3
        mu = np.asarray([0] * 3 + [1] * 8 + [2])
        assert dim_extension(mu, 3) == 3

    def test_singletons_zero(self):
        assert dim_extension(np.asarray([0, 1, 2]), 3) == 0

    def test_power_of_two_boundary(self):
        assert dim_extension(np.asarray([0] * 4), 1) == 2
        assert dim_extension(np.asarray([0] * 5), 1) == 3


class TestBuildLabeling:
    def test_labels_unique(self, setup):
        ga, gp, pc, mu = setup
        app = build_application_labeling(ga, pc, mu, seed=1)
        assert len(set(_ints(app.labels))) == ga.n

    def test_requirement_1_encodes_mu(self, setup):
        """Paper requirement 1: l_a encodes mu."""
        ga, gp, pc, mu = setup
        app = build_application_labeling(ga, pc, mu, seed=2)
        assert np.array_equal(app.mu(), mu)

    def test_requirement_2_distances(self, setup):
        """Paper requirement 2: prefix Hamming = Gp distance of mapped PEs."""
        from repro.graphs.algorithms import all_pairs_distances

        ga, gp, pc, mu = setup
        app = build_application_labeling(ga, pc, mu, seed=3)
        dist = all_pairs_distances(gp)
        lp = app.lp_part()
        for u in range(0, ga.n, 7):
            for v in range(0, ga.n, 11):
                ham = bin(label_to_int(lp, u) ^ label_to_int(lp, v)).count("1")
                assert ham == dist[mu[u], mu[v]]

    def test_extension_within_block_bounds(self, setup):
        ga, gp, pc, mu = setup
        app = build_application_labeling(ga, pc, mu, seed=4)
        le = app.le_part()
        for pe in range(gp.n):
            members = np.nonzero(mu == pe)[0]
            if members.size:
                vals = sorted(_ints(le[members]))
                assert vals == list(range(members.size))  # 0..size-1 exactly

    def test_shuffle_differs_by_seed(self, setup):
        ga, gp, pc, mu = setup
        a = build_application_labeling(ga, pc, mu, seed=5)
        b = build_application_labeling(ga, pc, mu, seed=6)
        assert not np.array_equal(a.labels, b.labels)
        # but lp parts agree (mapping unchanged)
        assert np.array_equal(a.lp_part(), b.lp_part())

    def test_dim_property(self, setup):
        ga, gp, pc, mu = setup
        app = build_application_labeling(ga, pc, mu, seed=7)
        assert app.dim == app.dim_p + app.dim_e
        assert app.dim_p == pc.dim

    def test_rejects_wrong_mu_range(self, setup):
        ga, gp, pc, _ = setup
        with pytest.raises(ValueError):
            build_application_labeling(ga, pc, np.full(ga.n, 99), seed=0)

    def test_width_overflow_detected(self):
        # Tree topology with dim 40 + large blocks would exceed 63 bits.
        gp = gen.star(40)  # dim 40
        pc = partial_cube_labeling(gp)
        # fake mu with one huge block via a tiny ga
        ga2 = gen.path(50)
        mu = np.zeros(50, dtype=np.int64)  # one block of 50 -> dim_e 6; 40+6 ok
        app = build_application_labeling(ga2, pc, mu, seed=0)
        assert app.dim == 46

    def test_check_bijective_raises_on_duplicates(self, setup):
        ga, gp, pc, mu = setup
        app = build_application_labeling(ga, pc, mu, seed=8)
        bad = app.with_labels(np.zeros_like(app.labels))
        with pytest.raises(MappingError):
            bad.check_bijective()

    def test_mu_rejects_foreign_prefix(self, setup):
        ga, gp, pc, mu = setup
        app = build_application_labeling(ga, pc, mu, seed=9)
        # fabricate a prefix that is not any PE label
        all_prefixes = set(_ints(pc.labels))
        foreign = next(x for x in range(2 ** pc.dim) if x not in all_prefixes)
        bad_labels = app.labels.copy()
        bad_labels[0] = foreign << app.dim_e
        with pytest.raises(MappingError):
            app.with_labels(bad_labels).mu()
