"""Tests for Coco+ = Coco - Div (paper section 5)."""

import numpy as np
import pytest

from repro.core.labels import build_application_labeling
from repro.core.objective import (
    coco_of_labels,
    coco_plus,
    coco_plus_signed,
    div_of_labels,
)
from repro.graphs import generators as gen
from repro.graphs.builder import from_edges
from repro.mapping.objective import coco
from repro.partialcube.djokovic import partial_cube_labeling
from repro.utils.bitops import label_to_int, permute_bits


@pytest.fixture
def setup():
    ga = gen.barabasi_albert(120, 3, seed=1)
    gp = gen.grid(4, 4)
    pc = partial_cube_labeling(gp)
    rng = np.random.default_rng(2)
    mu = rng.integers(0, gp.n, ga.n)
    app = build_application_labeling(ga, pc, mu, seed=3)
    return ga, gp, mu, app


class TestCocoOfLabels:
    def test_matches_distance_coco(self, setup):
        ga, gp, mu, app = setup
        assert np.isclose(
            coco_of_labels(ga, app.labels, app.dim_p, app.dim_e),
            coco(ga, gp, mu),
        )

    def test_identity_hand_example(self):
        """Eq. 9 on a 2-edge graph with 2-bit prefixes."""
        ga = from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        # dim_p=2, dim_e=1: labels (lp|le): 00|0, 01|1, 11|0
        labels = np.asarray([[0b000], [0b011], [0b110]], dtype=np.uint64)
        # prefix hamming: (00,01)=1 w2 -> 2 ; (01,11)=1 w3 -> 3
        assert coco_of_labels(ga, labels, 2, 1) == 5.0
        # extensions: (0,1)=1 w2 -> 2 ; (1,0)=1 w3 -> 3
        assert div_of_labels(ga, labels, 2, 1) == 5.0
        assert coco_plus(ga, labels, 2, 1) == 0.0


class TestCocoPlusConsistency:
    def test_plus_is_difference(self, setup):
        ga, _, _, app = setup
        c = coco_of_labels(ga, app.labels, app.dim_p, app.dim_e)
        d = div_of_labels(ga, app.labels, app.dim_p, app.dim_e)
        assert np.isclose(coco_plus(ga, app.labels, app.dim_p, app.dim_e), c - d)

    def test_edges_form_matches(self, setup):
        """Coco+ equals an explicit per-edge sum over Python-int labels."""
        ga, _, _, app = setup
        lp_mask = ((1 << app.dim_p) - 1) << app.dim_e
        le_mask = (1 << app.dim_e) - 1
        total = 0.0
        for u, v, w in ga.edges():
            x = label_to_int(app.labels, u) ^ label_to_int(app.labels, v)
            total += w * (bin(x & lp_mask).count("1") - bin(x & le_mask).count("1"))
        assert np.isclose(total, coco_plus(ga, app.labels, app.dim_p, app.dim_e))

    def test_signed_form_matches_after_permutation(self, setup):
        """The per-bit-sign evaluation is permutation-equivariant."""
        ga, _, _, app = setup
        rng = np.random.default_rng(7)
        perm = rng.permutation(app.dim)
        permuted = permute_bits(app.labels, perm)
        signs = np.where(perm >= app.dim_e, 1, -1)
        assert np.isclose(
            coco_plus_signed(ga, permuted, signs),
            coco_plus(ga, app.labels, app.dim_p, app.dim_e),
        )

    def test_vacuous_edge_restrictions(self, setup):
        """Edges with equal prefixes contribute 0, so Eq. 9's set
        restriction does not change the sum (asserted numerically by
        comparing to an explicit per-edge loop)."""
        ga, _, _, app = setup
        lp_mask = ((1 << app.dim_p) - 1) << app.dim_e
        total = 0.0
        for u, v, w in ga.edges():
            lu, lv = label_to_int(app.labels, u), label_to_int(app.labels, v)
            if (lu & lp_mask) == (lv & lp_mask):
                continue  # E_a^p edges excluded, as in the paper
            total += w * bin((lu ^ lv) & lp_mask).count("1")
        assert np.isclose(total, coco_of_labels(ga, app.labels, app.dim_p, app.dim_e))

    def test_zero_extension_width(self):
        ga = from_edges(2, [(0, 1, 4.0)])
        labels = np.asarray([[0b0], [0b1]], dtype=np.uint64)
        assert coco_plus(ga, labels, 1, 0) == 4.0
        assert div_of_labels(ga, labels, 1, 0) == 0.0
