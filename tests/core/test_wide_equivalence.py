"""W == 1 vs multi-word agreement across the core label machinery.

Every test zero-pads a one-word labeling to 2-4 words and asserts the
multi-word labels compute exactly the same objectives, gains, swaps,
contractions and final labelings as the one-word labels -- the word
count must never change a result.  The multi-word batch kernels are
additionally checked against the scalar reference on multi-word labels
themselves.
"""

import numpy as np
import pytest

from repro.core.config import TimerConfig
from repro.core.contraction import build_hierarchy, contract_level, make_finest_level
from repro.core.enhancer import _enhance_labeling, timer_enhance
from repro.core.assemble import assemble
from repro.core.kernels import (
    batch_pair_deltas,
    batch_swap_pass,
    level_csr,
    sibling_pair_weights,
    sibling_pairs,
)
from repro.core.labels import build_application_labeling
from repro.core.objective import coco_plus, coco_plus_signed, coco_of_labels, div_of_labels
from repro.core.swaps import kl_swap_pass, kl_swap_pass_reference, swap_pass_reference
from repro.graphs import generators as gen
from repro.partialcube.djokovic import partial_cube_labeling
from repro.utils.bitops import widen_labels
from repro.utils.rng import make_rng


def _narrow_app(seed, n=120, pe=16):
    ga = gen.barabasi_albert(n, 3, seed=seed)
    gp = gen.grid(4, 4) if pe == 16 else gen.hypercube(6)
    pc = partial_cube_labeling(gp)
    mu = (np.arange(n) % gp.n).astype(np.int64)
    make_rng(seed).shuffle(mu)
    app = build_application_labeling(ga, pc, mu, seed=seed)
    return ga, app


def _levels(ga, labels, words=None):
    lab = labels if words is None else widen_labels(labels, words)
    return make_finest_level(ga.edge_arrays(), lab)


class TestObjectiveAgreement:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("words", [2, 3, 4])
    def test_coco_div_cocoplus(self, seed, words):
        ga, app = _narrow_app(seed)
        wide = widen_labels(app.labels, words)
        args = (app.dim_p, app.dim_e)
        assert coco_of_labels(ga, wide, *args) == coco_of_labels(ga, app.labels, *args)
        assert div_of_labels(ga, wide, *args) == div_of_labels(ga, app.labels, *args)
        assert coco_plus(ga, wide, *args) == coco_plus(ga, app.labels, *args)

    @pytest.mark.parametrize("seed", range(3))
    def test_coco_plus_signed(self, seed):
        ga, app = _narrow_app(seed)
        rng = make_rng(seed)
        signs = rng.choice([-1, 1], size=app.dim)
        wide = widen_labels(app.labels, 2)
        assert coco_plus_signed(ga, wide, signs) == coco_plus_signed(
            ga, app.labels, signs
        )


class TestSwapGainAgreement:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_batch_pair_deltas_match(self, seed, sign):
        ga, app = _narrow_app(seed)
        narrow = _levels(ga, app.labels)
        wide = _levels(ga, app.labels, words=2)
        pn = sibling_pairs(narrow.labels)
        pw = sibling_pairs(wide.labels)
        assert np.array_equal(pn, pw)
        dn = batch_pair_deltas(
            narrow.labels, pn, level_csr(narrow), sign, sibling_pair_weights(narrow, pn)
        )
        dw = batch_pair_deltas(
            wide.labels, pw, level_csr(wide), sign, sibling_pair_weights(wide, pw)
        )
        assert np.array_equal(dn, dw)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_batch_swap_pass_match(self, seed, sign):
        ga, app = _narrow_app(seed)
        narrow = _levels(ga, app.labels)
        wide = _levels(ga, app.labels, words=2)
        rn = batch_swap_pass(narrow, sign, sweeps=2)
        rw = batch_swap_pass(wide, sign, sweeps=2)
        assert rn == rw
        assert np.array_equal(narrow.labels, widen_labels(wide.labels, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_kl_swap_pass_match(self, seed):
        ga, app = _narrow_app(seed)
        narrow = _levels(ga, app.labels)
        wide = _levels(ga, app.labels, words=2)
        rn = kl_swap_pass(narrow, 1)
        rw = kl_swap_pass(wide, 1)
        assert rn == rw
        assert np.array_equal(narrow.labels, widen_labels(wide.labels, 1))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_wide_batch_matches_wide_scalar_reference(self, seed, sign):
        # The scalar sweep is the ground truth *within* the wide regime
        # too, not just versus the narrow embedding.
        ga, app = _narrow_app(seed)
        a = _levels(ga, app.labels, words=2)
        b = _levels(ga, app.labels, words=2)
        ra = swap_pass_reference(a, sign)
        rb = batch_swap_pass(b, sign)
        assert ra == rb
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_kl_matches_wide_scalar_reference(self, seed):
        ga, app = _narrow_app(seed)
        a = _levels(ga, app.labels, words=2)
        b = _levels(ga, app.labels, words=2)
        ra = kl_swap_pass_reference(a, 1)
        rb = kl_swap_pass(b, 1)
        assert ra == rb
        assert np.array_equal(a.labels, b.labels)


class TestContractAssembleAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_contract_level_match(self, seed):
        ga, app = _narrow_app(seed)
        narrow = _levels(ga, app.labels)
        wide = _levels(ga, app.labels, words=2)
        cn = contract_level(narrow)
        cw = contract_level(wide)
        assert np.array_equal(narrow.parent, wide.parent)
        assert np.array_equal(cn.labels, widen_labels(cw.labels, 1))
        assert np.array_equal(cn.us, cw.us) and np.array_equal(cn.ws, cw.ws)

    @pytest.mark.parametrize("seed", range(3))
    def test_assemble_match_after_swaps(self, seed):
        ga, app = _narrow_app(seed)
        dim = app.dim
        ln = build_hierarchy(ga.edge_arrays(), app.labels, dim)
        lw = build_hierarchy(ga.edge_arrays(), widen_labels(app.labels, 2), dim)
        for j, (a, b) in enumerate(zip(ln, lw)):
            sign = 1 if j % 2 else -1
            batch_swap_pass(a, sign)
            batch_swap_pass(b, sign)
            # contraction happened before the swaps in build_hierarchy, so
            # re-link parents by re-contracting is not needed: assemble
            # only reads labels + parent pointers.
        an = assemble(ln, dim)
        aw = assemble(lw, dim)
        assert np.array_equal(an, widen_labels(aw, 1))


class TestFullEnhancerAgreement:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_enhance_labeling_narrow_vs_widened(self, seed):
        ga, app = _narrow_app(seed)
        cfg = TimerConfig(n_hierarchies=3)
        out_n, hist_n, acc_n = _enhance_labeling(ga, app, cfg, make_rng(99))
        for words in (2, 3, 4):
            wide_app = app.with_labels(widen_labels(app.labels, words))
            out_w, hist_w, acc_w = _enhance_labeling(ga, wide_app, cfg, make_rng(99))
            assert hist_n == hist_w and acc_n == acc_w
            assert np.array_equal(out_n.labels, widen_labels(out_w.labels, 1))
            assert np.array_equal(out_n.mu(), out_w.mu())

    def test_timer_enhance_on_truly_wide_topology(self):
        gp = gen.fat_tree(2, 6)  # 127 PEs, dim 126 -> 2-word labels
        pc = partial_cube_labeling(gp)
        ga = gen.barabasi_albert(300, 3, seed=3)
        mu = (np.arange(ga.n) % gp.n).astype(np.int64)
        res = timer_enhance(
            ga, gp, pc, mu, seed=5, config=TimerConfig(n_hierarchies=2)
        )
        assert res.coco_after <= res.coco_before
        before = np.bincount(mu, minlength=gp.n)
        after = np.bincount(res.mu_after, minlength=gp.n)
        assert np.array_equal(before, after)  # balance preserved exactly
        assert res.labeling.labels.shape[1] == 2
