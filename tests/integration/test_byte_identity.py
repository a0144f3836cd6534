"""Fixed-seed byte-identity regression on the paper topologies.

The golden hashes below were computed on the last pre-wide-label commit,
when labels of up to 63 bits were 1-D ``int64`` arrays, and pin one-word
(``W == 1``) labels: any representation change that perturbs a one-word
fixed-seed output -- one different swap, one reordered RNG draw -- fails
here with a hash mismatch.  ``WIDE_GOLDEN`` does the same for multi-word
labels, the KL and swap-coarsest paths and one-decimal float weights.
If you change these numbers you are breaking the byte-identity contract;
don't.
"""

import hashlib

import numpy as np
import pytest

from repro.api.pipeline import Pipeline, PipelineConfig
from repro.core.config import TimerConfig
from repro.graphs import generators as gen


def _hash(arr) -> str:
    data = np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


#: (topology, sha256(mu_final)[:16], coco_after) on BA(96, 3, seed=7),
#: stream seeding, seed=123, NH=4 -- recorded at PR 3's HEAD.
SMALL_GOLDEN = [
    ("grid4x4", "8157b40da60cd224", 408.0),
    ("torus4x4", "189f8aa8fb457bfb", 342.0),
    ("hq4", "1ae6b42ae0a36845", 342.0),
    ("fattree2x5", "86310f65c8a9222c", 1407.0),
    ("dragonfly4x2", "502a143d94db8e8f", 357.0),
    ("torus8x8", "a03f94c66f0d8d3c", 806.0),
]

#: Same contract on the paper's 256-PE topologies: BA(512, 3, seed=11),
#: raw (CLI) seeding, seed=42, NH=2 -- recorded at PR 3's HEAD.
PAPER_GOLDEN = [
    ("grid16x16", "5000013f5afafb99", 10145.0),
    ("torus16x16", "f398ba72260f52f0", 8189.0),
    ("hq8", "43847e86b1cc0764", 4131.0),
]


class TestNarrowPathByteIdentity:
    @pytest.mark.parametrize("topo,gold,coco", SMALL_GOLDEN)
    def test_small_topologies_stream_policy(self, topo, gold, coco):
        ga = gen.barabasi_albert(96, 3, seed=7)
        pipe = Pipeline(
            topo,
            PipelineConfig(seed_policy="stream", timer=TimerConfig(n_hierarchies=4)),
        )
        res = pipe.run(ga, seed=123)
        assert _hash(res.mu_final) == gold
        assert res.coco_after == coco

    @pytest.mark.parametrize("topo,gold,coco", PAPER_GOLDEN)
    def test_paper_topologies_raw_policy(self, topo, gold, coco):
        ga = gen.barabasi_albert(512, 3, seed=11)
        pipe = Pipeline(
            topo,
            PipelineConfig(seed_policy="raw", timer=TimerConfig(n_hierarchies=2)),
        )
        res = pipe.run(ga, seed=42)
        assert _hash(res.mu_final) == gold
        assert res.coco_after == coco

    def test_labels_stay_narrow_on_paper_topologies(self):
        from repro.api.topology import Topology

        for topo, _, _ in PAPER_GOLDEN:
            labels = Topology.from_name(topo).labeling.labels
            assert labels.shape[1] == 1 and labels.dtype == np.uint64


def _weighted(ga, seed: int):
    """``ga`` with one-decimal weights ``round(uniform(0.1, 5.0), 1)``."""
    from repro.graphs.builder import from_arrays

    us, vs, _ = ga.edge_arrays()
    ws = np.round(np.random.default_rng(seed).uniform(0.1, 5.0, us.shape[0]), 1)
    return from_arrays(ga.n, us, vs, ws)


def _mod_mu(n: int) -> np.ndarray:
    """Vertex ``i`` on PE ``i mod 255`` (fattree2x7 has 255 PEs)."""
    return np.arange(n) % 255


#: (topology, graph, TimerConfig kwargs, mu, seed, sha256(mu_final)[:16],
#: coco_after) -- multi-word labels (fattree2x7's processor labels span
#: 254 bits, four words; fattree4x3's 84 bits, two), the KL and
#: swap-coarsest paths, and one-decimal float weights.  Recorded at 59f372e, before the
#: one-label-sort hierarchy, in fresh processes under two hash seeds.
WIDE_GOLDEN = [
    pytest.param(
        "fattree2x7", lambda: gen.barabasi_albert(600, 3, seed=5),
        {"n_hierarchies": 3}, _mod_mu, 42, "1d42361b38ddceba", 14718.0,
        id="fattree2x7-mu",
    ),
    pytest.param(
        "fattree4x3", lambda: gen.barabasi_albert(300, 3, seed=6),
        {"n_hierarchies": 4}, None, 123, "d29ca6b648ff6c65", 2725.0,
        id="fattree4x3",
    ),
    pytest.param(
        "fattree4x3", lambda: gen.barabasi_albert(300, 3, seed=6),
        {"n_hierarchies": 4, "swap_strategy": "kl", "sweeps_per_level": 2},
        None, 123, "9cabab6ffbd53016", 2670.0,
        id="fattree4x3-kl",
    ),
    pytest.param(
        "fattree4x3", lambda: gen.barabasi_albert(300, 3, seed=6),
        {"n_hierarchies": 4, "sweeps_per_level": 3, "swap_coarsest": True},
        None, 123, "db8075e3c9c57fc8", 2664.0,
        id="fattree4x3-coarsest",
    ),
    pytest.param(
        "grid16x16", lambda: _weighted(gen.barabasi_albert(400, 3, seed=8), 9),
        {"n_hierarchies": 4}, None, 7, "b17c111de090baa0", 19504.800000000003,
        id="grid16x16-weighted",
    ),
    pytest.param(
        "fattree2x7", lambda: _weighted(gen.barabasi_albert(600, 3, seed=5), 10),
        {"n_hierarchies": 3}, _mod_mu, 42, "8437f97d177ba5fa", 37614.2,
        id="fattree2x7-mu-weighted",
    ),
]


class TestWideAndWeightedByteIdentity:
    @pytest.mark.parametrize("topo,make_ga,timer,make_mu,seed,gold,coco", WIDE_GOLDEN)
    def test_pipeline_output(self, topo, make_ga, timer, make_mu, seed, gold, coco):
        ga = make_ga()
        mu = None if make_mu is None else make_mu(ga.n)
        pipe = Pipeline(topo, PipelineConfig(timer=TimerConfig(**timer)))
        res = pipe.run(ga, mu=mu, seed=seed)
        assert _hash(res.mu_final) == gold
        assert res.coco_after == coco
