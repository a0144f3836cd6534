"""Fixed-seed byte-identity regression on the paper topologies.

The golden hashes below were computed on the last pre-wide-label commit,
when labels of up to 63 bits were 1-D ``int64`` arrays, and pin one-word
(``W == 1``) labels: any representation change that perturbs a one-word
fixed-seed output -- one different swap, one reordered RNG draw -- fails
here with a hash mismatch.  If you change these numbers you are breaking
the byte-identity contract; don't.
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
