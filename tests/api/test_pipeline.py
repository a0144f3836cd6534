"""Pipeline behavior: legacy byte-equivalence, hooks, results, identity."""

import numpy as np
import pytest
import dataclasses

from repro.api.pipeline import Pipeline, PipelineConfig
from repro.api.topology import Topology
from repro.core.config import TimerConfig
from repro.core.enhancer import timer_enhance
from repro.errors import ConfigurationError, MappingError
from repro.experiments.topologies import make_topology
from repro.graphs import generators as gen
from repro.graphs.builder import from_arrays
from repro.mapping.mapper import compute_initial_mapping
from repro.mapping.objective import coco
from repro.partitioning.kway import partition_kway
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def app_graph():
    return gen.barabasi_albert(220, 3, seed=9)


class TestLegacyByteEquivalence:
    """pipeline.run must reproduce the pre-redesign call sequences."""

    @pytest.mark.parametrize("case", ["c1", "c2", "c3", "c4"])
    def test_map_path_raw_policy(self, app_graph, case):
        """The CLI `map` convention: each stage reseeded with the raw int."""
        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(
                initial_mapping=case, enhance="none", seed_policy="raw"
            ),
        )
        res = pipe.run(app_graph, seed=13)
        gp, _pc = make_topology("grid4x4")
        part = partition_kway(app_graph, gp.n, epsilon=0.03, seed=13)
        mu, _ = compute_initial_mapping(case, part, gp, seed=13)
        assert np.array_equal(res.mu_final, mu)
        assert res.coco_after == coco(app_graph, gp, mu)

    def test_enhance_path_raw_policy(self, app_graph):
        """The CLI `enhance` convention: TIMER from a provided mapping."""
        gp, pc = make_topology("grid4x4")
        part = partition_kway(app_graph, gp.n, epsilon=0.03, seed=2)
        mu0, _ = compute_initial_mapping("c2", part, gp, seed=2)
        cfg = TimerConfig(n_hierarchies=5)
        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(
                partition="none",
                initial_mapping="none",
                seed_policy="raw",
                timer=cfg,
            ),
        )
        res = pipe.run(app_graph, mu=mu0, seed=4)
        legacy = timer_enhance(app_graph, gp, pc, mu0, seed=4, config=cfg)
        assert np.array_equal(res.mu_final, legacy.mu_after)
        assert res.coco_after == legacy.coco_after
        assert res.cut_after == legacy.cut_after

    def test_case_path_stream_policy(self, app_graph):
        """The harness convention: one rng threaded through the stages."""
        gp, pc = make_topology("grid4x4")
        part = partition_kway(app_graph, gp.n, epsilon=0.03, seed=6)
        cfg = TimerConfig(n_hierarchies=4)
        pipe = Pipeline(
            Topology.from_graph(gp, labeling=pc, name="grid4x4"),
            PipelineConfig(
                partition="none",
                initial_mapping="c1",
                seed_policy="stream",
                timer=cfg,
            ),
        )
        res = pipe.run(app_graph, partition=part, seed=21)
        rng = make_rng(21)
        mu, _ = compute_initial_mapping("c1", part, gp, seed=rng)
        legacy = timer_enhance(app_graph, gp, pc, mu, seed=rng, config=cfg)
        assert np.array_equal(res.mu_initial, mu)
        assert np.array_equal(res.mu_final, legacy.mu_after)

    def test_same_seed_same_hash_same_bytes(self, app_graph):
        pipe = Pipeline("grid4x4", PipelineConfig(timer=TimerConfig(n_hierarchies=2)))
        a = pipe.run(app_graph, seed=3)
        b = pipe.run(app_graph, seed=3)
        assert np.array_equal(a.mu_final, b.mu_final)
        assert a.identity_hash == b.identity_hash
        c = pipe.run(app_graph, seed=4)
        assert c.identity_hash != a.identity_hash

    def test_provided_inputs_change_the_hash(self, app_graph):
        """Caller-supplied mu/partition enter the hash by *content*:
        same hash must mean same numbers."""
        pipe = Pipeline("grid4x4", PipelineConfig(timer=TimerConfig(n_hierarchies=2)))
        computed = pipe.run(app_graph, seed=3)
        assert computed.identity["inputs"] == {"partition": None, "mu": None}
        supplied = pipe.run(
            app_graph, mu=np.zeros(app_graph.n, dtype=np.int64), seed=3
        )
        assert supplied.identity["inputs"]["mu"] is not None
        assert supplied.identity_hash != computed.identity_hash

        part_a = partition_kway(app_graph, 16, epsilon=0.03, seed=99)
        part_b = partition_kway(app_graph, 16, epsilon=0.03, seed=100)
        run_a = pipe.run(app_graph, partition=part_a, seed=3)
        run_b = pipe.run(app_graph, partition=part_b, seed=3)
        assert run_a.identity_hash != computed.identity_hash
        # different supplied partitions -> different provenance hashes
        assert run_a.identity_hash != run_b.identity_hash
        # same supplied content -> same hash
        rerun_a = pipe.run(app_graph, partition=part_a, seed=3)
        assert rerun_a.identity_hash == run_a.identity_hash

    def test_graph_content_enters_the_hash(self):
        """Same name, n and m but other edges or vertex weights: other hash."""
        pipe = Pipeline("grid4x4")
        graphs = []
        for seed in (1, 2):
            g = gen.barabasi_albert(64, 2, seed=seed)
            graphs.append(from_arrays(g.n, *g.edge_arrays(), name="g"))
        a, b = (pipe.run(g, seed=1) for g in graphs)
        assert (a.identity["graph"]["n"], a.identity["graph"]["m"]) == (
            b.identity["graph"]["n"], b.identity["graph"]["m"]
        )
        assert not np.array_equal(a.mu_final, b.mu_final)
        assert a.identity_hash != b.identity_hash
        g = graphs[0]
        heavy = from_arrays(g.n, *g.edge_arrays(), vertex_weights=np.full(g.n, 2.0), name="g")
        assert pipe.run(heavy, seed=1).identity_hash != a.identity_hash
        assert pipe.run(graphs[0], seed=1).identity_hash == a.identity_hash

    def test_partition_stage_timing_uses_instance_name(self, app_graph):
        class NamedPartition:
            name = "metis-ish"

            def __call__(self, ga, k, *, epsilon, seed):
                return partition_kway(ga, k, epsilon=epsilon, seed=seed)

        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(enhance="none"),
            partition_stage=NamedPartition(),
        )
        res = pipe.run(app_graph, seed=0)
        assert res.stage_timings[0].name == "metis-ish"


class TestPipelineSurface:
    def test_stage_timings_and_metrics(self, app_graph):
        pipe = Pipeline("grid4x4", PipelineConfig(timer=TimerConfig(n_hierarchies=2)))
        res = pipe.run(app_graph, seed=1)
        assert [t.stage for t in res.stage_timings] == [
            "partition", "initial_mapping", "enhance",
        ]
        assert res.elapsed_seconds >= 0
        assert set(res.metrics) == {
            "cut_before", "cut_after", "coco_before", "coco_after",
        }
        assert res.coco_after <= res.coco_before
        assert res.seed == 1
        assert res.identity["config"]["timer"]["n_hierarchies"] == 2

    def test_unknown_stage_fails_at_build_time(self):
        with pytest.raises(ConfigurationError):
            Pipeline("grid4x4", PipelineConfig(initial_mapping="c99"))
        with pytest.raises(ConfigurationError):
            Pipeline("grid4x4", PipelineConfig(partition="metis"))
        with pytest.raises(ConfigurationError):
            Pipeline("no-such-topology")

    def test_missing_stage_without_inputs_raises(self, app_graph):
        pipe = Pipeline(
            "grid4x4", PipelineConfig(partition="none", initial_mapping="none")
        )
        with pytest.raises(ConfigurationError):
            pipe.run(app_graph, seed=0)

    def test_custom_stage_instance(self, app_graph):
        class FixedMapping:
            name = "fixed"

            def __call__(self, part, gp, *, seed):
                return np.zeros(part.assignment.shape[0], dtype=np.int64)

        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(enhance="none"),
            mapping_stage=FixedMapping(),
        )
        res = pipe.run(app_graph, seed=0)
        assert (res.mu_final == 0).all()
        assert res.stage_timings[1].name == "fixed"

    def test_verify_hooks_catch_bad_mappings(self, app_graph):
        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(
                partition="none",
                initial_mapping="none",
                enhance="none",
                pre_verify=("mapping-valid",),
            ),
        )
        bad = np.full(app_graph.n, 999, dtype=np.int64)  # outside V_p
        with pytest.raises(MappingError):
            pipe.run(app_graph, mu=bad)

    def test_report_hooks_populate_reports(self, app_graph):
        pipe = Pipeline(
            "grid4x4",
            PipelineConfig(
                timer=TimerConfig(n_hierarchies=1),
                post_verify=("balance-preserved", "mapping-valid"),
                reports=("quality", "summary"),
            ),
        )
        res = pipe.run(app_graph, seed=5)
        assert res.reports["quality"] == res.metrics
        assert "Coco" in res.reports["summary"]

    def test_with_config_shares_session(self, app_graph):
        pipe = Pipeline("grid4x4", PipelineConfig(timer=TimerConfig(n_hierarchies=1)))
        other = pipe.with_config(initial_mapping="c3")
        assert other.topology is pipe.topology
        assert other.config.initial_mapping == "c3"
        assert pipe.config.initial_mapping == "c2"

    def test_with_config_keeps_stage_instances(self, app_graph):
        class FixedMapping:
            name = "fixed"

            def __call__(self, part, gp, *, seed):
                return np.full(part.assignment.shape[0], 7, dtype=np.int64)

        stage = FixedMapping()
        pipe = Pipeline(
            "grid4x4", PipelineConfig(enhance="none"), mapping_stage=stage
        )
        sibling = pipe.with_config(epsilon=0.05)
        assert sibling._mapping is stage
        res = sibling.run(app_graph, seed=0)
        assert (res.mu_final == 7).all()

    def test_config_is_frozen_and_validated(self):
        cfg = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epsilon = 0.5  # frozen dataclass
        with pytest.raises(ConfigurationError):
            PipelineConfig(seed_policy="chaotic")
