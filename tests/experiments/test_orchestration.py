"""Parallel/resume orchestration tests (ISSUE 2 acceptance criteria).

The sweeps here are acceptance-shaped: >= 2 instances x >= 3 topologies
(one from the widened interconnect set), run sequentially and with two
workers, persisted to artifact stores.  "Byte-identical" means the
deterministic section of every cell record -- identity + data -- compares
equal as canonical JSON bytes; wall-clock timings are honest
measurements and live outside that section by design.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cases import CaseRun
from repro.experiments.cli import main
from repro.experiments.runner import (
    ExperimentConfig,
    cell_identity,
    run_experiment,
)
from repro.experiments.store import ArtifactStore, cell_key, deterministic_bytes

CONFIG = ExperimentConfig(
    instances=("p2p-Gnutella", "PGPgiantcompo"),
    topologies=("grid4x4", "hq4", "dragonfly4x2"),  # dragonfly: widened set
    cases=("c2", "c4"),
    repetitions=1,
    n_hierarchies=2,
    divisor=1024,
    n_min=96,
    n_max=128,
    seed=11,
)
N_CELLS = 2 * 3 * 2  # instances x topologies x cases (x 1 rep)


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("cells-seq")
    result = run_experiment(CONFIG, jobs=1, store=store_dir)
    return result, ArtifactStore(store_dir)


@pytest.fixture(scope="module")
def parallel(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("cells-par")
    result = run_experiment(CONFIG, jobs=2, store=store_dir)
    return result, ArtifactStore(store_dir)


class TestParallelDeterminism:
    def test_everything_computed(self, sequential, parallel):
        assert sequential[0].cells_computed == N_CELLS
        assert parallel[0].cells_computed == N_CELLS
        assert parallel[0].jobs == 2

    def test_same_cell_keys(self, sequential, parallel):
        assert set(sequential[1].keys()) == set(parallel[1].keys())
        assert len(sequential[1]) == N_CELLS

    def test_cell_for_cell_identical_json(self, sequential, parallel):
        _, seq_store = sequential
        _, par_store = parallel
        for key in seq_store.keys():
            seq_bytes = deterministic_bytes(seq_store.get(key))
            par_bytes = deterministic_bytes(par_store.get(key))
            assert seq_bytes == par_bytes, f"cell {key} diverged across job counts"

    def test_quality_aggregates_identical(self, sequential, parallel):
        seq_agg = sequential[0].aggregate()
        par_agg = parallel[0].aggregate()
        for topo in CONFIG.topologies:
            for case in CONFIG.cases:
                for metric in ("q_cut", "q_coco"):  # q_time is wall clock
                    assert seq_agg[topo][case][metric] == par_agg[topo][case][metric]

    def test_partition_shared_within_rep(self, sequential):
        # all three topologies have 16 PEs -> one partition per (instance, rep)
        result, _ = sequential
        assert set(result.partition_times) == {
            ("p2p-Gnutella", 16),
            ("PGPgiantcompo", 16),
        }
        for times in result.partition_times.values():
            assert len(times) == CONFIG.repetitions


class TestResume:
    def test_resume_recomputes_nothing(self, sequential):
        _, store = sequential
        before = {p: p.stat().st_mtime_ns for p in store.root.rglob("*.json")}
        resumed = run_experiment(CONFIG, jobs=2, store=store, resume=True)
        assert resumed.cells_computed == 0
        assert resumed.cells_cached == N_CELLS
        after = {p: p.stat().st_mtime_ns for p in store.root.rglob("*.json")}
        assert before == after, "resume must not touch completed cells"

    def test_resumed_result_matches(self, sequential):
        result, store = sequential
        resumed = run_experiment(CONFIG, jobs=1, store=store, resume=True)
        assert resumed.aggregate() == result.aggregate()
        assert resumed.partition_times == result.partition_times
        assert resumed.instance_stats == result.instance_stats

    def test_partial_store_fills_only_gaps(self, sequential, tmp_path):
        _, full_store = sequential
        # Clone the store, delete two cells, resume: exactly 2 recomputed.
        clone = ArtifactStore(tmp_path / "clone")
        keys = sorted(full_store.keys())
        for key in keys[2:]:
            clone.put(key, full_store.get(key))
        resumed = run_experiment(CONFIG, jobs=1, store=clone, resume=True)
        assert resumed.cells_computed == 2
        assert resumed.cells_cached == N_CELLS - 2
        for key in keys[:2]:
            assert deterministic_bytes(clone.get(key)) == deterministic_bytes(
                full_store.get(key)
            )

    def test_growing_the_sweep_reuses_cells(self, sequential, tmp_path):
        # A new topology joins the matrix: only its cells are computed.
        _, full_store = sequential
        clone = ArtifactStore(tmp_path / "grown")
        for key in full_store.keys():
            clone.put(key, full_store.get(key))
        grown = dataclasses.replace(
            CONFIG, topologies=CONFIG.topologies + ("torus4x4",)
        )
        resumed = run_experiment(grown, jobs=1, store=clone, resume=True)
        assert resumed.cells_cached == N_CELLS
        assert resumed.cells_computed == 2 * 1 * 2  # instances x new topo x cases

    def test_resume_requires_store(self):
        with pytest.raises(ConfigurationError):
            run_experiment(CONFIG, resume=True)


class TestCellIdentity:
    def test_execution_knobs_excluded(self):
        verbose = dataclasses.replace(CONFIG, verbose=True)
        a = cell_identity(CONFIG, "p2p-Gnutella", 0, "grid4x4", "c2")
        b = cell_identity(verbose, "p2p-Gnutella", 0, "grid4x4", "c2")
        assert cell_key(a) == cell_key(b)

    def test_other_axes_excluded(self):
        # Dropping a topology must not invalidate the remaining cells.
        narrowed = dataclasses.replace(CONFIG, topologies=("grid4x4",))
        a = cell_identity(CONFIG, "p2p-Gnutella", 0, "grid4x4", "c2")
        b = cell_identity(narrowed, "p2p-Gnutella", 0, "grid4x4", "c2")
        assert cell_key(a) == cell_key(b)

    def test_result_relevant_knobs_included(self):
        for change in ({"seed": 12}, {"n_hierarchies": 3}, {"divisor": 512},
                       {"epsilon": 0.1}, {"n_min": 97}, {"n_max": 129}):
            other = dataclasses.replace(CONFIG, **change)
            a = cell_identity(CONFIG, "p2p-Gnutella", 0, "grid4x4", "c2")
            b = cell_identity(other, "p2p-Gnutella", 0, "grid4x4", "c2")
            assert cell_key(a) != cell_key(b), change


class TestCaseRunPayload:
    def test_round_trip(self, sequential):
        result, _ = sequential
        run = result.cells[0].runs[0]
        assert isinstance(run, CaseRun)
        data, timing = run.to_payload()
        assert set(timing) == set(CaseRun.TIMING_FIELDS)
        assert not set(timing) & set(data)
        assert CaseRun.from_payload(data, timing) == run

    def test_ignores_store_extras(self, sequential):
        _, store = sequential
        record = store.get(next(iter(store.keys())))
        run = CaseRun.from_payload(record["data"], record["timing"])
        assert run.coco_before > 0  # pe_count/instance_n extras dropped


class TestValidation:
    def test_unknown_topology(self):
        bad = dataclasses.replace(CONFIG, topologies=("klein-bottle",))
        with pytest.raises(ConfigurationError):
            run_experiment(bad)

    def test_unknown_case(self):
        bad = dataclasses.replace(CONFIG, cases=("c9",))
        with pytest.raises(ConfigurationError):
            run_experiment(bad)

    def test_zero_repetitions(self):
        bad = dataclasses.replace(CONFIG, repetitions=0)
        with pytest.raises(ConfigurationError):
            run_experiment(bad)


class TestCliOrchestration:
    def test_sweep_resume_via_cli(self, tmp_path, capsys):
        store_dir = tmp_path / "cli-cells"
        argv = [
            "sweep",
            "--instances", "p2p-Gnutella",
            "--topologies", "grid4x4", "fattree4x2",
            "--cases", "c2",
            "--reps", "1", "--nh", "1",
            "--divisor", "2048", "--seed", "5",
            "--jobs", "2",
            "--store", str(store_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 computed, 0 replayed" in out
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 2 replayed" in out

    def test_resume_without_store_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--resume"])

    def test_matrix_requires_scenario(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--matrix", "x.toml"])
