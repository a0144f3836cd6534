"""Sweep crash recovery: requeue, poison isolation, exact --resume."""

import pytest

from repro.errors import PermanentError
from repro.serve.faults import FAULTS_ENV, FaultPlan
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.store import ArtifactStore


def _config(**overrides):
    base = dict(
        instances=("p2p-Gnutella",),
        topologies=("grid4x4",),
        cases=("c2",),
        repetitions=2,
        n_hierarchies=1,
        divisor=1024,
        n_min=64,
        n_max=96,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(autouse=True)
def clean_faults():
    # Keeps a plan set in the developer's shell out of these tests (sweep
    # pools read REPRO_FAULTS when they are built), and puts it back.
    import os

    saved = os.environ.pop(FAULTS_ENV, None)
    yield
    if saved is None:
        os.environ.pop(FAULTS_ENV, None)
    else:
        os.environ[FAULTS_ENV] = saved


class TestCrashRecovery:
    def test_killed_worker_requeues_and_results_match(self, monkeypatch):
        baseline = run_experiment(_config(), jobs=2)
        assert baseline.worker_restarts == 0
        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kill_task_indices=(0,)).to_json()
        )
        recovered = run_experiment(_config(), jobs=2)
        assert recovered.worker_restarts >= 1
        assert recovered.cells_computed == baseline.cells_computed
        for base_cell, rec_cell in zip(baseline.cells, recovered.cells):
            assert base_cell.instance == rec_cell.instance
            for a, b in zip(base_cell.runs, rec_cell.runs):
                assert a.coco_after == b.coco_after
                assert a.cut_after == b.cut_after
                assert a.hierarchies_accepted == b.hierarchies_accepted

    def test_inline_path_untouched_by_faults(self, monkeypatch):
        # jobs=1 never spawns workers; the kill plan must not fire.
        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kill_task_indices=(0,)).to_json()
        )
        result = run_experiment(_config(), jobs=1)
        assert result.cells_computed == 2 and result.worker_restarts == 0


class TestPoisonedSweep:
    def test_failed_task_reported_successes_stored(self, tmp_path, monkeypatch):
        # "rep=1" appears only in the second task's repr: that task's
        # worker dies every generation, exhausting crash recovery.  The
        # sweep must store the surviving task's cells, then raise naming
        # the failed (instance, rep).
        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(poison_markers=("rep=1",)).to_json()
        )
        store_root = tmp_path / "cells"
        with pytest.raises(PermanentError, match="rep1") as err:
            run_experiment(_config(), jobs=2, store=store_root)
        assert "1 sweep task(s) failed" in str(err.value)
        assert "PoisonRequestError" in str(err.value)
        store = ArtifactStore(store_root)
        assert len(list(store.keys())) == 1  # rep 0 persisted

        # A resumed, fault-free rerun computes only the poisoned cell.
        monkeypatch.delenv(FAULTS_ENV)
        result = run_experiment(
            _config(), jobs=2, store=store_root, resume=True
        )
        assert result.cells_cached == 1 and result.cells_computed == 1
