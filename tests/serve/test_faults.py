"""Deterministic fault-injection plans (repro.serve.faults)."""

import json

import numpy as np
import pytest
import zipfile

from repro.errors import ConfigurationError, TransientError
from repro.serve.faults import (
    FAULTS_ENV,
    FaultClock,
    FaultPlan,
    corrupt_cache_dir,
    corrupt_npz_file,
    on_item,
    on_task,
)


@pytest.fixture(autouse=True)
def restore_faults_env():
    # Keeps a plan set in the developer's shell out of these tests, and
    # puts it back afterwards.
    import os

    saved = os.environ.pop(FAULTS_ENV, None)
    yield
    if saved is None:
        os.environ.pop(FAULTS_ENV, None)
    else:
        os.environ[FAULTS_ENV] = saved


class TestPlanSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            kill_task_indices=(0, 3),
            poison_markers=("boom",),
            item_error_every=5,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_empty_plan_is_inactive(self):
        plan = FaultPlan()
        assert not plan.active
        assert json.loads(plan.to_json()) == {}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan keys"):
            FaultPlan.from_json('{"explode": true}')

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_from_env(self, monkeypatch):
        assert FaultPlan.from_env() == FaultPlan()
        plan = FaultPlan(item_error_every=2)
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert FaultPlan.from_env() == plan

    def test_negative_cadence_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(item_error_every=-1)


class TestHooks:
    def test_item_error_cadence_is_deterministic(self):
        plan = FaultPlan(item_error_every=3)
        clock = FaultClock()
        outcomes = []
        for i in range(6):
            try:
                on_item(plan, i, clock)
                outcomes.append("ok")
            except TransientError:
                outcomes.append("err")
        assert outcomes == ["ok", "ok", "err", "ok", "ok", "err"]

    def test_poison_marker_without_kill_raises_transient(self):
        plan = FaultPlan(poison_markers=("seed=99",))
        clock = FaultClock()
        on_item(plan, "seed=1", clock, allow_kill=False)  # no match: fine
        with pytest.raises(TransientError, match="poison"):
            on_item(plan, "request seed=99", clock, allow_kill=False)

    def test_kill_suppressed_in_process(self):
        # allow_kill=False must never kill the calling process.
        plan = FaultPlan(kill_task_indices=(0,))
        on_task(plan, FaultClock(), generation=0, allow_kill=False)

    def test_kill_only_generation_zero(self):
        # generation-scoped kills are a no-op for restarted workers; the
        # fact that this test survives *is* the assertion for gen >= 1.
        plan = FaultPlan(kill_task_indices=(0,))
        on_task(plan, FaultClock(), generation=1)

    def test_inactive_plan_hooks_are_noops(self):
        plan = FaultPlan()
        clock = FaultClock()
        for i in range(10):
            on_task(plan, clock)
            on_item(plan, i, clock)
        assert clock.tasks == 10 and clock.items == 10


class TestNpzCorruption:
    def _write_entry(self, tmp_path, name="a.npz"):
        path = tmp_path / name
        with open(path, "wb") as f:
            np.savez(f, labels=np.arange(16, dtype=np.uint64))
        return path

    def test_truncate_makes_file_unreadable(self, tmp_path):
        path = self._write_entry(tmp_path)
        orig = path.stat().st_size
        corrupt_npz_file(path, mode="truncate")
        assert path.stat().st_size < orig
        with pytest.raises(zipfile.BadZipFile):
            np.load(path)["labels"]

    def test_garbage_keeps_size(self, tmp_path):
        path = self._write_entry(tmp_path)
        orig = path.stat().st_size
        corrupt_npz_file(path, mode="garbage")
        assert path.stat().st_size == orig

    def test_bad_mode_rejected(self, tmp_path):
        path = self._write_entry(tmp_path)
        with pytest.raises(ConfigurationError, match="mode"):
            corrupt_npz_file(path, mode="subtle")

    def test_corrupt_cache_dir_picks_sorted_entry(self, tmp_path):
        self._write_entry(tmp_path, "b.npz")
        a = self._write_entry(tmp_path, "a.npz")
        assert corrupt_cache_dir(tmp_path, index=0) == str(a)

    def test_corrupt_empty_dir_fails_loudly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no npz"):
            corrupt_cache_dir(tmp_path)
