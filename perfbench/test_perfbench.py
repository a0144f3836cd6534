"""Tests of the benchmark's own code, on tiny inputs (seconds, not minutes).

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import random
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import ledger as ledger_mod  # noqa: E402
from ledger import COUNTERS, TARGETS, Ledger, Target, traced  # noqa: E402

from repro.api import Pipeline, PipelineConfig  # noqa: E402
from repro.core.config import TimerConfig  # noqa: E402
from repro.graphs.builder import from_edges  # noqa: E402


def _current(targets=TARGETS) -> dict:
    return {
        (t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
        for t in targets
    }


def test_traced_restores_every_original_function():
    before = _current()
    with traced(Ledger()):
        during = _current()
        assert all(during[key] is not fn for key, fn in before.items())
    after = _current()
    assert all(after[key] is fn for key, fn in before.items())


def test_traced_restores_originals_when_the_block_raises():
    before = _current()
    with pytest.raises(ZeroDivisionError):
        with traced(Ledger()):
            1 / 0
    assert all(_current()[key] is fn for key, fn in before.items())


def test_traced_restores_originals_when_a_target_is_missing():
    before = _current()
    broken = TARGETS[:3] + (Target("repro.api.stages", "no_such_function", "x"),)
    with pytest.raises(AttributeError):
        with traced(Ledger(), broken):
            pass
    assert all(_current()[key] is fn for key, fn in before.items())


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_time_minus_child_span_time():
    clock = _Clock()
    led = Ledger(clock)

    def inner() -> None:
        clock.now += 2.0

    def outer() -> None:
        clock.now += 1.0
        led.call("inner", inner, (), {})
        led.call("inner", inner, (), {})
        clock.now += 3.0

    led.call("outer", outer, (), {})
    assert led.seconds["outer"] == 8.0
    assert led.self_seconds["outer"] == 8.0 - 4.0
    assert led.seconds["inner"] == led.self_seconds["inner"] == 4.0
    assert led.calls == {"outer": 1, "inner": 2}


def test_fm_moved_counts_changed_entries():
    stub = types.ModuleType("perfbench_stub")
    stub.fm_refine = lambda g, assignment, max_weight: np.array([0, 0, 1, 1])
    sys.modules[stub.__name__] = stub
    try:
        led = Ledger()
        target = Target(stub.__name__, "fm_refine", "partitioning.fm", ledger_mod._count_fm)
        with traced(led, (target,)):
            stub.fm_refine(None, np.array([0, 1, 0, 1]), (3, 3))
    finally:
        del sys.modules[stub.__name__]
    assert led.counters["partitioning.fm_calls"] == 1
    assert led.counters["partitioning.fm_moved"] == 2


def _pipeline(topology: str, nh: int) -> Pipeline:
    return Pipeline(topology, PipelineConfig(timer=TimerConfig(n_hierarchies=nh)))


def test_partition_counters_on_a_graph_below_the_coarsening_limit():
    # 48 vertices never coarsen (the limit is 64), so every bisection
    # is exactly one FM call, and 16 blocks take 15 bisections.
    edges = inputs.barabasi_albert(48, 2, random.Random(5))
    ga = from_edges(48, edges)
    led = Ledger()
    with traced(led):
        result = _pipeline("grid4x4", 2).run(ga, seed=1)
    c = led.counters
    assert c["partitioning.bisections"] == 15
    assert c["partitioning.coarsen_levels"] == 0
    assert c["partitioning.fm_calls"] == 15
    contractions = 2 * (result.timer.labeling.dim - 2)
    assert c["core.swap_calls"] == c["core.levels"] == contractions
    assert led.calls["mapping.initial"] == led.calls["core.enhance"] == 1


def test_enhance_counters_on_two_antipodal_vertices():
    # One edge between PEs whose labels differ in every bit: contraction
    # drops only dim-2 bits, so the two vertices never merge (every
    # level is empty) and are never siblings (no swap is possible).
    pipe = _pipeline("grid4x4", 3)
    labels = pipe.topology.labeling
    dim = labels.dim
    dist = pipe.topology.distances
    a, b = (int(x) for x in np.argwhere(dist == dim)[0])
    led = Ledger()
    with traced(led):
        pipe.run(from_edges(2, [(0, 1)]), mu=np.array([a, b]), seed=1)
    c = led.counters
    assert c["core.levels"] == c["core.swap_calls"] == c["core.empty_levels"] == 3 * (dim - 2)
    assert c["core.swaps"] == 0
    assert c["core.hierarchies_accepted"] == 3
    assert all(c[name] == 0 for name in COUNTERS if name.startswith("partitioning."))


def test_inputs_depend_only_on_the_seed():
    graph = inputs.pipeline_graph
    assert graph("pipeline-grid", 1, 0) == graph("pipeline-grid", 1, 0)
    assert graph("pipeline-grid", 1, 0) != graph("pipeline-grid", 2, 0)
    assert graph("pipeline-grid", 1, 0) != graph("pipeline-grid", 1, 1)
    first, second = inputs.RequestPlan(3), inputs.RequestPlan(3)
    positions = range(inputs.QUALITY_PROBE + 50)
    assert [first.request(p)[2] for p in positions] == [second.request(p)[2] for p in positions]
    fresh = [first.index(p) for p in positions if p % 10 not in inputs.REPEAT_SLOTS]
    assert fresh == list(range(len(fresh)))
    repeats = [p for p in positions if p % 10 in inputs.REPEAT_SLOTS]
    assert repeats and all(
        first.index(p) in {first.index(q) for q in range(p)} for p in repeats)
    path, body = inputs.catalog_entry(3, 0)
    assert path == "/enhance" and sorted(body["mu"]) == sorted(
        inputs.round_robin_mapping(body["graph"]["n"], inputs.SERVE_TOPOLOGIES[0][1]))
