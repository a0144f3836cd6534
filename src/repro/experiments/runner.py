"""Parallel, resumable factorial experiment driver.

Runs (instances x topologies x cases x repetitions), sharing partitions
across cases and topologies with equal PE counts -- exactly as the paper
shares one KaHIP partition per (instance, |V_p|) across the mapping
baselines.  Results come back both raw (:class:`CellResult` per cell) and
aggregated (Table 2 / Figure 5 structures).

Orchestration design (ISSUE 2)
------------------------------
Every randomized step seeds itself from the *identity* of what it
computes, not from its position in an execution order:

- instance generation from ``(seed, "instance", name, rep)``,
- partitioning from ``(seed, "partition", name, rep, k)``,
- each cell's mapping + TIMER from ``(seed, "case", name, rep, topology,
  case)``,

all via :func:`repro.utils.rng.derive_seed_sequence`.  Execution order
therefore cannot influence any result: ``jobs=N`` is byte-identical to
``jobs=1`` (deterministic sections; wall-clock timings are honest and
excluded), dropping a topology from the sweep never perturbs the others,
and adding repetitions never reshuffles earlier ones.

The unit of parallel work is one ``(instance, repetition)`` *task* --
large enough to amortize instance generation and to preserve the paper's
partition sharing across the task's topologies and cases, small enough
that a laptop sweep saturates a handful of workers.  Tasks go to a
``multiprocessing`` pool (fork on Linux, spawn elsewhere; the choice
cannot affect results); results come back in submission order.

With an :class:`~repro.experiments.store.ArtifactStore` attached, every
completed cell is persisted as one JSON record and ``resume=True`` skips
cells whose record already exists -- an interrupted sweep restarts where
it died, and a finished sweep replays instantly from disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.topology import LABELING_CACHE_ENV, Topology
from repro.core.config import TimerConfig
from repro.errors import ConfigurationError, PermanentError
from repro.experiments.cases import CASES, CaseRun, run_case
from repro.experiments.instances import (
    generate_instance,
    get_instance,
    instance_fingerprint,
    instance_names,
)
from repro.experiments.metrics import (
    QuotientSummary,
    aggregate_over_instances,
    summarize_cell,
)
from repro.experiments.store import STORE_SCHEMA, ArtifactStore, cell_key
from repro.experiments.topologies import PAPER_TOPOLOGIES, topology_names
from repro.obs import get_logger
from repro.obs.trace import TraceBuffer, Tracer
from repro.partitioning.kway import partition_kway
from repro.partitioning.partition import Partition
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.stopwatch import Stopwatch
from repro._version import __version__


@dataclass(frozen=True)
class ExperimentConfig:
    """Shape and budget of an experiment sweep.

    Defaults are sized for a laptop-scale regeneration; the paper's exact
    shape is ``instances=all 15, repetitions=5, n_hierarchies=50,
    divisor=1`` (full-size graphs), which pure Python cannot afford --
    DESIGN.md records the scaling as a substitution.
    """

    instances: tuple[str, ...] = ()
    topologies: tuple[str, ...] = PAPER_TOPOLOGIES
    cases: tuple[str, ...] = ("c1", "c2", "c3", "c4")
    repetitions: int = 3
    n_hierarchies: int = 8
    epsilon: float = 0.03
    divisor: int = 64
    n_min: int = 384
    n_max: int = 4096
    seed: int = 2018  # the paper's year; any fixed value works
    verbose: bool = False

    def resolved_instances(self) -> tuple[str, ...]:
        return self.instances if self.instances else instance_names()


@dataclass
class CellResult:
    """All repetitions of one (instance, topology, case) cell."""

    instance: str
    topology: str
    case: str
    runs: list = field(default_factory=list)

    def summary(self) -> QuotientSummary:
        runs: list[CaseRun] = self.runs
        return summarize_cell(
            times=[r.timer_seconds for r in runs],
            baseline_times=[r.baseline_seconds for r in runs],
            cuts_before=[r.cut_before for r in runs],
            cuts_after=[r.cut_after for r in runs],
            cocos_before=[r.coco_before for r in runs],
            cocos_after=[r.coco_after for r in runs],
        )


@dataclass
class ExperimentResult:
    """Everything a reporting routine needs."""

    config: ExperimentConfig
    cells: list = field(default_factory=list)
    partition_times: dict = field(default_factory=dict)  # (instance, k) -> [s]
    instance_stats: dict = field(default_factory=dict)  # name -> (n, m)
    cells_computed: int = 0  # cell repetitions executed this run
    cells_cached: int = 0  # cell repetitions replayed from the store
    jobs: int = 1
    #: sweep workers restarted after a crash (their tasks were requeued)
    worker_restarts: int = 0

    def aggregate(self) -> dict:
        """``{topology: {case: {q_time/q_cut/q_coco: {...}}}}``."""
        out: dict[str, dict[str, dict]] = {}
        for topo in self.config.topologies:
            out[topo] = {}
            for case in self.config.cases:
                summaries = [
                    c.summary()
                    for c in self.cells
                    if c.topology == topo and c.case == case
                ]
                if summaries:
                    out[topo][case] = aggregate_over_instances(summaries)
        return out


def cell_identity(
    config: ExperimentConfig, instance: str, rep: int, topology: str, case: str
) -> dict:
    """The store-key material of one cell repetition.

    Only result-relevant knobs enter: execution parameters (worker count,
    verbosity) and the *other* axes of the sweep are excluded, so growing
    a sweep (more topologies, more reps) reuses every already-stored
    cell.
    """
    return {
        "schema": STORE_SCHEMA,
        "code": __version__,
        "instance": instance,
        "instance_fingerprint": instance_fingerprint(instance),
        "topology": topology,
        "case": case,
        "rep": rep,
        "seed": config.seed,
        "n_hierarchies": config.n_hierarchies,
        "epsilon": config.epsilon,
        "divisor": config.divisor,
        "n_min": config.n_min,
        "n_max": config.n_max,
    }


@dataclass(frozen=True)
class _Task:
    """One worker unit: the missing cells of an (instance, repetition)."""

    config: ExperimentConfig
    instance: str
    rep: int
    cells: tuple  # ((topology, case), ...) in sweep order


def _run_task(task: _Task) -> list:
    """Execute a task's cells; returns ``[(key, record), ...]``.

    Runs inside a worker process (or inline for ``jobs=1`` -- same code
    path either way).  All seeds derive from cell identities, so the
    records are independent of scheduling.
    """
    config = task.config
    inst_seed = derive_seed(config.seed, "instance", task.instance, task.rep)
    ga = generate_instance(
        task.instance,
        seed=inst_seed,
        divisor=config.divisor,
        n_min=config.n_min,
        n_max=config.n_max,
    )
    timer_cfg = TimerConfig(n_hierarchies=config.n_hierarchies)
    # One partition per PE count needed by this task's cells, shared by
    # all its topologies/cases -- the paper's sharing, now per task.
    partitions: dict[int, tuple[Partition, float]] = {}
    out = []
    for topo_name, case in task.cells:
        # One Topology session per name and process: recognition/labeling
        # run once and are shared by every cell (and, under fork, by every
        # worker inheriting the parent's session cache).
        topo = Topology.from_name(topo_name)
        gp, pc = topo.graph, topo.labeling
        if gp.n not in partitions:
            rng = derive_rng(config.seed, "partition", task.instance, task.rep, gp.n)
            sw = Stopwatch()
            with sw:
                part = partition_kway(ga, gp.n, epsilon=config.epsilon, seed=rng)
            partitions[gp.n] = (part, sw.elapsed)
        part, part_secs = partitions[gp.n]
        case_seed = derive_seed(
            config.seed, "case", task.instance, task.rep, topo_name, case
        )
        run, _ = run_case(
            case,
            ga,
            gp,
            pc,
            part,
            part_secs,
            topo_name,
            seed=case_seed,
            timer_config=timer_cfg,
        )
        identity = cell_identity(config, task.instance, task.rep, topo_name, case)
        data, timing = run.to_payload()
        data.update(instance_n=ga.n, instance_m=ga.m, pe_count=gp.n)
        timing["spans"] = _cell_spans(identity, task, topo_name, case, timing)
        record = {"schema": STORE_SCHEMA, "identity": identity, "data": data,
                  "timing": timing}
        out.append((cell_key(identity), record))
    return out


def _cell_spans(
    identity: dict, task: _Task, topo_name: str, case: str, timing: dict
) -> list[dict]:
    """The cell's stage timings as a span tree (flat dicts, JSON-ready).

    The trace id derives from the cell identity -- the same identity
    that keys the artifact record -- so replayed sweeps produce the
    same tree structure and traces are diffable across runs.  Durations
    come from the already-measured monotonic stopwatches; the spans
    live in the record's ``timing`` section, excluded from identity
    like every other wall-time measurement.
    """
    tracer = Tracer(
        process="runner",
        buffer=TraceBuffer(max_traces=1, max_spans_per_trace=16),
    )
    ctx = tracer.start_trace(identity)
    root = tracer.span(
        "cell",
        ctx,
        instance=task.instance,
        rep=task.rep,
        topology=topo_name,
        case=case,
    )
    for stage, key in (
        ("partition", "partition_seconds"),
        ("initial_mapping", "mapping_seconds"),
        ("enhance", "timer_seconds"),
        ("baseline", "baseline_seconds"),
    ):
        if key not in timing:
            continue
        child = tracer.span(f"stage:{stage}", root.context)
        child.finish(duration=float(timing[key]))
    root.finish(
        duration=sum(float(v) for v in timing.values() if isinstance(v, (int, float)))
    )
    return tracer.buffer.get(ctx.trace_id)


def _validate_config(config: ExperimentConfig) -> None:
    known_topologies = set(topology_names())
    for name in config.topologies:
        if name not in known_topologies:
            raise ConfigurationError(
                f"unknown topology {name!r}; known: {', '.join(sorted(known_topologies))}"
            )
    for case in config.cases:
        if case not in CASES:
            raise ConfigurationError(
                f"unknown case {case!r}; known: {', '.join(CASES)}"
            )
    for name in config.resolved_instances():
        get_instance(name)  # raises KeyError with the known names
    if config.repetitions < 1:
        raise ConfigurationError(
            f"repetitions must be >= 1, got {config.repetitions}"
        )


def _sweep_runner(_ctx: object, task: _Task) -> list:
    """Pool adapter: :class:`SupervisedPool` calls ``runner(ctx, item)``."""
    return _run_task(task)


def _execute(tasks: list, jobs: int, dispatch: str = "pool") -> tuple[list, int]:
    """Run tasks inline or on a supervised pool; outputs in task order.

    Returns ``(outputs, worker_restarts)`` where ``outputs[i]`` is the
    ``[(key, record), ...]`` list for ``tasks[i]`` -- or the exception
    that permanently failed it after the pool's crash recovery gave up.
    A crashed worker does not lose the sweep: its (instance, repetition)
    task is requeued onto a restarted worker, so ``--resume`` semantics
    stay exact (every record that *could* be computed is).

    ``dispatch="shards"`` additionally splits each task per *topology*
    and pins every split to the worker the serve tier's
    :class:`~repro.serve.shard.ShardRouter` owns that topology on, so a
    sweep warms exactly one session (labeling + distances) per topology
    per worker -- the same locality the sharded service exploits.  Byte
    identity is unaffected: every seed derives from a cell identity
    (instance seeds from ``(seed, "instance", ...)``, partition seeds
    from ``(seed, "partition", ..., k)``), never from which process or
    in which grouping a cell ran.

    Determinism never depends on the start method -- so the pool uses
    the shared policy of
    :func:`repro.utils.parallel.preferred_mp_context` (fork on Linux so
    workers share the parent's imports and topology-labeling cache,
    spawn elsewhere).
    """
    if dispatch not in ("pool", "shards"):
        raise ConfigurationError(
            f"dispatch must be 'pool' or 'shards', got {dispatch!r}"
        )
    if jobs <= 1 or not tasks or (dispatch == "pool" and len(tasks) <= 1):
        return [_run_task(t) for t in tasks], 0
    if dispatch == "shards":
        return _execute_sharded(tasks, jobs)
    from repro.serve.pool import SupervisedPool

    with SupervisedPool(
        _sweep_runner, workers=min(jobs, len(tasks)), name="sweep"
    ) as pool:
        # One pool task per sweep task (singleton items): a crash
        # requeues exactly its (instance, rep) cell block, and repeated
        # crashes poison only that block instead of the whole sweep.
        futures = [pool.submit("sweep", None, [task])[0] for task in tasks]
        outputs: list = []
        for future in futures:
            try:
                outputs.append(future.result())
            except Exception as exc:  # gather, don't fail fast
                outputs.append(exc)
        restarts = pool.restarts
    return outputs, restarts


def _execute_sharded(tasks: list, jobs: int) -> tuple[list, int]:
    """Topology-pinned fan-out: every (task, topology) split runs on the
    worker that consistent-hash-owns the topology.

    Outputs are reassembled into the original per-task cell order, so
    callers cannot tell the dispatch modes apart (asserted byte-for-byte
    in the tests); a failed split fails its whole original task, exactly
    like a poisoned task under ``dispatch="pool"``.
    """
    from repro.serve.pool import SupervisedPool
    from repro.serve.shard import ShardRouter

    router = ShardRouter([str(i) for i in range(jobs)])
    splits: list[tuple[int, list[int], _Task, int]] = []
    for ti, task in enumerate(tasks):
        groups: dict[str, list[int]] = {}
        for ci, (topo_name, _case) in enumerate(task.cells):
            groups.setdefault(topo_name, []).append(ci)
        for topo_name, idxs in groups.items():
            sub = _Task(
                task.config,
                task.instance,
                task.rep,
                tuple(task.cells[i] for i in idxs),
            )
            splits.append((ti, idxs, sub, int(router.route(topo_name))))
    with SupervisedPool(_sweep_runner, workers=int(jobs), name="sweep") as pool:
        futures = [
            pool.submit("sweep", None, [sub], worker=pin)[0]
            for _ti, _idxs, sub, pin in splits
        ]
        rows: list[list] = [[None] * len(t.cells) for t in tasks]
        errors: list[Exception | None] = [None] * len(tasks)
        for (ti, idxs, _sub, _pin), future in zip(splits, futures):
            try:
                records = future.result()
            except Exception as exc:  # gather, don't fail fast
                errors[ti] = exc
                continue
            for ci, record in zip(idxs, records):
                rows[ti][ci] = record
        restarts = pool.restarts
    outputs = [
        errors[ti] if errors[ti] is not None else rows[ti]
        for ti in range(len(tasks))
    ]
    return outputs, restarts


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    store: ArtifactStore | str | Path | None = None,
    resume: bool = False,
    dispatch: str = "pool",
) -> ExperimentResult:
    """Execute the sweep described by ``config``.

    Parameters
    ----------
    jobs:
        worker processes; ``1`` runs inline.  Any value yields
        byte-identical deterministic results.
    store:
        an :class:`ArtifactStore` (or its root path) that persists every
        completed cell.  Without a store nothing is written.
    resume:
        reuse store records whose identity matches instead of
        recomputing (requires ``store``).
    dispatch:
        ``"pool"`` (default) sends whole (instance, repetition) tasks to
        any free worker; ``"shards"`` splits tasks per topology and pins
        the splits to consistent-hash-owned workers (see
        :func:`_execute`).  Both modes are byte-identical to ``jobs=1``.
    """
    _validate_config(config)
    if resume and store is None:
        raise ConfigurationError("resume=True requires an artifact store")
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    # Persist topology labelings next to the cells so worker processes
    # (and later sweeps against the same store) load them from disk
    # instead of recomputing per process.  The env var crosses both fork
    # and spawn boundaries; an explicit operator setting wins, and the
    # default is scoped to this sweep so one store's cache never bleeds
    # into the next sweep (or the embedding process).
    cache_env_added = False
    if store is not None and not os.environ.get(LABELING_CACHE_ENV):
        os.environ[LABELING_CACHE_ENV] = str(store.root / "labelings")
        cache_env_added = True
    try:
        return _run_experiment(config, jobs, store, resume, dispatch)
    finally:
        if cache_env_added:
            os.environ.pop(LABELING_CACHE_ENV, None)


def _run_experiment(
    config: ExperimentConfig,
    jobs: int,
    store: ArtifactStore | None,
    resume: bool,
    dispatch: str = "pool",
) -> ExperimentResult:
    instances = config.resolved_instances()
    reps = range(config.repetitions)
    grid = [(t, c) for t in config.topologies for c in config.cases]

    cached: dict[tuple, dict] = {}  # (instance, rep, topo, case) -> record
    tasks: list[_Task] = []
    for inst_name in instances:
        for rep in reps:
            missing = []
            for topo_name, case in grid:
                if store is not None and resume:
                    identity = cell_identity(config, inst_name, rep, topo_name, case)
                    record = store.get(cell_key(identity))
                    if record is not None and record.get("identity") == identity:
                        cached[(inst_name, rep, topo_name, case)] = record
                        continue
                missing.append((topo_name, case))
            if missing:
                tasks.append(_Task(config, inst_name, rep, tuple(missing)))

    fresh: dict[tuple, dict] = {}
    failed: list[tuple[str, int, Exception]] = []
    task_outputs, worker_restarts = _execute(tasks, jobs, dispatch)
    for task, outputs in zip(tasks, task_outputs):
        if isinstance(outputs, Exception):
            failed.append((task.instance, task.rep, outputs))
            continue
        for (topo_name, case), (key, record) in zip(task.cells, outputs):
            fresh[(task.instance, task.rep, topo_name, case)] = record
            if store is not None:
                store.put(key, record)
    if failed:
        # Every successful cell is already persisted above, so a re-run
        # with --resume recomputes only the cells listed here.
        detail = "; ".join(
            f"{inst} rep{rep}: {type(exc).__name__}: {exc}"
            for inst, rep, exc in failed
        )
        raise PermanentError(
            f"{len(failed)} sweep task(s) failed after crash recovery "
            f"({len(fresh)} cell(s) stored; rerun with resume): {detail}"
        )

    result = ExperimentResult(
        config=config,
        cells_computed=len(fresh),
        cells_cached=len(cached),
        jobs=max(1, int(jobs)),
        worker_restarts=worker_restarts,
    )
    seen_partitions: set[tuple] = set()
    for inst_name in instances:
        for rep in reps:
            for topo_name, case in grid:
                ident = (inst_name, rep, topo_name, case)
                record = fresh.get(ident) or cached[ident]
                data, timing = record["data"], record["timing"]
                run = CaseRun.from_payload(data, timing)
                _record(result, inst_name, topo_name, case, run)
                result.instance_stats[inst_name] = (
                    data["instance_n"],
                    data["instance_m"],
                )
                pk = (inst_name, rep, data["pe_count"])
                if pk not in seen_partitions:
                    seen_partitions.add(pk)
                    result.partition_times.setdefault(
                        (inst_name, data["pe_count"]), []
                    ).append(timing["partition_seconds"])
                if config.verbose:
                    get_logger("experiments.runner").info(
                        "cell_finished",
                        instance=inst_name,
                        rep=rep,
                        topology=topo_name,
                        case=case,
                        origin="cache" if ident in cached else "run",
                        q_coco=round(run.coco_quotient, 3),
                        q_cut=round(run.cut_quotient, 3),
                        q_time=round(run.time_quotient, 2),
                    )
    return result


def _record(
    result: ExperimentResult, instance: str, topology: str, case: str, run: CaseRun
) -> None:
    for cell in result.cells:
        if (
            cell.instance == instance
            and cell.topology == topology
            and cell.case == case
        ):
            cell.runs.append(run)
            return
    result.cells.append(
        CellResult(instance=instance, topology=topology, case=case, runs=[run])
    )
