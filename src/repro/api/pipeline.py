"""The staged mapping pipeline: one public path for all traffic.

A :class:`Pipeline` binds a :class:`~repro.api.topology.Topology` session
to a frozen :class:`PipelineConfig` describing which strategies fill the
partition / initial-mapping / enhance slots and which verify and report
hooks run around them.  ``pipeline.run(ga)`` executes the paper's whole
chain -- partition, map, enhance -- on one application graph;
``run_batch`` streams many graphs through the same session, amortizing
the topology's recognition, labeling and distance precomputation, which
is the high-traffic serving shape the CLI, the library quickstart and the
experiment harness all share now.

Every run yields a :class:`PipelineResult` with the final mapping,
per-stage wall-clock timings, the standard quality metrics (edge cut and
Coco, before and after), and a content-addressed identity hash (the
artifact-store convention) for provenance.

Seeding
-------
``PipelineConfig.seed_policy`` selects how the run's ``seed`` reaches the
stages, mirroring the two conventions that existed before the redesign:

- ``"stream"`` (default): one generator ``make_rng(seed)`` is threaded
  through the stages in order, so later stages see statistically fresh
  randomness -- the experiment harness convention.
- ``"raw"``: every stage receives the ``seed`` value itself, so each
  seeded stage restarts from the same entropy -- the historical CLI
  convention (kept so ``python -m repro map`` output is byte-identical
  across the redesign).
"""

from __future__ import annotations

import reprlib
from dataclasses import asdict, dataclass, field, replace
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro._version import __version__
from repro.api.identity import STORE_SCHEMA, array_fingerprint, cell_key
from repro.api.registry import (
    ENHANCE,
    INITIAL_MAPPING,
    PARTITION,
    REGISTRY,
    REPORT,
    VERIFY,
    Registry,
)
from repro.api.stages import CaseMapping, StageContext
from repro.api.topology import Topology
from repro.core.config import TimerConfig
from repro.core.enhancer import TimerResult
from repro.errors import ConfigurationError
from repro.graphs.graph import Graph
from repro.mapping.objective import coco_from_distances
from repro.partitioning.metrics import edge_cut
from repro.partitioning.partition import Partition
from repro.utils.rng import SeedLike, derive_seed, make_rng
from repro.utils.stopwatch import Stopwatch

if TYPE_CHECKING:
    from repro.obs.trace import SpanContext, Tracer


@dataclass(frozen=True)
class PipelineConfig:
    """Frozen description of a pipeline's stages and knobs.

    Stage slots hold registry *names*; pass ``"none"`` (or ``""``) to
    disable a slot.  Strategy *instances* go to the :class:`Pipeline`
    constructor instead, keeping this config hashable and serializable
    into the run's identity hash.
    """

    partition: str = "kway"
    initial_mapping: str = "c2"
    enhance: str = "timer"
    epsilon: float = 0.03
    seed_policy: str = "stream"
    timer: TimerConfig = TimerConfig()
    pre_verify: tuple[str, ...] = ()
    post_verify: tuple[str, ...] = ()
    reports: tuple[str, ...] = ()
    #: Kernel backend this pipeline's runs execute under (a
    #: ``kernel_backend`` registry name or ``"auto"``; ``""`` inherits
    #: the process default -- see :func:`repro.core.backend.set_default_backend`).
    backend: str = ""

    #: Fields deliberately **excluded** from :meth:`identity` -- the
    #: explicit list the CFG001 lint rule checks, so "this knob cannot
    #: change results" is a reviewed decision, not a silent ``.pop()``.
    #: ``backend``: every registered kernel backend is contracted
    #: byte-identical to the numpy reference (the equivalence suite
    #: enforces it), so one identity / artifact cell covers a run no
    #: matter which execution tier computed it.
    IDENTITY_EXCLUDED: ClassVar[frozenset[str]] = frozenset({"backend"})

    def __post_init__(self) -> None:
        if self.seed_policy not in ("stream", "raw"):
            raise ConfigurationError(
                f"seed_policy must be 'stream' or 'raw', got {reprlib.repr(self.seed_policy)}"
            )
        if self.backend:
            from repro.core.backend import resolve_backend_name

            try:
                resolve_backend_name(self.backend)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None

    def identity(self) -> dict:
        """JSON-able echo of every result-relevant knob.

        Every field is included except the members of
        :data:`IDENTITY_EXCLUDED`, whose rationale lives on that
        declaration (and whose coverage the CFG001 lint rule enforces).
        """
        identity = asdict(self)  # recurses into the nested TimerConfig
        for excluded in self.IDENTITY_EXCLUDED:
            identity.pop(excluded, None)
        return identity


@dataclass
class StageTiming:
    """Wall-clock seconds of one executed stage."""

    stage: str  # slot: partition / initial_mapping / enhance
    name: str  # strategy name that filled the slot
    seconds: float


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    ``metrics`` always carries ``cut_before`` / ``cut_after`` /
    ``coco_before`` / ``coco_after`` (before == after when no enhance
    stage ran).  ``identity`` / ``identity_hash`` follow the artifact
    store's content-addressing convention, so two runs with the same hash
    computed the same numbers.
    """

    graph: str
    topology: str
    config: PipelineConfig
    seed: int | None
    mu_initial: np.ndarray
    mu_final: np.ndarray
    partition: Partition | None
    timer: TimerResult | None
    metrics: dict
    stage_timings: list[StageTiming] = field(default_factory=list)
    reports: dict = field(default_factory=dict)
    identity: dict = field(default_factory=dict)
    identity_hash: str = ""
    #: Resolved kernel backend the run executed under (provenance only;
    #: never part of ``identity`` -- backends are byte-identical).
    backend: str = ""

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock time across executed stages."""
        return sum(t.seconds for t in self.stage_timings)

    def stage_seconds(self, stage: str) -> float:
        """Seconds spent in one slot (0.0 when it did not run)."""
        return sum(t.seconds for t in self.stage_timings if t.stage == stage)

    @property
    def coco_before(self) -> float:
        return self.metrics["coco_before"]

    @property
    def coco_after(self) -> float:
        return self.metrics["coco_after"]

    @property
    def cut_before(self) -> float:
        return self.metrics["cut_before"]

    @property
    def cut_after(self) -> float:
        return self.metrics["cut_after"]

    @property
    def coco_improvement(self) -> float:
        """Relative Coco reduction (positive = better)."""
        if not self.metrics["coco_before"]:
            return 0.0
        return 1.0 - self.metrics["coco_after"] / self.metrics["coco_before"]

    def record_spans(self, tracer: "Tracer", parent: "SpanContext") -> None:
        """Convert the per-stage timings into child spans under ``parent``.

        The Stopwatch already measured every stage; this replays those
        monotonic durations as a ``pipeline`` span with one
        ``stage:<slot>`` child each, carrying the run's identity hash
        and final quality metrics as attributes -- the bridge between
        a :class:`PipelineResult` and a cross-process trace tree (the
        serve pool worker and the in-process scheduler path both call
        it; the experiment runner uses it to persist span trees).
        """
        root = tracer.span(
            "pipeline",
            parent,
            graph=self.graph,
            topology=self.topology,
            identity_hash=self.identity_hash,
            cut_after=self.metrics.get("cut_after"),
            coco_after=self.metrics.get("coco_after"),
        )
        for timing in self.stage_timings:
            child = tracer.span(
                f"stage:{timing.stage}", root.context, impl=timing.name
            )
            child.finish(duration=timing.seconds)
        root.finish(duration=self.elapsed_seconds)


def _off(name: str) -> bool:
    return name in ("", "none")


class Pipeline:
    """A staged mapping pipeline bound to one topology session.

    Stages come from ``config`` by registry name, or directly as
    instances via the keyword overrides (``partition_stage`` /
    ``mapping_stage`` / ``enhance_stage``); an explicit instance wins
    over the configured name.  All names resolve at construction time, so
    a typo fails before any expensive work starts.
    """

    def __init__(
        self,
        topology: "Topology | Graph | str",
        config: PipelineConfig | None = None,
        *,
        partition_stage: Any = None,
        mapping_stage: Any = None,
        enhance_stage: Any = None,
        registry: Registry = REGISTRY,
    ) -> None:
        self.topology = Topology.from_spec(topology)
        self.config = config or PipelineConfig()
        cfg = self.config
        self.registry = registry
        # Remembered verbatim so with_config() can reproduce the assembly.
        self._stage_overrides = {
            "partition_stage": partition_stage,
            "mapping_stage": mapping_stage,
            "enhance_stage": enhance_stage,
        }
        self._partition = partition_stage
        if self._partition is None and not _off(cfg.partition):
            self._partition = registry.get(PARTITION, cfg.partition)
        self._mapping = mapping_stage
        if self._mapping is None and not _off(cfg.initial_mapping):
            # Validates the case exists in the unified registry; the
            # adapter defers to compute_initial_mapping at run time.
            registry.get(INITIAL_MAPPING, cfg.initial_mapping)
            self._mapping = CaseMapping(cfg.initial_mapping)
        self._enhance = enhance_stage
        if self._enhance is None and not _off(cfg.enhance):
            self._enhance = registry.get(ENHANCE, cfg.enhance)
        self._pre_verify = [
            (name, registry.get(VERIFY, name)) for name in cfg.pre_verify
        ]
        self._post_verify = [
            (name, registry.get(VERIFY, name)) for name in cfg.post_verify
        ]
        self._reports = [(name, registry.get(REPORT, name)) for name in cfg.reports]

    # -- configuration sugar -------------------------------------------
    def with_config(self, **changes: Any) -> "Pipeline":
        """A sibling pipeline on the same session with config changes.

        Explicit stage instances passed to the original constructor are
        carried over unchanged.
        """
        return Pipeline(
            self.topology,
            replace(self.config, **changes),
            registry=self.registry,
            **self._stage_overrides,
        )

    # -- execution -----------------------------------------------------
    def run(
        self,
        ga: Graph,
        *,
        mu: np.ndarray | None = None,
        partition: Partition | None = None,
        seed: SeedLike = None,
    ) -> PipelineResult:
        """Run the configured stages on one application graph.

        ``partition`` and ``mu`` short-circuit the corresponding stages
        (the experiment harness shares one partition across cases; the
        ``enhance`` CLI starts from a mapping file).

        The whole run executes under ``config.backend`` (a thread-local
        kernel-backend scope, so concurrent serve-tier runs with
        different configs never leak into each other); the resolved
        backend name is recorded on ``result.backend``.
        """
        from repro.core.backend import get_backend, use_backend

        with use_backend(self.config.backend or None):
            result = self._run_stages(ga, mu=mu, partition=partition, seed=seed)
            result.backend = get_backend()
        return result

    def _run_stages(
        self,
        ga: Graph,
        *,
        mu: np.ndarray | None = None,
        partition: Partition | None = None,
        seed: SeedLike = None,
    ) -> PipelineResult:
        cfg = self.config
        topology = self.topology
        partition_given = partition is not None
        mu_given = mu is not None
        stage_seed: SeedLike = make_rng(seed) if cfg.seed_policy == "stream" else seed
        timings: list[StageTiming] = []
        ctx = StageContext(ga=ga, topology=topology, seed=seed, phase="pre")
        if mu is not None:
            ctx.mu_initial = np.asarray(mu, dtype=np.int64)
        self._run_hooks(self._pre_verify, ctx)

        part = partition
        if mu is None:
            if part is None:
                if self._partition is None:
                    raise ConfigurationError(
                        "pipeline has no partition stage and no partition "
                        "or mapping was provided"
                    )
                sw = Stopwatch()
                with sw:
                    part = self._partition(
                        ga, topology.n, epsilon=cfg.epsilon, seed=stage_seed
                    )
                timings.append(
                    StageTiming(
                        "partition",
                        getattr(self._partition, "name", cfg.partition),
                        sw.elapsed,
                    )
                )
            if self._mapping is None:
                raise ConfigurationError(
                    "pipeline has no initial-mapping stage and no mapping "
                    "was provided"
                )
            sw = Stopwatch()
            with sw:
                out = self._mapping(part, topology.graph, seed=stage_seed)
            # A mapping stage may return (mu, seconds) to report its own
            # inner timing -- the paper's methodology times only the
            # mapping algorithm, not registry lookup or block->vertex
            # expansion (compute_initial_mapping does this).
            if isinstance(out, tuple):
                mu, inner_seconds = out
                mapping_seconds = float(inner_seconds)
            else:
                mu, mapping_seconds = out, sw.elapsed
            timings.append(
                StageTiming(
                    "initial_mapping",
                    getattr(self._mapping, "name", cfg.initial_mapping),
                    mapping_seconds,
                )
            )
        ctx.partition = part
        mu_initial = np.asarray(mu, dtype=np.int64)
        ctx.mu_initial = mu_initial

        timer_res: TimerResult | None = None
        mu_final = mu_initial
        if self._enhance is not None:
            sw = Stopwatch()
            with sw:
                timer_res = self._enhance(
                    ga, topology, mu_initial, seed=stage_seed, config=cfg.timer
                )
            timings.append(
                StageTiming(
                    "enhance", getattr(self._enhance, "name", cfg.enhance), sw.elapsed
                )
            )
            mu_final = np.asarray(timer_res.mu_after, dtype=np.int64)

        metrics = self._metrics(ga, mu_initial, mu_final, timer_res)
        ctx.mu_final = mu_final
        ctx.timer = timer_res
        ctx.metrics = metrics
        ctx.phase = "post"
        self._run_hooks(self._post_verify, ctx)
        reports = {name: hook(ctx) for name, hook in self._reports}

        identity = self._identity(
            ga,
            seed,
            partition.assignment if partition_given else None,
            np.asarray(mu, dtype=np.int64) if mu_given else None,
        )
        return PipelineResult(
            graph=ga.name,
            topology=topology.name,
            config=cfg,
            seed=int(seed) if isinstance(seed, (int, np.integer)) else None,
            mu_initial=mu_initial,
            mu_final=mu_final,
            partition=part,
            timer=timer_res,
            metrics=metrics,
            stage_timings=timings,
            reports=reports,
            identity=identity,
            identity_hash=cell_key(identity),
        )

    def run_batch(
        self,
        graphs: Sequence[Graph],
        *,
        seeds: Sequence[SeedLike] | None = None,
        seed: int | None = None,
        jobs: int = 1,
    ) -> list[PipelineResult]:
        """Run every graph through the session, sharing all topology caches.

        Per-graph seeds come from ``seeds`` verbatim, or derive from the
        root ``seed`` by batch *position*: statistically independent
        streams, stable under appending or truncating the batch (graph
        ``i`` always gets the same stream), but reindexed if an earlier
        graph is removed.  Callers needing streams keyed to graph
        identity rather than position pass explicit ``seeds`` (e.g. via
        :func:`repro.utils.rng.derive_seed` on their own names, the
        experiment runner's convention).

        ``jobs > 1`` fans the batch out over a
        :class:`~repro.serve.pool.SupervisedPool`, one task per graph,
        with this pipeline (and its warmed topology caches) as the pool
        payload.  Because every per-graph seed is derived from the batch
        identity rather than the execution order, ``jobs=N`` is
        byte-identical to ``jobs=1``; results come back in input order.
        A graph that kills its worker fails with
        :class:`~repro.errors.PoisonRequestError`.  ``seeds`` entries
        must then be picklable (``None``/ints, not live generators), as
        must any explicit stage instances (else
        :class:`~repro.errors.PermanentError`).
        """
        graphs = list(graphs)
        if seeds is None:
            if seed is None:
                seeds = [None] * len(graphs)
            else:
                seeds = [
                    derive_seed(seed, "pipeline-batch", i)
                    for i in range(len(graphs))
                ]
        elif len(seeds) != len(graphs):
            raise ConfigurationError(
                f"got {len(seeds)} seeds for {len(graphs)} graphs"
            )
        else:
            seeds = list(seeds)
        if jobs <= 1 or len(graphs) <= 1:
            return [self.run(ga, seed=s) for ga, s in zip(graphs, seeds)]
        if any(isinstance(s, np.random.Generator) for s in seeds):
            raise ConfigurationError(
                "run_batch(jobs>1) needs picklable seeds (None or ints); "
                "live numpy Generators cannot cross process boundaries"
            )
        # Imported here so importing repro.api never loads the serve tier.
        from repro.serve.pool import SupervisedPool

        self.warm_caches()
        with SupervisedPool(
            _run_item, workers=min(int(jobs), len(graphs)), name="run-batch"
        ) as pool:
            futures = [
                pool.submit("pipeline", self, [item])[0]
                for item in zip(graphs, seeds)
            ]
            return [future.result() for future in futures]

    def warm_caches(self) -> None:
        """Materialize the session caches this pipeline's stages will read.

        Called before any process boundary (``run_batch(jobs>1)``, the
        serve tier's supervised pool): workers receive the warmed caches
        pickled inside the pipeline payload (labeling computed exactly
        once per batch, same as ``jobs=1``), so the *parent's* labeling
        counters account for the work.  Verify/report hooks may read
        either cache, so with hooks configured both get warmed.
        """
        has_hooks = bool(self._pre_verify or self._post_verify or self._reports)
        if self._enhance is not None or has_hooks:
            self.topology.labeling
        if self._enhance is None or has_hooks:
            self.topology.distances

    # -- internals -----------------------------------------------------
    @staticmethod
    def _run_hooks(hooks: Sequence[tuple[str, Any]], ctx: StageContext) -> None:
        for _name, hook in hooks:
            hook(ctx)

    def _metrics(
        self,
        ga: Graph,
        mu_initial: np.ndarray,
        mu_final: np.ndarray,
        timer_res: TimerResult | None,
    ) -> dict:
        """Standard quality metrics; reuses TIMER's numbers when it ran.

        Without an enhance stage, Coco comes from the session's cached
        distance matrix -- same floats as ``mapping.objective.coco`` but
        without recomputing the NCM per call.
        """
        if timer_res is not None:
            return {
                "cut_before": float(timer_res.cut_before),
                "cut_after": float(timer_res.cut_after),
                "coco_before": float(timer_res.coco_before),
                "coco_after": float(timer_res.coco_after),
            }
        cut = float(edge_cut(ga, mu_final))
        coco = float(coco_from_distances(ga, mu_final, self.topology.distances))
        return {
            "cut_before": cut,
            "cut_after": cut,
            "coco_before": coco,
            "coco_after": coco,
        }

    def __reduce__(self) -> tuple:
        """Pickle the session and config, not the Pipeline object itself.

        The default ``REGISTRY`` travels as ``None`` and is re-resolved
        from the worker's own imports -- its topology builders are
        lambdas and must never enter a pickle stream.  A *custom*
        registry is included verbatim, so workers resolve the same
        strategies as the parent (an unpicklable custom registry fails
        loudly at submit time rather than silently resolving stage names
        against the wrong registry).  Explicit stage instances survive
        when they are picklable -- all built-ins are.
        """
        return (
            _rebuild_pipeline,
            (
                self.topology.graph,
                self.topology._labeling,
                self.topology._distances,
                self.topology.name,
                self.config,
                self._stage_overrides,
                None if self.registry is REGISTRY else self.registry,
            ),
        )

    def _identity(
        self,
        ga: Graph,
        seed: SeedLike,
        partition_in: np.ndarray | None,
        mu_in: np.ndarray | None,
    ) -> dict:
        # Caller-supplied inputs enter the hash by *content* fingerprint
        # (None when the pipeline computed the stage itself), so two runs
        # share a hash only when they computed the same numbers.
        return {
            "schema": STORE_SCHEMA,
            "kind": "pipeline",
            "code": __version__,
            "topology": self.topology.name,
            "graph": {"name": ga.name, "n": int(ga.n), "m": int(ga.m)},
            "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
            "config": self.config.identity(),
            "inputs": {
                "partition": array_fingerprint(partition_in),
                "mu": array_fingerprint(mu_in),
            },
        }


# ----------------------------------------------------------------------
# Process-boundary plumbing
# ----------------------------------------------------------------------
def _rebuild_pipeline(
    graph: Graph,
    labeling: Any,
    distances: "np.ndarray | None",
    name: str,
    config: PipelineConfig,
    stage_overrides: dict,
    registry: "Registry | None" = None,
) -> "Pipeline":
    """Reconstruct a Pipeline from its picklable payload (see __reduce__)."""
    topology = Topology.from_graph(graph, labeling=labeling, name=name)
    topology._distances = distances
    return Pipeline(
        topology,
        config,
        registry=REGISTRY if registry is None else registry,
        **stage_overrides,
    )


def _run_item(pipe: Pipeline, item: tuple) -> PipelineResult:
    """``run_batch`` pool runner: one ``(graph, seed)`` through ``pipe``."""
    ga, seed = item
    return pipe.run(ga, seed=seed)
