"""The :class:`Topology` session object -- one processor graph, all caches.

TIMER's economics hinge on amortization: recognizing a processor graph as
a partial cube and labeling it costs ``O(|Ep|^2)``-ish work, and the
all-pairs distance matrix behind Coco evaluation costs ``O(|Vp| |Ep|)``;
both are pure functions of the *topology* and independent of the
application graph.  A ``Topology`` owns that precomputation and shares it
across every :meth:`~repro.api.pipeline.Pipeline.run` -- which is exactly
the high-traffic serving shape: build the session once, stream many
application graphs through it.

All caches are lazy, so paths that never touch them (e.g. the experiment
runner, which evaluates Coco from labels) never pay for them.
``labelings_computed`` counts actual labeling computations; the batch
test asserts it stays at one across a whole ``run_batch``.

Built-in topologies
-------------------
This module registers the built-in processor graphs (the paper's five,
the widened and wide-label interconnects, and small variants for tests)
under the ``topology`` registry kind, next to :meth:`Topology.from_name`
that resolves them, so a name like ``grid16x16`` resolves without the
experiment harness loaded.

Cross-process labeling cache
----------------------------
The in-process session cache dies with the process, so an experiment
sweep with spawn workers (or repeated CLI invocations) used to recompute
every labeling per process.  Setting the ``REPRO_LABELING_CACHE``
environment variable to a directory (the experiment runner points it at
``<store>/labelings`` automatically) persists each labeling as one
``.npz`` file keyed by the run-identity convention of
:mod:`repro.api.identity` -- sha256 of a canonical identity covering the
store schema, the code version and a content fingerprint of the graph's
edges.  Writes are atomic (temp file + ``os.replace``), concurrent
writers settle on one complete record, and unreadable or mismatched
files degrade to a recompute, exactly like
:class:`~repro.experiments.store.ArtifactStore` records.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.api.identity import STORE_SCHEMA, cell_key
from repro.api.registry import REGISTRY, TOPOLOGY
from repro.errors import ConfigurationError
from repro.graphs import generators as gen
from repro.graphs.algorithms import all_pairs_distances
from repro.graphs.graph import Graph
from repro.partialcube.djokovic import (
    PartialCubeLabeling,
    cut_edges_from_labels,
    partial_cube_labeling,
)

#: Environment variable naming the labeling cache directory ("" = off).
LABELING_CACHE_ENV = "REPRO_LABELING_CACHE"

#: Bumped when the cache file layout changes; part of every cache key,
#: so entries written by older code simply never hit (no migration
#: reads).  Schema 2 drops the verbatim ``cut_edges`` payload (derived
#: from the labels on load) and adds a content checksum verified on
#: every read.  Schema 3 stores every labeling as ``(n, W)`` ``uint64``
#: (schema 2 stored labelings up to 63 classes as 1-D ``int64``).
_LABELING_CACHE_SCHEMA = 3

class SessionLRU:
    """Bounded LRU of named :class:`Topology` sessions, with counters.

    This is the process-wide session cache behind
    :meth:`Topology.from_name` -- and, by design, the *same* object the
    serving layer's :class:`repro.serve.cache.TopologyCache` operates
    on, so there is exactly one place a labeling can live in memory (no
    double-caching).  ``max_sessions=None`` (the default) keeps the
    historical unbounded behavior; a serving process bounds it and lets
    evicted labelings fall back to the disk tier.

    Counter updates are single bytecode-level int operations, safe under
    the GIL without a lock (metrics readers tolerate a stale snapshot).
    """

    def __init__(self, max_sessions: int | None = None) -> None:
        self._data: "dict[str, Topology]" = {}
        self.max_sessions = max_sessions
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, name: str) -> "Topology | None":
        """The cached session for ``name``, refreshing its recency."""
        topo = self._data.pop(name, None)
        if topo is None:
            self.misses += 1
            return None
        self._data[name] = topo  # re-insert = move to most recent
        self.hits += 1
        return topo

    def store(self, name: str, topo: "Topology") -> None:
        self._data.pop(name, None)
        self._data[name] = topo
        self._evict_over_limit()

    def set_limit(self, max_sessions: int | None) -> None:
        """Change the bound; shrinking evicts least-recent sessions now."""
        if max_sessions is not None and max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1 or None, got {max_sessions}"
            )
        self.max_sessions = max_sessions
        self._evict_over_limit()

    def _evict_over_limit(self) -> None:
        if self.max_sessions is None:
            return
        while len(self._data) > self.max_sessions:
            # dicts iterate in insertion order; the first key is the
            # least recently used (lookups re-insert).
            name = next(iter(self._data))
            del self._data[name]
            self.evictions += 1

    def pop(self, name: str) -> None:
        self._data.pop(name, None)

    def clear(self) -> None:
        """Drop every session and reset the counters (test isolation)."""
        self._data.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        return {
            "size": len(self._data),
            "limit": self.max_sessions,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __len__(self) -> int:
        return len(self._data)


#: Process-wide session cache for registered topology names.  Entries
#: are dropped automatically when their builder is re-registered or
#: unregistered, so a session never outlives its registry entry.
_SESSIONS = SessionLRU()

#: Process-wide labeling-computation tallies (see :func:`labeling_stats`).
_LABELING_STATS = {"computed": 0, "disk_hits": 0, "disk_misses": 0,
                   "disk_stores": 0, "disk_corrupt": 0}


def session_cache() -> SessionLRU:
    """The process-wide named-session LRU (one per process, by design)."""
    return _SESSIONS


def labeling_stats() -> dict:
    """Snapshot of labeling work done by this process.

    ``computed`` counts actual ``partial_cube_labeling`` executions
    across every session; ``disk_hits`` / ``disk_misses`` / ``disk_stores``
    count ``REPRO_LABELING_CACHE`` traffic (misses only tick when the
    cache is enabled).  The serving metrics endpoint exposes these, and
    the no-double-caching tests assert on deltas of ``computed``.
    """
    return dict(_LABELING_STATS)


REGISTRY.subscribe(TOPOLOGY, lambda name: _SESSIONS.pop(name))

#: The built-in builders, registered below into the unified registry
#: (kind ``topology``) -- the single lookup the CLI, the pipeline and the
#: experiment runner all resolve topology names through.
_BUILTIN_BUILDERS: dict[str, Callable[[], Graph]] = {
    # paper set
    "grid16x16": lambda: gen.grid(16, 16),
    "grid8x8x8": lambda: gen.grid(8, 8, 8),
    "torus16x16": lambda: gen.torus(16, 16),
    "torus8x8x8": lambda: gen.torus(8, 8, 8),
    "hq8": lambda: gen.hypercube(8),
    # widened interconnect set: fat-tree, dragonfly, 3-D torus
    "fattree2x5": lambda: gen.fat_tree(2, 5),
    "fattree4x2": lambda: gen.fat_tree(4, 2),
    "dragonfly8x5": lambda: gen.dragonfly(8, 5),
    "torus8x8x4": lambda: gen.torus(8, 8, 4),
    # wide-label set: beyond the lifted 63-class cap
    "fattree2x7": lambda: gen.fat_tree(2, 7),
    "fattree4x3": lambda: gen.fat_tree(4, 3),
    "fattree2x6": lambda: gen.fat_tree(2, 6),
    "dragonfly16x6": lambda: gen.dragonfly(16, 6),
    # small variants for tests, docs and quick examples
    "dragonfly4x2": lambda: gen.dragonfly(4, 2),
    "grid4x4": lambda: gen.grid(4, 4),
    "grid8x8": lambda: gen.grid(8, 8),
    "grid4x4x4": lambda: gen.grid(4, 4, 4),
    "torus4x4": lambda: gen.torus(4, 4),
    "torus8x8": lambda: gen.torus(8, 8),
    "torus4x4x4": lambda: gen.torus(4, 4, 4),
    "hq4": lambda: gen.hypercube(4),
    "hq6": lambda: gen.hypercube(6),
    "path16": lambda: gen.path(16),
    "cbt4": lambda: gen.complete_binary_tree(4),
}

for _name, _builder in _BUILTIN_BUILDERS.items():
    REGISTRY.register(TOPOLOGY, _name, _builder)


class Topology:
    """A processor graph plus its lazily computed, shared precomputation."""

    def __init__(
        self,
        graph: Graph,
        labeling: PartialCubeLabeling | None = None,
        name: str | None = None,
    ) -> None:
        self.graph = graph
        self.name = name or graph.name or "topology"
        self._labeling = labeling
        self._distances: np.ndarray | None = None
        #: number of times the partial-cube labeling was actually computed
        #: by this session (0 when it was supplied or never needed).
        self.labelings_computed = 0

    # -- constructors --------------------------------------------------
    @classmethod
    def from_name(cls, name: str) -> "Topology":
        """The shared session for a registered topology name.

        Sessions are cached per process, so every pipeline (and every
        experiment-runner task of a forked worker) resolving the same
        name shares one labeling and one distance matrix.
        """
        topo = _SESSIONS.lookup(name)
        if topo is None:
            builder = REGISTRY.get(TOPOLOGY, name)
            topo = cls(builder(), name=name)
            _SESSIONS.store(name, topo)
        return topo

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        labeling: PartialCubeLabeling | None = None,
        name: str | None = None,
    ) -> "Topology":
        """Wrap an in-memory processor graph (labeling optional)."""
        return cls(graph, labeling=labeling, name=name)

    @classmethod
    def from_file(cls, path: str | Path) -> "Topology":
        """Load a METIS graph file as a topology session."""
        from repro.graphs.io import read_metis

        path = Path(path)
        return cls(read_metis(str(path), name=path.stem), name=path.stem)

    @classmethod
    def from_spec(cls, spec: "str | Path | Graph | Topology") -> "Topology":
        """Registered name, METIS path, graph, or pass-through session.

        This is the CLI's historical resolution order: a registered name
        wins over a file of the same spelling.
        """
        if isinstance(spec, Topology):
            return spec
        if isinstance(spec, Graph):
            return cls.from_graph(spec)
        if (TOPOLOGY, str(spec)) in REGISTRY:
            return cls.from_name(str(spec))
        if Path(spec).is_file():
            return cls.from_file(spec)
        raise ConfigurationError(
            f"unknown topology {str(spec)!r}: neither a registered name nor "
            f"a METIS file; known names: "
            f"{', '.join(REGISTRY.names(TOPOLOGY)) or '<none>'}"
        )

    @staticmethod
    def clear_sessions() -> None:
        """Drop all cached named sessions (tests, topology re-registration)."""
        _SESSIONS.clear()

    # -- cached views --------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processing elements ``|V_p|``."""
        return self.graph.n

    @property
    def labeling(self) -> PartialCubeLabeling:
        """The partial-cube labeling, computed at most once per session.

        With ``REPRO_LABELING_CACHE`` set, a disk hit replaces the
        computation entirely (``labelings_computed`` stays 0), and a
        fresh computation is persisted for every other process.
        """
        if self._labeling is None:
            cached = _load_cached_labeling(self.graph)
            if cached is not None:
                self._labeling = cached
            else:
                self._labeling = partial_cube_labeling(self.graph)
                self.labelings_computed += 1
                _LABELING_STATS["computed"] += 1
                _store_cached_labeling(self.graph, self._labeling)
        return self._labeling

    @property
    def distances(self) -> np.ndarray:
        """All-pairs hop distances (the NCM), computed at most once."""
        if self._distances is None:
            self._distances = all_pairs_distances(self.graph)
        return self._distances

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lab = self._labeling.dim if self._labeling is not None else "?"
        return f"Topology({self.name!r}, n={self.graph.n}, dim={lab})"


# ----------------------------------------------------------------------
# Cross-process labeling cache
# ----------------------------------------------------------------------
def labeling_cache_key(graph: Graph) -> str:
    """Store-convention identity hash of a graph's labeling.

    Keys by *content* (edge-array fingerprint), not by name, so two
    registrations of the same topology share one cache file and renaming
    never serves stale labels.
    """
    us, vs, ws = graph.edge_arrays()
    edges = hashlib.sha256()
    for arr in (us, vs, ws):
        edges.update(np.ascontiguousarray(arr).tobytes())
    return cell_key(
        {
            "schema": STORE_SCHEMA,
            "kind": "labeling",
            "cache_schema": _LABELING_CACHE_SCHEMA,
            "code": __version__,
            "graph": {"n": int(graph.n), "m": int(graph.m),
                      "edges": edges.hexdigest()},
        }
    )


def _cache_dir() -> Path | None:
    root = os.environ.get(LABELING_CACHE_ENV, "")
    return Path(root) if root else None


def _labeling_checksum(labels: np.ndarray, dim: int) -> np.ndarray:
    """Content digest of a cache entry, stored alongside the payload.

    Covers the label bytes plus the representation (dtype/shape) and
    ``dim``, so any bit rot inside the zip members -- which a valid zip
    container can still carry -- fails verification on read.
    """
    h = hashlib.sha256()
    h.update(str(labels.dtype).encode())
    h.update(repr(labels.shape).encode())
    h.update(np.int64(dim).tobytes())
    h.update(np.ascontiguousarray(labels).tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8)


def _quarantine_corrupt(path: Path) -> None:
    """Move a damaged cache entry aside so it is recomputed exactly once.

    The ``.corrupt`` rename keeps the evidence for operators without
    leaving a poison file that would fail every future read; rename
    failures fall back to deletion, and both are best-effort.
    """
    try:
        os.replace(path, path.with_suffix(".npz.corrupt"))
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
    _LABELING_STATS["disk_corrupt"] += 1


def _load_cached_labeling(graph: Graph) -> PartialCubeLabeling | None:
    """Disk-cache lookup; corruption quarantines the entry and misses.

    A missing file is a plain miss.  An unreadable/truncated zip, a
    checksum mismatch, or labels that do not classify this graph's
    edges all count as *corrupt*: the entry is quarantined (renamed to
    ``.corrupt``), the ``disk_corrupt`` counter ticks, and the caller
    recomputes -- never a crash, never a silently wrong labeling.
    """
    root = _cache_dir()
    if root is None:
        return None
    path = root / f"{labeling_cache_key(graph)}.npz"
    if not path.exists():
        _LABELING_STATS["disk_misses"] += 1
        return None
    try:
        with np.load(path) as z:
            labels = z["labels"]
            dim = int(z["dim"])
            checksum = z["checksum"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        # Truncated zip magic raises BadZipFile, not ValueError; any
        # unreadable file must degrade to a recompute, never a crash.
        _LABELING_STATS["disk_misses"] += 1
        _quarantine_corrupt(path)
        return None
    if not np.array_equal(checksum, _labeling_checksum(labels, dim)):
        _LABELING_STATS["disk_misses"] += 1
        _quarantine_corrupt(path)
        return None
    if labels.shape[0] != graph.n:
        # A verified payload for a different graph: impossible unless
        # the content-addressed key collided; treat as a plain miss.
        _LABELING_STATS["disk_misses"] += 1
        return None
    us, vs, _ = graph.edge_arrays()
    try:
        cut_edges = cut_edges_from_labels(labels, dim, us, vs)
    except ValueError:
        _LABELING_STATS["disk_misses"] += 1
        _quarantine_corrupt(path)
        return None
    _LABELING_STATS["disk_hits"] += 1
    return PartialCubeLabeling(labels=labels, dim=dim, cut_edges=cut_edges)


def _store_cached_labeling(graph: Graph, pc: PartialCubeLabeling) -> None:
    """Atomic cache write (temp + ``os.replace``); failures are silent.

    Since cache schema 2 only ``labels``/``dim``/``checksum`` are
    stored: ``cut_edges`` is derived data (class ``j`` == edges whose
    labels differ in bit ``j``) and rebuilding it on load through the
    recognition path's own assembly is byte-identical and cheaper than
    storing O(|Ep|) indices per entry.
    """
    root = _cache_dir()
    if root is None:
        return
    try:
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{labeling_cache_key(graph)}.npz"
        labels = np.asarray(pc.labels)
        fd, tmp = tempfile.mkstemp(dir=root, prefix=".labeling-", suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(
                    f,
                    labels=labels,
                    dim=np.int64(pc.dim),
                    checksum=_labeling_checksum(labels, pc.dim),
                )
            os.replace(tmp, path)
            _LABELING_STATS["disk_stores"] += 1
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:  # pragma: no cover - disk-full / permission paths
        pass
