"""Cache tiers for the serving layer: response LRU -> session LRU -> disk.

Tier 0 is the :class:`ResponseCache`: finished
:class:`~repro.api.pipeline.PipelineResult` objects keyed by full run
identity ``(group key, graph content, seed, supplied-mapping tag)``.
The determinism contract -- identical identity implies a byte-identical
result -- is what makes replaying a remembered response sound: a hit
*is* the recompute, minus the compute.  The cache is bounded both by
entry count and by a byte budget (entry sizes measured as the pickled
result), because results carry ``O(n)`` mapping arrays and a hostile or
merely wide key space must not grow the heap unboundedly.

Tier 1 is the process-wide :class:`~repro.api.topology.SessionLRU`
behind :meth:`Topology.from_name` -- *the same object*, not a copy, so a
labeling lives in exactly one place in memory no matter whether a
pipeline, the CLI or the serve scheduler resolved it (the
no-double-caching contract, asserted in the tests via the
``labelings_computed`` counter).  The serving layer merely *bounds* it:
a long-running service with a wide topology matrix must not accumulate
distance matrices forever, so evictions drop the least recently served
session.

Tier 2 is the ``REPRO_LABELING_CACHE`` npz disk cache (PR 4): an evicted
session's labeling is re-read from disk on the next request instead of
being recomputed -- eviction costs one ``np.load``, not an
``O(|Ep|^2)`` recognition.  :class:`TopologyCache` can point the
environment variable at a directory for the lifetime of the service.
All tiers live in the serving process; ``--workers`` pool processes
receive warmed pipelines from it, so adding workers adds compute, not
session capacity (``--max-sessions`` is the capacity setting).

Served topologies are registered names only: :meth:`TopologyCache.get`
never opens a path a client supplies.

Hit/miss/eviction counters for all tiers surface in ``/metrics``
through :meth:`TopologyCache.stats` and :meth:`ResponseCache.stats`.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from repro.api.topology import (
    LABELING_CACHE_ENV,
    Topology,
    labeling_stats,
    session_cache,
)
from repro.errors import ConfigurationError

#: default :class:`ResponseCache` byte budget (64 MiB)
DEFAULT_RESPONSE_CACHE_BYTES = 64 * 1024 * 1024


class ResponseCache:
    """Byte-budgeted LRU of finished pipeline results, keyed by identity.

    ``max_entries`` bounds the count, ``max_bytes`` the summed pickled
    sizes; eviction drops least-recently-used entries until both bounds
    hold.  A single result larger than the whole byte budget is simply
    not stored (it would evict everything for one key).  Either bound at
    ``0`` disables the cache entirely.

    Keys must already be backend-independent: the scheduler builds them
    from ``MapRequest.group_key()`` (which hashes
    ``PipelineConfig.identity()``, excluding ``backend`` per
    ``IDENTITY_EXCLUDED``) plus ``work_key()`` -- so two requests
    differing only in kernel backend share one entry, exactly as they
    share one batch group.
    """

    def __init__(
        self,
        max_entries: int = 128,
        max_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES,
    ) -> None:
        if max_entries < 0 or max_bytes < 0:
            raise ConfigurationError(
                "max_entries and max_bytes must be >= 0"
            )
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._data: dict[tuple, tuple[object, int]] = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0 and self.max_bytes > 0

    def get(self, key: tuple):
        """The cached result for ``key`` (recency refreshed), or ``None``."""
        entry = self._data.pop(key, None)
        if entry is None:
            self.misses += 1
            return None
        self._data[key] = entry  # re-insert = move to most recent
        self.hits += 1
        return entry[0]

    def put(self, key: tuple, result: object) -> None:
        """Remember one result; evicts LRU entries past either budget."""
        if not self.enabled:
            return
        size = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        if size > self.max_bytes:
            return  # one oversized entry must not flush the whole cache
        old = self._data.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        self._data[key] = (result, size)
        self.bytes += size
        while self._data and (
            len(self._data) > self.max_entries or self.bytes > self.max_bytes
        ):
            # dicts iterate in insertion order; the first key is the
            # least recently used (get() re-inserts on hit).
            victim = next(iter(self._data))
            _result, victim_size = self._data.pop(victim)
            self.bytes -= victim_size
            self.evictions += 1

    def stats(self) -> dict:
        return {
            "entries": len(self._data),
            "bytes": self.bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return len(self._data)


#: Constructor default distinguishing "no bound requested" (leave the
#: shared LRU's current limit alone) from an explicit ``None`` ("make it
#: unbounded") -- a default-constructed facade must never silently undo
#: an operator's ``--max-sessions``.
_KEEP_LIMIT = object()


class TopologyCache:
    """Serving facade over the shared session LRU + labeling disk cache.

    ``max_sessions`` bounds tier 1: an int sets the bound, an explicit
    ``None`` makes it unbounded, and omitting it keeps whatever limit
    the process already runs with.  ``disk_dir`` enables tier 2 by
    exporting ``REPRO_LABELING_CACHE`` for this process (``None`` leaves
    the environment alone, so an operator-set value keeps working).
    """

    def __init__(
        self,
        max_sessions: "int | None | object" = _KEEP_LIMIT,
        disk_dir: str | Path | None = None,
    ) -> None:
        self.sessions = session_cache()
        if max_sessions is not _KEEP_LIMIT:
            self.sessions.set_limit(max_sessions)
        if disk_dir is not None:
            os.environ[LABELING_CACHE_ENV] = str(disk_dir)
        self._base = labeling_stats()

    def get(self, name: str) -> Topology:
        """Resolve a registered topology name through the shared caches.

        Goes through :meth:`Topology.from_name` (tier 1 counted, tier 2
        behind it).  Anything else -- a file path included -- raises the
        unknown-topology error listing the registered names, so a client
        can never make the server read a file.
        """
        return Topology.from_name(str(name))

    def warm(self, names: "list[str] | tuple[str, ...]") -> None:
        """Precompute labelings for topologies the service will serve."""
        for name in names:
            self.get(name).labeling

    def stats(self) -> dict:
        """Both tiers' counters, disk traffic relative to construction."""
        disk = labeling_stats()
        return {
            "sessions": self.sessions.stats(),
            "labelings_computed": disk["computed"] - self._base["computed"],
            "disk": {
                "hits": disk["disk_hits"] - self._base["disk_hits"],
                "misses": disk["disk_misses"] - self._base["disk_misses"],
                "stores": disk["disk_stores"] - self._base["disk_stores"],
                "corrupt": disk["disk_corrupt"] - self._base["disk_corrupt"],
            },
        }
