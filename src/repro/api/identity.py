"""Run identity: the content hashes that key stored and served results.

A run's *identity* is a JSON-able dict of everything that can change its
numbers (store schema, code version, inputs, configuration); its key is
``sha256(canonical_json(identity))``.  One convention keys every cached
or recorded result: the pipeline's ``identity_hash``, the labeling disk
cache, the serving tier's batching groups and response cache, and the
experiment harness's on-disk cells (:mod:`repro.experiments.store`).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.graphs.graph import Graph

#: Bump when the record layout or the semantics of stored fields change;
#: invalidates every existing store entry.
STORE_SCHEMA = 1


def canonical_json(obj: object) -> str:
    """Canonical JSON: sorted keys, no whitespace, full float precision.

    ``repr``-based float formatting round-trips exactly, so two runs that
    compute the same numbers serialize to the same bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def cell_key(identity: dict) -> str:
    """SHA-256 hex digest of a cell's canonical identity."""
    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


def array_fingerprint(
    arr: np.ndarray | None, dtype: type[np.generic] = np.int64
) -> str | None:
    """Content hash of an array as ``dtype`` (None = not supplied)."""
    if arr is None:
        return None
    data = np.ascontiguousarray(arr, dtype=dtype).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def edges_fingerprint(graph: Graph) -> str:
    """SHA-256 hex digest of a graph's edge arrays ``(us, vs, weights)``.

    Keys the labeling disk cache and enters every pipeline run identity:
    two graphs share it only when they have the same edges and weights.
    """
    digest = hashlib.sha256()
    for arr in graph.edge_arrays():
        digest.update(np.ascontiguousarray(arr))  # its buffer, not a copy
    return digest.hexdigest()
