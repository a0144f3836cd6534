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


def array_fingerprint(arr: np.ndarray | None) -> str | None:
    """Content hash of an integer array as int64 (None = not supplied)."""
    if arr is None:
        return None
    data = np.ascontiguousarray(arr, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]
