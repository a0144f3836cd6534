"""Content-addressed on-disk store for experiment cell results.

One JSON file per *cell* -- a single ``(instance, topology, case,
repetition)`` run of the sweep.  The file name is the SHA-256 of the
cell's canonical **identity** (:func:`repro.api.identity.cell_key`):
every configuration knob that influences the computed numbers (sweep
seed, sizing, TIMER budget, instance fingerprint) plus the code version
and a store schema version.  Anything that changes the result changes
the key, so a hit is always safe to reuse; execution knobs (``--jobs``,
verbosity) are deliberately excluded.

Each record splits into:

- ``identity`` -- the key material, echoed for inspection;
- ``data`` -- the deterministic measurements (quality metrics, seeds,
  sizes).  Byte-identical across reruns, worker counts and process
  boundaries; :func:`deterministic_bytes` canonicalizes exactly this part
  and is what the determinism tests compare.
- ``timing`` -- wall-clock seconds.  Honest measurements, so *not*
  reproducible byte-for-byte; kept out of the deterministic section.

Writes are atomic (temp file + ``os.replace`` in the same directory), so
a sweep killed mid-write never corrupts the store and concurrent writers
of the same cell settle on one complete record.  Unreadable or
mismatching records are treated as misses and recomputed.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator

from repro.api.identity import STORE_SCHEMA, canonical_json, cell_key  # noqa: F401  (re-exported)


def deterministic_bytes(record: dict) -> bytes:
    """Canonical bytes of the reproducible part of a cell record."""
    return canonical_json(
        {"identity": record["identity"], "data": record["data"]}
    ).encode("utf-8")


@dataclass
class PruneReport:
    """Outcome of :meth:`ArtifactStore.prune`."""

    dry_run: bool = False
    kept: int = 0
    #: ``(key, reason)`` per stale record, in sorted key order.
    stale: list = field(default_factory=list)

    @property
    def deleted(self) -> int:
        """Records actually removed (0 on a dry run)."""
        return 0 if self.dry_run else len(self.stale)

    def render(self) -> str:
        """Human-readable gc summary."""
        verb = "would delete" if self.dry_run else "deleted"
        lines = [
            f"store gc: {self.kept} kept, {verb} {len(self.stale)} stale record(s)"
        ]
        for key, reason in self.stale:
            lines.append(f"  {key[:16]}...  {reason}")
        return "\n".join(lines) + "\n"


class ArtifactStore:
    """Keyed JSON records under ``root``, sharded by key prefix.

    Layout: ``root/<key[:2]>/<key>.json``.  The two-character shard keeps
    directory listings manageable for production-size sweeps (15
    instances x 8 topologies x 4 cases x 5 reps = 2400 cells) without any
    index file -- the filesystem *is* the index, which is what makes
    ``--resume`` trivially crash-safe.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The record for ``key``, or ``None`` on miss/corruption.

        A half-written or hand-edited file must never poison a resumed
        sweep, so any parse failure degrades to a recompute.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or not all(
            isinstance(record.get(part), dict)
            for part in ("identity", "data", "timing")
        ):
            return None
        return record

    def put(self, key: str, record: dict) -> Path:
        """Atomically persist ``record`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(canonical_json(record))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def delete(self, key: str) -> bool:
        """Remove the record for ``key``; True when a file was deleted."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def prune(
        self,
        *,
        schema: int = STORE_SCHEMA,
        code: str | None = None,
        dry_run: bool = False,
    ) -> "PruneReport":
        """Garbage-collect records that no current run could ever reuse.

        A record is *stale* when it is unreadable/corrupt, when its
        ``identity.schema`` differs from ``schema``, or -- with ``code``
        given -- when its ``identity.code`` differs.  Those records can
        never hit again (the mismatching version is part of the cell
        key), so they only accumulate disk; this deletes them.  With
        ``dry_run=True`` nothing is unlinked and the report shows what
        *would* go.
        """
        report = PruneReport(dry_run=dry_run)
        for key in sorted(self.keys()):
            record = self.get(key)
            identity = record.get("identity", {}) if record else {}
            if record is None:
                reason = "unreadable"
            elif identity.get("schema") != schema:
                reason = f"schema {identity.get('schema')!r} != {schema!r}"
            elif code is not None and identity.get("code") != code:
                reason = f"code {identity.get('code')!r} != {code!r}"
            else:
                report.kept += 1
                continue
            report.stale.append((key, reason))
            if not dry_run:
                self.delete(key)
        return report

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        """All stored cell keys (unordered)."""
        for path in self.root.glob("??/*.json"):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())
