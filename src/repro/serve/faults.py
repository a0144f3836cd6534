"""Deterministic fault injection for chaos testing the serving tier.

A :class:`FaultPlan` is a frozen, JSON-serializable description of the
faults one scheduler or pool (and its workers) should experience: worker
kills at specific task indices, injected transient stage errors on a
fixed item cadence, latency spikes, and npz cache corruption helpers.
Everything is counter- or seed-driven -- **no wall-clock, no entropy**
-- so two runs of the same plan against the same traffic fail in the
same places, and the chaos tests can assert byte-identical surviving
payloads.

A plan reaches worker processes as an argument: a
:class:`~repro.serve.pool.SupervisedPool` hands its plan to every worker
it starts, so ``repro serve --faults '{...}'`` reaches only that
server's own workers.  A scheduler or pool built without a plan reads
the ``REPRO_FAULTS`` environment variable (a JSON object) once, when it
is built; nothing here writes it.  An empty/unset variable is the
(default) no-fault plan, whose hooks all compile down to cheap no-ops.

Worker kills are *generation-scoped*: ``kill_task_indices`` only fire
in generation-0 workers (the ones the pool started with), so a
restarted worker does not immediately re-crash -- modelling "a worker
died once", which is what crash-recovery tests need.  Repeatable
crashes are modelled with ``poison_markers`` instead: any work item
whose ``repr`` contains a marker kills *every* worker that touches it,
which is exactly the shape the pool's bisection logic must isolate.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

from repro.errors import ConfigurationError, TransientError

#: Environment variable carrying the active plan as JSON ("" = no faults).
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code used for injected worker kills (distinguishable from real
#: crashes in supervisor logs).
KILL_EXIT_CODE = 137


@dataclass(frozen=True)
class FaultPlan:
    """One scheduler's or pool's deterministic chaos schedule.

    Attributes
    ----------
    kill_task_indices:
        a generation-0 pool worker calls ``os._exit`` *before* running
        its ``i``-th task for each ``i`` listed (worker-local count).
    poison_markers:
        substrings matched against ``repr(item)``; a match kills the
        worker every time, in every generation -- a poison request.
    item_error_every:
        every ``n``-th item (process-local count, 1-based) raises an
        injected :class:`TransientError` instead of computing; 0 = off.
    latency_spike_s / latency_every:
        every ``n``-th task sleeps ``latency_spike_s`` seconds first.
    """

    kill_task_indices: tuple[int, ...] = ()
    poison_markers: tuple[str, ...] = ()
    item_error_every: int = 0
    latency_spike_s: float = 0.0
    latency_every: int = 0

    def __post_init__(self) -> None:
        if self.item_error_every < 0 or self.latency_every < 0:
            raise ConfigurationError(
                "item_error_every and latency_every must be >= 0"
            )
        if self.latency_spike_s < 0:
            raise ConfigurationError("latency_spike_s must be >= 0")

    @property
    def active(self) -> bool:
        return bool(
            self.kill_task_indices
            or self.poison_markers
            or self.item_error_every
            or (self.latency_every and self.latency_spike_s)
        )

    # -- (de)serialization ---------------------------------------------
    def to_json(self) -> str:
        out = {k: v for k, v in asdict(self).items() if v}
        return json.dumps(out, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid fault plan JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got {payload!r}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan keys {unknown}; known: {sorted(known)}"
            )
        body = dict(payload)
        for key in ("kill_task_indices",):
            if key in body:
                body[key] = tuple(int(x) for x in body[key])
        if "poison_markers" in body:
            body["poison_markers"] = tuple(str(x) for x in body["poison_markers"])
        return cls(**body)

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan named by ``REPRO_FAULTS`` (no-fault plan when unset)."""
        raw = os.environ.get(FAULTS_ENV, "")
        return cls.from_json(raw) if raw.strip() else cls()


@dataclass
class FaultClock:
    """Per-process mutable counters the plan's hooks advance."""

    tasks: int = 0
    items: int = 0


_CLOCK = FaultClock()


def on_task(
    plan: FaultPlan,
    clock: FaultClock | None = None,
    generation: int = 0,
    *,
    allow_kill: bool = True,
) -> None:
    """Task-granularity hooks: worker kill and latency spike.

    Called by a pool worker before each task, and by the in-process
    dispatch path with ``allow_kill=False`` -- killing the only serving
    process would take the service down, the opposite of what chaos
    *testing* wants to exercise.
    """
    clock = clock if clock is not None else _CLOCK
    index = clock.tasks
    clock.tasks += 1
    if (
        plan.latency_every
        and plan.latency_spike_s
        and (index + 1) % plan.latency_every == 0
    ):
        time.sleep(plan.latency_spike_s)
    if allow_kill and generation == 0 and index in plan.kill_task_indices:
        os._exit(KILL_EXIT_CODE)


def on_item(plan: FaultPlan, item: object, clock: FaultClock | None = None,
            *, allow_kill: bool = True) -> None:
    """Item-granularity hooks: poison kill and injected transient error.

    Raises :class:`TransientError` for the error-injection cadence; a
    poison-marker match exits the process (only when ``allow_kill``:
    the in-process path treats poison as an injected error instead,
    because there is no supervisor to restart the serving process).
    """
    clock = clock if clock is not None else _CLOCK
    clock.items += 1
    if plan.poison_markers:
        tag = repr(item)
        if any(marker in tag for marker in plan.poison_markers):
            if allow_kill:
                os._exit(KILL_EXIT_CODE)
            raise TransientError(f"injected poison fault on {tag[:80]}")
    if plan.item_error_every and clock.items % plan.item_error_every == 0:
        raise TransientError(
            f"injected transient fault (item #{clock.items})"
        )


# ----------------------------------------------------------------------
# npz cache corruption (chaos harness helpers)
# ----------------------------------------------------------------------
def corrupt_npz_file(path: str | os.PathLike, mode: str = "truncate") -> None:
    """Deterministically damage one npz cache entry in place.

    ``truncate`` keeps the first half of the file (a torn write);
    ``garbage`` overwrites the leading bytes (bit rot past the zip
    magic, which only a content checksum catches).
    """
    if mode not in ("truncate", "garbage"):
        raise ConfigurationError(
            f"corruption mode must be 'truncate' or 'garbage', got {mode!r}"
        )
    with open(path, "rb") as f:
        data = f.read()
    if mode == "truncate":
        data = data[: max(1, len(data) // 2)]
    else:
        head = b"\x00\xff" * 32
        data = head + data[len(head):]
    with open(path, "wb") as f:
        f.write(data)


def corrupt_cache_dir(
    root: str | os.PathLike, index: int = 0, mode: str = "truncate"
) -> str:
    """Corrupt the ``index``-th (sorted) ``.npz`` entry under ``root``.

    Returns the corrupted path; raises if the directory holds no
    entries, so a chaos job fails loudly instead of silently testing
    nothing.
    """
    from pathlib import Path

    entries = sorted(Path(root).glob("*.npz"))
    if not entries:
        raise ConfigurationError(f"no npz cache entries under {root}")
    target = entries[index % len(entries)]
    corrupt_npz_file(target, mode=mode)
    return str(target)
