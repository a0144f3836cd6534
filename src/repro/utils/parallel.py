"""Shared multiprocessing start-method policy.

:class:`repro.serve.pool.SupervisedPool` is the one process pool for
mapping work (``repro serve --workers``, the experiment runner and
``Pipeline.run_batch(jobs>1)``); it and the shard tier's server
processes start their children through this helper.  Every work unit is
identity-seeded, so determinism never depends on the start method; the
choice is purely about cost and robustness, and it must be made
*identically* everywhere.
"""

from __future__ import annotations

import multiprocessing as mp
import sys


def preferred_mp_context() -> mp.context.BaseContext:
    """``fork`` on Linux, ``spawn`` everywhere else.

    Fork makes workers inherit the parent's imports and warmed caches
    (topology labelings, distance matrices) for free, and works when the
    parent has no importable ``__main__`` (REPL, stdin).  Everywhere
    else -- macOS forks crash under Accelerate/ObjC, which is why
    CPython's own default moved -- fall back to ``spawn``.
    """
    use_fork = sys.platform.startswith("linux") and (
        "fork" in mp.get_all_start_methods()
    )
    return mp.get_context("fork" if use_fork else "spawn")
