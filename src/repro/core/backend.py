"""The kernel-backend seam: one dispatch point for every hot kernel.

Every compute-bound call site in the package -- the batch swap-pass
kernels in :mod:`repro.core.kernels`, label ordering and popcounts in
:mod:`repro.utils.bitops`, the bit-packed all-pairs BFS in
:mod:`repro.graphs.algorithms` and the Djokovic class computation in
:mod:`repro.partialcube.djokovic` -- routes through the
:class:`KernelBackend` protocol defined here.  Backends are ordinary
registrations under the ``kernel_backend`` kind of the unified
:data:`~repro.api.registry.REGISTRY`, so a new execution tier (a GPU
backend, a C extension) is a registration, not a rewrite of the call
sites.

Built-in registrations:

``numpy``
    The always-available reference.  Every other backend is contracted
    to be **byte-identical** to it (enforced by
    ``tests/core/test_backend_equivalence.py``), which is why backend
    choice is deliberately *excluded* from pipeline identity hashes.
``numba``
    Compiled serial kernels (:mod:`repro.core.backend_numba`); usable
    only where numba imports.
``numba-parallel``
    The same kernels compiled with ``parallel=True``: thread-parallel
    swap-fixpoint rounds, source-sharded multi-source BFS and SWAR
    popcounts.

Selection
---------
Priority, highest first:

1. the innermost active :func:`use_backend` scope (thread-local -- the
   pipeline wraps each run in one, so ``PipelineConfig.backend``, the
   CLI ``--backend`` flag and the serve config's ``"backend"`` key work
   under the serve tier's executor threads);
2. the process default set via :func:`set_default_backend`;
3. ``auto``.

One tier order, ``numba-parallel``, ``numba``, ``numpy``, settles the
rest: ``auto`` takes the first available tier, and a requested tier
that is unavailable runs the first available tier after it (the
kernels are byte-identical, so degrading is safe).  A registered
backend outside that order runs when requested by name and degrades
straight to ``numpy``; ``auto`` never picks it.  An *unknown* name
raises ``ValueError``.  Whether numba imports is probed once per
process, on first use, so ``import repro`` never imports numba.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from collections.abc import Iterator

import numpy as np

from repro.api.registry import KERNEL_BACKEND, REGISTRY
from repro.utils import bitops
from repro.utils.segments import segment_sum

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "NumbaParallelBackend",
    "available_backends",
    "known_backends",
    "current_backend",
    "resolve_backend_name",
    "get_backend",
    "set_default_backend",
    "use_backend",
]

#: Tiers, fastest first: ``auto`` takes the first available one, and an
#: unavailable tier degrades to the first available one after it.
_TIERS = ("numba-parallel", "numba", "numpy")


# ----------------------------------------------------------------------
# The protocol (and its numpy reference implementation)
# ----------------------------------------------------------------------
class KernelBackend:
    """Typed kernel protocol; the base class *is* the numpy reference.

    Subclasses override any subset of the kernel methods; whatever they
    leave alone falls back to the reference implementation, so a backend
    only has to carry the kernels it actually accelerates.  Every
    override is contracted to return byte-identical results for
    integer-valued edge weights (all contracted levels of unit-weight
    graphs) -- callers never branch on which backend is active.
    """

    #: Registry name; also what ``PipelineResult.backend`` records.
    name = "numpy"

    def available(self) -> bool:
        """Whether this backend can run in the current process."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"

    # -- swap-pass kernels ---------------------------------------------
    def vertex_lsb_sums(
        self,
        lsb: np.ndarray,
        rows: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Per-row sum of ``w * (1 - 2*(lsb_u ^ lsb_t))`` over CSR rows.

        Row ``i`` is vertex ``rows[i]``'s, with the entries
        ``indptr[i]:indptr[i + 1]`` of ``indices`` / ``weights``: a whole
        CSR with ``rows = arange(n)``, or rows gathered from one.  A row
        sums the same way in either, so its sum does not depend on which
        other rows came along.  ``lsb`` is the 0/1 int64 LSB array of
        every vertex (not the labels), so the kernel never sees the word
        layout.
        """
        # The source LSB is constant within a row, so instead of
        # gathering per-entry source labels:
        #   S[u] = W[u] - 2*T[u]  when lsb_u == 0
        #   S[u] = 2*T[u] - W[u]  when lsb_u == 1
        # with W the row's weight sum and T the weight sum over
        # neighbors whose LSB is set.
        tw = segment_sum(weights * lsb[indices], indptr)
        wtot = segment_sum(weights, indptr)
        return np.where(lsb[rows] == 1, 2.0 * tw - wtot, wtot - 2.0 * tw)

    def greedy_fixpoint(
        self,
        deltas0: np.ndarray,
        own: np.ndarray,
        dst: np.ndarray,
        c0: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve the sequential-sweep swap fixpoint (see ``core.kernels``).

        ``deltas0`` are the start-of-sweep gains of the ``k`` sibling
        pairs; ``(own, dst, c0)`` list the ordered pair interactions
        (``dst < own``) with their initial contributions.  Returns
        ``(swap, deltas)``: the converged decision vector and the gains
        it was judged by.  Solved by synchronous iteration -- the
        correct prefix grows every step, so at most ``k`` iterations.
        """
        k = deltas0.shape[0]
        swap = deltas0 < 0.0
        deltas = deltas0
        for _ in range(k + 1):
            act = swap[dst]
            corr = np.bincount(own[act], weights=c0[act], minlength=k)
            deltas = deltas0 - 2.0 * corr
            new_swap = deltas < 0.0
            if np.array_equal(new_swap, swap):
                break
            swap = new_swap
        return swap, deltas

    # -- graph kernels -------------------------------------------------
    def all_pairs_distances(
        self, indptr: np.ndarray, indices: np.ndarray, n: int
    ) -> np.ndarray:
        """Dense ``(n, n)`` unweighted shortest-path matrix (-1 unreached).

        Bit-packed multi-source BFS: every vertex carries a bitset of
        the sources that reached it, and one BFS level for *all* sources
        at once is a single gather + ``np.bitwise_or.reduceat`` over the
        CSR -- ``O(m * n / 64)`` word operations per level.
        """
        if n == 0:
            return np.empty((0, 0), dtype=np.int64)
        words = (n + 63) // 64
        idx = np.arange(n)
        reached = np.zeros((n, words), dtype=np.uint64)
        reached[idx, idx // 64] = np.uint64(1) << (idx % 64).astype(np.uint64)
        dist = np.full((n, n), -1, dtype=np.int64)
        dist[idx, idx] = 0
        counts = np.diff(indptr)
        nonempty = counts > 0
        starts = indptr[:-1][nonempty]
        frontier = reached.copy()
        level = 0
        while frontier.any():
            level += 1
            nxt = np.zeros_like(reached)
            if indices.size:
                # nxt[u] = OR of the frontier bitsets of u's neighbors.
                nxt[nonempty] = np.bitwise_or.reduceat(
                    frontier[indices], starts, axis=0
                )
            new = nxt & ~reached
            if not new.any():
                break
            reached |= new
            # Decode the fresh (vertex, source) bits into distances.
            bits = np.unpackbits(new.view(np.uint8), axis=1, bitorder="little")
            vv, ss = np.nonzero(bits[:, :n])
            dist[vv, ss] = level
            frontier = new
        return dist

    # -- label ordering ------------------------------------------------
    def argsort_labels(self, labels: np.ndarray) -> np.ndarray:
        """Stable argsort of an ``(n, W)`` label array in bitvector order."""
        return np.argsort(bitops.label_sort_keys(labels), kind="stable")

    # -- popcount kernels ----------------------------------------------
    def popcount_labels(self, x: np.ndarray) -> np.ndarray:
        """Per-label popcount (the last axis is the word axis).

        Adds the per-word counts one word column at a time: numpy's
        reduction over a short strided last axis costs several times
        more than these ``W`` vector additions.
        """
        counts = bitops.bitwise_count(x)
        out = counts[..., 0].astype(np.int64)
        for w in range(1, counts.shape[-1]):
            out += counts[..., w]
        return out

    def pairwise_hamming(self, labels: np.ndarray, block: int = 256) -> np.ndarray:
        """``(n, n)`` Hamming distance matrix of an ``(n, W)`` label array.

        Row-blocked so it never materializes the full ``(n, n, W)`` XOR
        tensor at once.
        """
        n = labels.shape[0]
        out = np.empty((n, n), dtype=np.int64)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            out[lo:hi] = self.popcount_labels(
                labels[lo:hi, None, :] ^ labels[None, :, :]
            )
        return out

    # -- partial-cube recognition --------------------------------------
    def djokovic_classes(self, g, distances: np.ndarray):
        """Djokovic class computation for a gated (connected, bipartite) graph.

        The reference strategy is a hybrid: the one-class-at-a-time
        loop capped at ``WORD_BITS`` (64) classes (unbeatable while
        classes pack into one word), falling back to the fully batched
        ``(m, n)`` side-matrix computation when the cap is hit (trees,
        where every edge is a class).
        Backends may reorder the internals but must return identical
        ``(edge_class, classes)``.
        """
        from repro.partialcube import djokovic as dj

        capped = dj._djokovic_classes_loop(
            g, distances, max_classes=bitops.WORD_BITS
        )
        if capped is not None:
            return capped
        return dj._djokovic_classes_vectorized(g, distances)


class NumpyBackend(KernelBackend):
    """The always-available byte-identity reference (base-class kernels)."""


@functools.cache
def _numba_importable() -> bool:
    """Whether numba imports here (probed once: it cannot change)."""
    try:  # pragma: no cover - exercised only where numba is installed
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


class NumbaBackend(KernelBackend):
    """Compiled serial kernels; available only where numba imports.

    Kernels compile lazily on first use (one set per parallelism flag,
    cached on the instance), so merely registering the backend costs
    nothing and processes that never select it never pay for a JIT.
    """

    name = "numba"
    _parallel = False

    def __init__(self) -> None:
        self._kernels: dict | None = None

    def available(self) -> bool:
        return _numba_importable()

    # pragma: no cover on every kernel below - numba is absent from the
    # base image; the CI numba matrix leg runs them for real.
    def _jit(self) -> dict:  # pragma: no cover
        if self._kernels is None:
            from repro.core.backend_numba import build_kernels

            self._kernels = build_kernels(parallel=self._parallel)
        return self._kernels

    def vertex_lsb_sums(self, lsb, rows, indptr, indices, weights):  # pragma: no cover
        return self._jit()["vertex_lsb_sums"](lsb, rows, indptr, indices, weights)

    def greedy_fixpoint(self, deltas0, own, dst, c0):  # pragma: no cover
        k = int(deltas0.shape[0])
        # Group the interaction entries by owning pair.  The stable sort
        # keeps each pair's edges in their original sequence, which is
        # the order the reference np.bincount accumulates them in -- the
        # float sums stay byte-identical.
        order = np.argsort(own, kind="stable")
        own_indptr = np.searchsorted(own[order], np.arange(k + 1, dtype=np.int64))
        return self._jit()["greedy_fixpoint"](
            deltas0, own_indptr, dst[order], c0[order]
        )

    def all_pairs_distances(self, indptr, indices, n):  # pragma: no cover
        if n == 0:
            return np.empty((0, 0), dtype=np.int64)
        dist = np.full((n, n), -1, dtype=np.int64)
        self._jit()["all_pairs_bitset"](indptr, indices, n, dist)
        return dist

    def popcount_labels(self, x):  # pragma: no cover
        x = np.ascontiguousarray(x, dtype=np.uint64)
        rows = x.reshape(-1, x.shape[-1])
        return self._jit()["popcount_rows"](rows).reshape(x.shape[:-1])

    def pairwise_hamming(self, labels, block: int = 256):  # pragma: no cover
        n = labels.shape[0]
        out = np.zeros((n, n), dtype=np.int64)
        if n:
            self._jit()["pairwise_hamming"](np.ascontiguousarray(labels), out)
        return out


class NumbaParallelBackend(NumbaBackend):
    """The numba kernels compiled with ``parallel=True`` (prange tiers)."""

    name = "numba-parallel"
    _parallel = True


REGISTRY.register(KERNEL_BACKEND, "numpy", NumpyBackend())
REGISTRY.register(KERNEL_BACKEND, "numba", NumbaBackend())
REGISTRY.register(KERNEL_BACKEND, "numba-parallel", NumbaParallelBackend())


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
_default_override: str | None = None
_scope = threading.local()


def known_backends() -> tuple[str, ...]:
    """Every selectable name: registered backends plus ``auto``."""
    return REGISTRY.names(KERNEL_BACKEND) + ("auto",)


def available_backends() -> tuple[str, ...]:
    """Registered backends usable in this process (``numpy`` always)."""
    return tuple(
        name
        for name, backend in REGISTRY.items(KERNEL_BACKEND)
        if backend.available()
    )


def _validated(name: str) -> str:
    low = str(name).lower()
    if low != "auto" and (KERNEL_BACKEND, low) not in REGISTRY:
        known = ", ".join(known_backends())
        raise ValueError(f"unknown kernel backend {name!r}; expected one of: {known}")
    return low


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve a request (or the ambient selection) to an available backend.

    ``None`` consults, in order: the innermost :func:`use_backend`
    scope, the :func:`set_default_backend` override, then ``auto``.
    Unknown names raise ``ValueError``; an unavailable tier runs the
    first available tier after it, and an unavailable registration
    outside the tier order runs ``numpy``.
    """
    choice = _validated(
        name or getattr(_scope, "name", None) or _default_override or "auto"
    )
    if choice == "auto":
        choice = _TIERS[0]
    chain = _TIERS[_TIERS.index(choice):] if choice in _TIERS else (choice, "numpy")
    # The last link, numpy, is always available.
    for tier in chain[:-1]:
        if REGISTRY.get(KERNEL_BACKEND, tier).available():
            return tier
    return chain[-1]


def current_backend() -> KernelBackend:
    """The :class:`KernelBackend` instance the kernels should use now."""
    return REGISTRY.get(KERNEL_BACKEND, resolve_backend_name())


def get_backend() -> str:
    """Resolved name of the active backend (after fallbacks)."""
    return resolve_backend_name()


def set_default_backend(name: str | None) -> None:
    """Set the process-wide default backend (``None`` restores ``auto``).

    Pool workers forked afterwards inherit it; per-run selection goes
    through ``PipelineConfig.backend`` instead.
    """
    global _default_override
    if name is not None:
        name = _validated(name)
    _default_override = name


@contextmanager
def use_backend(name: str | None) -> Iterator[None]:
    """Scope a backend selection to the current thread.

    ``None``/empty is a no-op scope (inherit the ambient selection).
    Thread-local on purpose: the serve tier runs pipelines on executor
    threads, and one request's backend choice must not leak into a
    neighbor's.
    """
    if not name:
        yield
        return
    name = _validated(name)
    prev = getattr(_scope, "name", None)
    _scope.name = name
    try:
        yield
    finally:
        _scope.name = prev
