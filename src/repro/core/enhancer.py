"""Algorithm 1: the TIMER multi-hierarchical mapping enhancer.

``timer_enhance`` takes an application graph, a partial-cube processor
graph (or its precomputed labeling), an initial mapping ``mu`` and the
number of hierarchies ``N_H``; it returns the improved mapping plus full
before/after quality metrics.

Per hierarchy (paper lines 3-20):

1. draw a random permutation of the ``dim_Ga`` label bit positions and
   permute all labels (lines 6-7);
2. walk the hierarchy bottom-up: greedy sibling swaps on the current
   level (lines 10-12, :mod:`~repro.core.swaps`), then contract the least
   significant digit away (line 13, :mod:`~repro.core.contraction`); on
   exact weights the greedy passes are solved a block of levels at a
   time (:mod:`~repro.core.blocks`), through the same per-level calls;
3. reassemble a fine labeling from the swapped hierarchy (line 15,
   :mod:`~repro.core.assemble`), undo the permutation (line 16);
4. keep the new labeling only if ``Coco+`` did not get worse
   (lines 17-19).

The label *multiset* never changes, so the balance of the partition
induced by ``mu`` is preserved exactly (paper section 4).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.assemble import assemble
from repro.core.blocks import BlockHierarchy, LevelView
from repro.core.config import TimerConfig
from repro.core.contraction import Level, contract_level, make_finest_level
from repro.core.labels import ApplicationLabeling, build_application_labeling
from repro.core.objective import coco_of_labels, coco_plus, div_of_labels
from repro.core.swaps import kl_swap_pass, swap_pass
from repro.graphs.graph import Graph, exact_weights
from repro.partialcube.djokovic import PartialCubeLabeling, partial_cube_labeling
from repro.partitioning.metrics import edge_cut
from repro.utils.rng import SeedLike, make_rng
from repro.utils.bitops import label_sort_keys, permute_bits, unpermute_bits
from repro.utils.segments import build_csr
from repro.utils.stopwatch import Stopwatch


@dataclass
class TimerResult:
    """Outcome of a :func:`timer_enhance` run.

    ``mu_before`` / ``mu_after`` are vertex->PE arrays; the ``coco`` /
    ``cut`` pairs are the paper's two quality metrics evaluated on both.
    ``history`` holds the accepted ``Coco+`` value after every hierarchy
    (length ``N_H``), which the ablation benches plot.
    """

    labeling: ApplicationLabeling
    mu_before: np.ndarray
    mu_after: np.ndarray
    coco_before: float
    coco_after: float
    cut_before: float
    cut_after: float
    div_before: float
    div_after: float
    hierarchies_accepted: int
    elapsed_seconds: float
    history: list = field(default_factory=list)

    @property
    def coco_improvement(self) -> float:
        """Relative Coco reduction (positive = better), e.g. 0.18 = 18%."""
        if self.coco_before == 0:
            return 0.0
        return 1.0 - self.coco_after / self.coco_before


def timer_enhance(
    ga: Graph,
    gp: Graph | None,
    pc: PartialCubeLabeling | None,
    mu: np.ndarray,
    n_hierarchies: int | None = None,
    seed: SeedLike = None,
    config: TimerConfig | None = None,
) -> TimerResult:
    """Enhance the mapping ``mu`` of ``ga`` onto a partial cube (Alg. 1).

    Parameters
    ----------
    ga:
        application graph ``G_a``.
    gp:
        processor graph; may be ``None`` when ``pc`` is given.
    pc:
        precomputed partial-cube labeling of ``gp`` (recognition is
        ``O(|Ep|^2)`` and reusable across runs, so the harness computes it
        once); when ``None`` it is derived from ``gp``.
    mu:
        initial mapping ``V_a -> V_p`` (array of PE ids), e.g. from
        :func:`repro.mapping.compute_initial_mapping`.
    n_hierarchies:
        overrides ``config.n_hierarchies`` when given (the paper's NH).
    """
    cfg = config or TimerConfig()
    if n_hierarchies is not None:
        cfg = dataclasses.replace(cfg, n_hierarchies=n_hierarchies)
    if pc is None:
        if gp is None:
            raise ValueError("need gp or pc")
        pc = partial_cube_labeling(gp)
    rng = make_rng(seed)
    sw = Stopwatch()
    with sw:
        app = build_application_labeling(ga, pc, mu, seed=rng)
        result = _enhance_labeling(ga, app, cfg, rng)
    labeling, history, accepted = result
    mu_before = np.asarray(mu, dtype=np.int64)
    mu_after = labeling.mu()
    dim_p, dim_e = labeling.dim_p, labeling.dim_e
    return TimerResult(
        labeling=labeling,
        mu_before=mu_before,
        mu_after=mu_after,
        coco_before=coco_of_labels(ga, app.labels, dim_p, dim_e),
        coco_after=coco_of_labels(ga, labeling.labels, dim_p, dim_e),
        cut_before=edge_cut(ga, mu_before),
        cut_after=edge_cut(ga, mu_after),
        div_before=div_of_labels(ga, app.labels, dim_p, dim_e),
        div_after=div_of_labels(ga, labeling.labels, dim_p, dim_e),
        hierarchies_accepted=accepted,
        elapsed_seconds=sw.elapsed,
        history=history,
    )


def _enhance_labeling(
    ga: Graph,
    app: ApplicationLabeling,
    cfg: TimerConfig,
    rng: np.random.Generator,
) -> tuple[ApplicationLabeling, list, int]:
    dim = app.dim
    dim_e = app.dim_e
    edges = ga.edge_arrays()
    # The finest level's edge structure is identical in every hierarchy
    # (only the labels are re-permuted), so its CSR is built exactly once
    # per enhance run and handed to each hierarchy's level 1.  Coarser
    # levels differ per hierarchy and cache their own CSR on the Level.
    finest_csr = build_csr(ga.n, *edges)
    current = app.labels.copy()
    current_val = coco_plus(ga, current, app.dim_p, dim_e)
    history: list[float] = []
    accepted = 0
    original_sorted = np.sort(label_sort_keys(app.labels))
    # Selection policy "best_coco": remember the accepted iterate with the
    # lowest Coco (including the start), so the returned mapping never
    # regresses the paper's headline metric even at small N_H.
    best_coco = coco_of_labels(ga, current, app.dim_p, dim_e)
    best_labels = current

    for _ in range(cfg.n_hierarchies):
        if dim < 2:
            history.append(current_val)
            continue
        perm = rng.permutation(dim).astype(np.int64)
        candidate = _one_hierarchy(edges, current, dim, dim_e, perm, cfg, finest_csr)
        cand_val = coco_plus(ga, candidate, app.dim_p, dim_e)
        # Paper line 17: revert only when strictly worse.
        if cand_val <= current_val:
            if cfg.verify_invariants and not np.array_equal(
                np.sort(label_sort_keys(candidate)), original_sorted
            ):
                raise RuntimeError("label multiset changed during a hierarchy")
            current, current_val = candidate, cand_val
            accepted += 1
            cand_coco = coco_of_labels(ga, current, app.dim_p, dim_e)
            if cand_coco < best_coco:
                best_coco, best_labels = cand_coco, current
        history.append(current_val)
    final = best_labels if cfg.selection == "best_coco" else current
    out = app.with_labels(final)
    if cfg.verify_invariants:
        out.check_bijective()
    return out, history, accepted


def _one_hierarchy(
    edges: tuple,
    labels: np.ndarray,
    dim: int,
    dim_e: int,
    perm: np.ndarray,
    cfg: TimerConfig,
    finest_csr: tuple | None = None,
    blocks: bool | None = None,
) -> np.ndarray:
    """Lines 5-16 of Algorithm 1 for one permutation.

    ``blocks`` picks how the levels run: ``True`` solves the greedy
    passes a block of levels at a time (:mod:`repro.core.blocks`),
    ``False`` walks level by level, and ``None`` takes blocks exactly
    when the swaps are greedy and the weights exact
    (:func:`~repro.graphs.graph.exact_weights`).  Both give the same
    labels there; the walk is the only byte-identical path for float
    weights, and the only one for KL swaps.
    """
    plab = permute_bits(labels, perm)
    # Permuted bit j came from original bit perm[j]; original bits >= dim_e
    # belong to the lp part (+1 toward Coco), the rest to le (-1 via Div).
    signs = np.where(perm >= dim_e, 1, -1).astype(np.int64)
    if finest_csr is None:
        finest_csr = build_csr(plab.shape[0], *edges)
    if blocks is None:
        blocks = cfg.swap_strategy == "greedy" and exact_weights(finest_csr[2])
    do_swaps = kl_swap_pass if cfg.swap_strategy == "kl" else swap_pass
    coarsest = cfg.swap_coarsest and dim >= 3
    if blocks:
        top = dim - 1 if coarsest else dim - 2
        hierarchy = BlockHierarchy(finest_csr, plab, signs, cfg.sweeps_per_level, top)
        levels: list[Level | LevelView] = [hierarchy.finest()]
    else:
        levels = [make_finest_level(edges, plab)]
        levels[0].csr = finest_csr
    for i in range(2, dim):  # paper: i = 2 .. dim_Ga - 1
        lev = levels[-1]
        do_swaps(lev, int(signs[i - 2]), sweeps=cfg.sweeps_per_level)
        levels.append(contract_level(lev))
        if not blocks:
            # Assembly reads only labels and parents; the coarsest level
            # keeps its adjacency for the optional swap below.
            lev.edges = lev.csr = None
    if coarsest:
        do_swaps(levels[-1], int(signs[dim - 2]), sweeps=cfg.sweeps_per_level)
    new_plab = assemble(levels, dim)
    return unpermute_bits(new_plab, perm)
