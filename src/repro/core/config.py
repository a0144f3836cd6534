"""Configuration for the TIMER enhancer."""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TimerConfig:
    """Tunable knobs of Algorithm 1.

    Attributes
    ----------
    n_hierarchies:
        the paper's ``N_H``: number of random bit-permutation hierarchies
        tried.  Quality/runtime trade-off; the paper uses 50 and notes 10
        already captures most of the gain.
    sweeps_per_level:
        how many greedy passes over the sibling pairs per hierarchy level.
        The paper does a single pass; values > 1 iterate until stable or
        the budget is exhausted (extension; see the ablation bench).
    swap_coarsest:
        also run a swap pass on the coarsest level (width-2 labels).  The
        paper's loop skips it; enabling is a cheap extension.
    verify_invariants:
        re-check label bijectivity and multiset preservation after every
        hierarchy (cheap; leave on outside of benchmarking).
    selection:
        which accepted iterate to return.  ``"best_coco"`` (default)
        returns the labeling with the lowest Coco among the initial state
        and all accepted hierarchies, guaranteeing the enhanced mapping is
        never worse in the paper's headline metric; ``"last"`` returns the
        final iterate exactly as Algorithm 1 is written.  The two differ
        only at small ``N_H``, where the Div term of ``Coco+`` can
        transiently trade Coco upward (see DESIGN.md).
    swap_strategy:
        local search used on every hierarchy level.  ``"greedy"`` (default)
        is the paper's single-pass hill climbing over sibling pairs;
        ``"kl"`` is the Kernighan-Lin-style sequence-with-rollback the
        paper's conclusion proposes as future work (more powerful, slower).
    """

    n_hierarchies: int = 50
    sweeps_per_level: int = 1
    swap_coarsest: bool = False
    verify_invariants: bool = True
    selection: str = "best_coco"
    swap_strategy: str = "greedy"

    def __post_init__(self) -> None:
        if self.n_hierarchies < 0:
            raise ConfigurationError(f"n_hierarchies must be >= 0, got {self.n_hierarchies}")
        if self.sweeps_per_level < 1:
            raise ConfigurationError(f"sweeps_per_level must be >= 1, got {self.sweeps_per_level}")
        if self.selection not in ("best_coco", "last"):
            raise ConfigurationError(
                f"selection must be 'best_coco' or 'last', got {self.selection!r}"
            )
        if self.swap_strategy not in ("greedy", "kl"):
            # Echoed bounded: a served config carries the client's string.
            raise ConfigurationError(
                f"swap_strategy must be 'greedy' or 'kl', got {reprlib.repr(self.swap_strategy)}"
            )
