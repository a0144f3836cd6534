"""Experiment harness regenerating every table and figure of the paper.

- :mod:`~repro.experiments.topologies` -- the five processor graphs of §7
  (2DGrid(16x16), 3DGrid(8x8x8), 2DTorus(16x16), 3DTorus(8x8x8), 8-dim
  hypercube) plus small variants for tests.
- :mod:`~repro.experiments.instances` -- synthetic stand-ins for the 15
  complex networks of Table 1.
- :mod:`~repro.experiments.cases` -- experimental cases c1..c4 (initial
  mapping algorithms).
- :mod:`~repro.experiments.metrics` -- the min/mean/max quotient and
  geometric-mean machinery of §7.1.
- :mod:`~repro.experiments.runner` -- the parallel, resumable factorial
  driver (deterministic per-cell seeding; ``jobs=N`` == ``jobs=1``).
- :mod:`~repro.experiments.store` -- content-addressed on-disk cell
  records backing ``--resume``.
- :mod:`~repro.experiments.matrix` -- declarative TOML/JSON scenario
  matrices (builtin: ``paper``, ``widened``, ``smoke``).
- :mod:`~repro.experiments.reporting` -- text/CSV rendering of Table 1/2/3
  and the Figure 5 series.
- ``python -m repro.experiments`` -- command line entry point.
"""

from repro.experiments.topologies import (
    PAPER_TOPOLOGIES,
    WIDENED_TOPOLOGIES,
    make_topology,
    topology_names,
)
from repro.experiments.instances import (
    INSTANCES,
    InstanceSpec,
    generate_instance,
    instance_names,
)
from repro.experiments.cases import CASES, run_case
from repro.experiments.metrics import (
    MinMeanMax,
    QuotientSummary,
    geometric_mean,
    geometric_std,
    summarize_cell,
)
from repro.experiments.runner import (
    CellResult,
    ExperimentConfig,
    cell_identity,
    run_experiment,
)
from repro.experiments.store import ArtifactStore, cell_key
from repro.experiments.matrix import Scenario, get_scenario, load_matrix
from repro.experiments.claims import ClaimCheck, validate_paper_claims, render_claims

__all__ = [
    "PAPER_TOPOLOGIES",
    "WIDENED_TOPOLOGIES",
    "make_topology",
    "topology_names",
    "INSTANCES",
    "InstanceSpec",
    "generate_instance",
    "instance_names",
    "CASES",
    "run_case",
    "MinMeanMax",
    "QuotientSummary",
    "geometric_mean",
    "geometric_std",
    "summarize_cell",
    "ExperimentConfig",
    "run_experiment",
    "cell_identity",
    "CellResult",
    "ArtifactStore",
    "cell_key",
    "Scenario",
    "get_scenario",
    "load_matrix",
    "ClaimCheck",
    "validate_paper_claims",
    "render_claims",
]
