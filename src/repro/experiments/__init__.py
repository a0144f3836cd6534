"""Experiment harness regenerating every table and figure of the paper.

The harness sits on top of :mod:`repro.api`; the library never imports
it.  The package re-exports nothing: import the submodule you need.

- :mod:`~repro.experiments.topologies` -- the topology sets the sweeps
  run on: the five processor graphs of §7 (2DGrid(16x16), 3DGrid(8x8x8),
  2DTorus(16x16), 3DTorus(8x8x8), 8-dim hypercube), the widened and the
  wide-label sets (builders registered by :mod:`repro.api.topology`).
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
