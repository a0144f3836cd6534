"""repro: a full reproduction of *Topology-induced Enhancement of Mappings*.

Paper: Roland Glantz, Maria Predari, Henning Meyerhenke,
ICPP 2018 (arXiv:1804.07131).

The package implements the paper's primary contribution -- the **TIMER**
multi-hierarchical mapping enhancer for processor graphs that are partial
cubes -- together with every substrate it depends on:

- a static CSR graph type and generators (grids, tori, hypercubes, trees,
  complex-network models),
- partial-cube recognition and Hamming labelings (Djokovic relation),
- a multilevel k-way graph partitioner (KaHIP stand-in),
- initial mapping algorithms (identity, greedy construction heuristics,
  dual recursive bipartitioning as a SCOTCH stand-in),
- the staged :mod:`repro.api` pipeline -- one registry-driven path shared
  by the CLI, the library and the experiment harness,
- the experiment harness regenerating every table and figure of the paper
  (:mod:`repro.experiments`, imported on demand: the library never loads
  it).

Quickstart
----------
The public entry point is the pipeline: bind a topology session (the
processor graph plus its cached partial-cube labeling) to a staged
configuration, then stream application graphs through it.

>>> from repro import Pipeline, PipelineConfig, TimerConfig, graphs
>>> pipe = Pipeline("grid4x4", PipelineConfig(
...     initial_mapping="c2", timer=TimerConfig(n_hierarchies=4)))
>>> ga = graphs.generators.barabasi_albert(512, 4, seed=1)
>>> result = pipe.run(ga, seed=1)
>>> result.coco_after <= result.coco_before
True
>>> [t.stage for t in result.stage_timings]
['partition', 'initial_mapping', 'enhance']

``pipe.run_batch(graphs)`` amortizes the topology's recognition,
labeling and distance caches across many graphs -- the serving shape.
Strategies (partitioners, initial mappings, enhancers, topologies) are
pluggable values in :data:`repro.api.REGISTRY`.
"""

from repro._version import __version__
from repro import graphs, partialcube, partitioning, mapping, core
from repro.core.enhancer import timer_enhance, TimerResult
from repro.core.config import TimerConfig
from repro import api
from repro.api.registry import REGISTRY, Registry
from repro.api.pipeline import Pipeline, PipelineConfig, PipelineResult
from repro.api.topology import Topology

__all__ = [
    "__version__",
    "graphs",
    "partialcube",
    "partitioning",
    "mapping",
    "core",
    "api",
    "REGISTRY",
    "Registry",
    "Pipeline",
    "PipelineConfig",
    "PipelineResult",
    "Topology",
    "timer_enhance",
    "TimerResult",
    "TimerConfig",
]
