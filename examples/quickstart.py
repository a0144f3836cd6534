#!/usr/bin/env python
"""Quickstart: enhance a mapping of a complex network onto a 2-D grid.

Walks the paper's full pipeline on a small instance through the public
`repro.api` surface:

1. generate an application graph (a clustered power-law network),
2. open a `Topology` session for an 8x8 grid of PEs -- this owns the
   partial-cube labeling (the Figure 3 idea: every PE gets a bitvector
   whose Hamming distances equal hop distances) and shares it across
   every run,
3. assemble a `Pipeline`: balanced k-way partition (3% imbalance, as in
   the paper), IDENTITY initial mapping (case c2), TIMER with 25
   hierarchies,
4. run it and compare Coco (hop-bytes) before and after.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Pipeline, PipelineConfig, TimerConfig, Topology
from repro.graphs import generators as gen
from repro.utils.bitops import label_to_int


def main() -> None:
    # 1. The application: a 1200-vertex scale-free network.  The paper's
    #    whole suite is heavy-tailed complex networks -- these leave the
    #    mapping headroom that TIMER exploits.
    ga = gen.barabasi_albert(1200, 4, seed=42)
    print(f"application graph: {ga.n} tasks, {ga.m} communication pairs")

    # 2. The parallel machine: an 8x8 grid of PEs (a partial cube).
    topology = Topology.from_name("grid8x8")
    pc = topology.labeling
    print(f"processor graph:   {topology.n} PEs, partial-cube dimension {pc.dim}")
    print("PE labels (Hamming distance == hop distance):")
    for pe in range(4):
        print(f"  PE {pe}: {label_to_int(pc.labels, pe):0{pc.dim}b}")

    # 3. The pipeline: partition -> IDENTITY mapping (c2) -> TIMER.
    pipe = Pipeline(
        topology,
        PipelineConfig(
            initial_mapping="c2",
            epsilon=0.03,
            timer=TimerConfig(n_hierarchies=25),
            post_verify=("mapping-valid", "balance-preserved"),
        ),
    )

    # 4. Run and compare.
    result = pipe.run(ga, seed=3)
    print(f"partition:         cut = {result.cut_before:.0f}")
    print(f"initial Coco:      {result.coco_before:.0f}")
    print(f"enhanced Coco:     {result.coco_after:.0f} "
          f"({result.coco_improvement:.1%} better)")
    print(f"edge cut:          {result.cut_before:.0f} -> {result.cut_after:.0f}")
    timer = result.timer
    print(f"accepted:          {timer.hierarchies_accepted}/25 hierarchies; "
          "stage times: "
          + ", ".join(f"{t.stage} {t.seconds:.2f}s" for t in result.stage_timings))
    print(f"provenance:        {result.identity_hash[:16]}...")


if __name__ == "__main__":
    main()
