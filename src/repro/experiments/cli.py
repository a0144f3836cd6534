"""Command line interface: ``python -m repro.experiments <artifact>``.

Artifacts: ``table1``, ``table2``, ``table3``, ``fig5`` (all four cases),
``all`` (everything + summary), ``csv`` (raw runs), ``json``
(machine-readable aggregate), ``sweep`` (run + provenance report, the
entry point for populating an artifact store), ``gc`` (prune store
records whose code/schema versions no longer match; ``--dry-run`` to
preview).

The sweep shape resolves in three layers, later wins:

1. :class:`~repro.experiments.runner.ExperimentConfig` defaults,
2. a named scenario (``--scenario``, optionally from a ``--matrix``
   TOML/JSON file; builtins: ``paper``, ``widened``, ``smoke``),
3. explicit sizing flags (``--reps``, ``--nh``, ...).

Orchestration knobs: ``--jobs N`` runs cells on ``N`` worker processes
(byte-identical to ``--jobs 1``); ``--store DIR`` persists each completed
cell; ``--resume`` (requires a store) skips cells already on disk.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.experiments.instances import instance_names
from repro.experiments.matrix import get_scenario
from repro.experiments.reporting import (
    render_fig5,
    render_json,
    render_provenance,
    render_summary,
    render_table1,
    render_table2,
    render_table3,
    to_csv,
)
from repro.experiments.runner import ExperimentConfig, run_experiment

ARTIFACTS = (
    "table1", "table2", "table3", "fig5", "all", "csv", "json", "sweep", "gc",
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    p.add_argument(
        "artifact",
        choices=list(ARTIFACTS),
        help="which artifact to regenerate",
    )
    p.add_argument("--instances", nargs="*", default=None,
                   help=f"instance subset (default: all 15); known: {', '.join(instance_names())}")
    p.add_argument("--topologies", nargs="*", default=None,
                   help="topology subset (default: the paper's five)")
    p.add_argument("--cases", nargs="*", default=None,
                   help="case subset (default: c1 c2 c3 c4)")
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions per cell (default 3; paper: 5)")
    p.add_argument("--nh", type=int, default=None,
                   help="TIMER hierarchies (default 8; paper: 50)")
    p.add_argument("--divisor", type=int, default=None,
                   help="instance size divisor vs the paper (default 64)")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--matrix", type=str, default=None,
                   help="TOML/JSON scenario-matrix file (see docs/experiments.md)")
    p.add_argument("--scenario", type=str, default=None,
                   help="scenario name from --matrix or the builtins "
                        "(paper, widened, smoke)")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes (results are identical for any value)")
    p.add_argument("--store", type=str, default=None,
                   help="artifact-store directory; every completed cell is "
                        "persisted there as one JSON file")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already present in --store")
    p.add_argument("--dry-run", action="store_true",
                   help="gc only: report stale records without deleting")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", type=str, default=None, help="write to file instead of stdout")
    return p


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Layer scenario and explicit flags over the defaults."""
    if args.matrix and not args.scenario:
        raise SystemExit("--matrix requires --scenario <name>")
    if args.scenario:
        base = get_scenario(args.scenario, args.matrix).config
    else:
        base = ExperimentConfig()
    overrides: dict = {}
    for flag, field_name in (
        ("instances", "instances"),
        ("topologies", "topologies"),
        ("cases", "cases"),
        ("reps", "repetitions"),
        ("nh", "n_hierarchies"),
        ("divisor", "divisor"),
        ("n_max", "n_max"),
        ("seed", "seed"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field_name] = (
                tuple(value) if field_name in ("instances", "topologies", "cases")
                else value
            )
    if args.verbose:
        overrides["verbose"] = True
    return replace(base, **overrides)


def run_gc(args) -> int:
    """The ``gc`` artifact: prune version-mismatched store records."""
    from pathlib import Path

    from repro._version import __version__
    from repro.experiments.store import ArtifactStore

    if not args.store:
        raise SystemExit("gc requires --store DIR")
    if not Path(args.store).is_dir():
        # ArtifactStore would silently mkdir; for gc a missing store is
        # always a typo, not a request to create an empty one.
        raise SystemExit(f"gc: store directory {args.store!r} does not exist")
    report = ArtifactStore(args.store).prune(
        code=__version__, dry_run=args.dry_run
    )
    text = report.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.resume and not args.store:
        raise SystemExit("--resume requires --store DIR")
    if args.artifact == "gc":
        return run_gc(args)
    config = resolve_config(args)
    chunks: list[str] = []
    if args.artifact == "table1":
        chunks.append(render_table1(divisor=config.divisor, seed=config.seed))
    else:
        result = run_experiment(
            config, jobs=args.jobs, store=args.store, resume=args.resume,
        )
        if args.artifact in ("table2", "all"):
            chunks.append(render_table2(result))
        if args.artifact in ("table3", "all"):
            chunks.append(render_table3(result))
        if args.artifact in ("fig5", "all"):
            from repro.experiments.ascii_chart import render_fig5_chart

            for case in config.cases:
                chunks.append(render_fig5(result, case))
                chunks.append(render_fig5_chart(result, case))
        if args.artifact == "all":
            chunks.append(render_summary(result))
            from repro.experiments.claims import render_claims, validate_paper_claims

            chunks.append(render_claims(validate_paper_claims(result)))
        if args.artifact == "csv":
            chunks.append(to_csv(result))
        if args.artifact == "json":
            chunks.append(render_json(result))
        if args.artifact == "sweep":
            chunks.append(render_provenance(result, store=args.store))
            chunks.append(render_summary(result))
    text = "\n".join(chunks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
