"""Argument parsing shared by ``python -m repro.analysis`` and ``repro lint``.

Exit status: 0 when every finding is suppressed-with-reason, 1 when any
active finding remains, 2 on usage errors.  ``--format json`` emits the
full structured report (CI uploads it as an artifact); text mode prints
``file:line:col: RULE message`` plus a fix hint per finding.
"""

from __future__ import annotations

import argparse


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags (shared with the ``repro lint`` subcommand)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed ``args``."""
    # Imported here so building ``repro``'s parser never loads the engine.
    from repro.analysis.engine import lint_paths, render_json, render_text
    from repro.analysis.rules import default_rules

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  {rule.title}")
        return 0
    report = lint_paths(args.paths)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST lint enforcing the repo's determinism, "
        "backend-dispatch and serve-hygiene contracts",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
