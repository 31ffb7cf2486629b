"""`python -m repro lint` — the reprolint command-line front end.

Exit codes: 0 (clean), 1 (findings), 2 (usage/IO error).

Building the parser imports nothing but this module: the engine and
its rules load inside :func:`run`, so ``python -m repro train`` (whose
parser embeds this one) never pays for the linter.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]

DEFAULT_PATHS = ("src", "tests")


def build_parser(parser: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    """The lint argument parser (embeddable as a ``repro`` subcommand)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="python -m repro lint",
            description="reprolint: enforce the reproduction's correctness invariants",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is what CI consumes)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation."""
    from .engine import lint_paths
    from .reporters import render_json, render_text
    from .rules import rule_table

    if args.list_rules:
        for code, name, description in rule_table():
            print(f"{code}  {name:24s} {description}")
        return 0
    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as error:
        print(f"reprolint: error: {error}")
        return 2
    render = render_json if args.format == "json" else render_text
    print(render(findings))
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
