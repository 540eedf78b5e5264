"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit codes: 0 = no findings, 1 = findings, 2 = usage error (e.g.
``--rules`` naming an unregistered rule). The same codes apply when
running a subset via ``--rules rule-a,rule-b``; ``--list-rules`` prints
the registry and exits 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .framework import registered_passes, render_text, run_lint

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="reprolint, static analysis for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files/directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for name, cls in registered_passes().items():
            print(f"{name}: {cls.description}")
        return 0

    rule_names = None
    if args.rules:
        rule_names = [r.strip() for r in args.rules.split(",") if r.strip()]

    try:
        result = run_lint(args.paths, rule_names=rule_names)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(render_text(result))
    return 0 if result.ok else 1
