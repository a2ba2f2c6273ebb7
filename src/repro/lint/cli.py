"""Command-line front end: ``python -m repro.lint`` / ``repro lint``.

Usage::

    python -m repro.lint src/ tests/
    python -m repro.lint --format json src/repro/dp/
    python -m repro.lint --select DP001,RNG001 src/
    python -m repro.lint --list-rules

Exit codes: 0 — clean; 1 — findings; 2 — usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.lint.config import load_config
from repro.lint.engine import run_lint
from repro.lint.registry import create_rules, registered_rule_ids
from repro.lint.reporters import REPORTERS, render

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based DP-hygiene and numerics linter for this repo",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: configured include "
        "paths, normally src/ and tests/)",
    )
    parser.add_argument(
        "--format",
        choices=REPORTERS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="comma-separated rule ids to run (repeatable; default: all "
        "enabled rules)",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        help="explicit pyproject.toml (default: nearest one above the cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    return parser


def _selected_rules(select: list[str] | None) -> list[str] | None:
    if not select:
        return None
    rule_ids: list[str] = []
    for chunk in select:
        rule_ids.extend(
            part.strip().upper() for part in chunk.split(",") if part.strip()
        )
    known = set(registered_rule_ids())
    unknown = sorted(set(rule_ids) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown rule id(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return rule_ids


def _print_rules() -> None:
    for rule in create_rules():
        print(f"{rule.id}  {rule.title}")
        print(f"       {rule.rationale}")
        if rule.default_allow:
            print(f"       allowed in: {', '.join(rule.default_allow)}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rules()
        return EXIT_CLEAN
    try:
        enable = _selected_rules(args.select)
        config = load_config(
            explicit=Path(args.config) if args.config else None
        )
        paths = [Path(p) for p in args.paths] if args.paths else None
        result = run_lint(paths, config=config, enable=enable)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    print(render(result, args.format))
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


__all__ = ["EXIT_CLEAN", "EXIT_ERROR", "EXIT_FINDINGS", "build_parser", "main"]
