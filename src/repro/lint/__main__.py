"""Command-line entry point: ``python -m repro.lint [paths]``.

Exit codes follow the usual linter contract:

* ``0`` — all linted files are clean;
* ``1`` — findings were reported;
* ``2`` — usage error (unknown path, unknown rule code, bad flags).

``--project`` enables the phase-2 whole-program pass (FLOW rules over
the project symbol graph); it is implied when ``--select`` names a FLOW
code.  The per-file phase runs every other rule, the DF family included.
``--select``/``--disable`` accept bare family prefixes (``--select DF``
= every DF rule).  Results are served from the content-hash incremental
cache (``.repro-lint-cache.json``) unless ``--no-cache`` is given.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.lint.config import load_pyproject_config
from repro.lint.engine import LintUsageError, Linter
from repro.lint.project import default_project_rules
from repro.lint.reporters import (render_json, render_sarif, render_stats,
                                  render_text)
from repro.lint.rules import default_rules

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Default on-disk location of the incremental cache (git-ignored).
DEFAULT_CACHE = ".repro-lint-cache.json"

#: Directories fed to the project model as reference corpus when found
#: under the repository root (alongside whatever paths were linted).
REFERENCE_DIRS = ("src", "tests", "examples", "benchmarks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism & invariant linter for the "
                    "repro codebase (see docs/static_analysis.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        help="report format (json is stable for CI annotation; sarif is "
             "SARIF 2.1.0 for code-scanning upload)",
    )
    parser.add_argument(
        "--disable", default="",
        help="comma-separated rule codes or family prefixes to turn off "
             "(adds to pyproject)",
    )
    parser.add_argument(
        "--select", default="",
        help="comma-separated rule codes or family prefixes (e.g. DF) to "
             "run exclusively (overrides the pyproject disable list, ruff "
             "semantics)",
    )
    parser.add_argument(
        "--config", default=None, metavar="PYPROJECT",
        help="explicit pyproject.toml (default: search upward from cwd)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject.toml and run with built-in defaults",
    )
    parser.add_argument(
        "--project", action=argparse.BooleanOptionalAction, default=None,
        help="run the whole-program FLOW pass over the project symbol "
             "graph (default: only when --select names a FLOW rule)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-phase timing and cache hit/miss counts to stderr",
    )
    parser.add_argument(
        "--cache", default=DEFAULT_CACHE, metavar="PATH",
        help=f"incremental cache file (default: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the incremental cache entirely",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _discover_reference_roots(paths: list[str]) -> list[Path]:
    """``src``/``tests``/``examples``/``benchmarks`` under the repo root.

    The root is the nearest ancestor of the first path (falling back to
    the working directory) that holds a ``pyproject.toml``; without one
    the project model sees only the linted paths themselves.
    """
    start = Path(paths[0]) if paths else Path.cwd()
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for parent in [start, *start.parents]:
        if (parent / "pyproject.toml").is_file():
            return [parent / name for name in REFERENCE_DIRS
                    if (parent / name).is_dir()]
    return []


def _expand_families(tokens: set[str], known: set[str]) -> set[str]:
    """Expand bare family prefixes (``DF``, ``FLOW``) to their codes."""
    families: dict[str, set[str]] = {}
    for code in known:
        families.setdefault(code.rstrip("0123456789"), set()).add(code)
    expanded: set[str] = set()
    for token in tokens:
        expanded.update(families.get(token, {token}))
    return expanded


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    rules = default_rules()
    project_rules = default_project_rules()
    if args.list_rules:
        for rule in [*rules, *project_rules]:
            print(f"{rule.code}  {rule.name}: {rule.rationale}")
        return EXIT_CLEAN

    known = {rule.code for rule in rules}
    known.update(rule.code for rule in project_rules)
    selected = {c.strip().upper() for c in args.select.split(",") if c.strip()}
    disabled = {c.strip().upper() for c in args.disable.split(",") if c.strip()}
    selected = _expand_families(selected, known)
    disabled = _expand_families(disabled, known)
    unknown = (selected | disabled) - known
    if unknown:
        print(f"error: unknown rule code(s): {sorted(unknown)}",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.no_config:
            from repro.lint.config import RuleConfig

            config = RuleConfig()
        else:
            config = load_pyproject_config(args.config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if selected:
        rules = [rule for rule in rules if rule.code in selected]
        project_rules = [rule for rule in project_rules
                         if rule.code in selected]
        # An explicit --select wins over the pyproject disable list
        # (ruff semantics): lift the selected codes out of `disable` so
        # the Linter does not silently drop them again.
        config = replace(config, disable=config.disable - selected)
    if disabled:
        rules = [rule for rule in rules if rule.code not in disabled]
        project_rules = [rule for rule in project_rules
                         if rule.code not in disabled]

    project = args.project
    if project is None:
        # FLOW findings only materialise in the project phase.
        project = any(code.startswith("FLOW") for code in selected)
    cache_path = None if args.no_cache else args.cache
    reference_roots = _discover_reference_roots(args.paths) if project else ()

    try:
        linter = Linter(config=config, rules=rules,
                        project_rules=project_rules)
        run = linter.run(args.paths, project=project, cache_path=cache_path,
                         reference_roots=reference_roots)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    renderers = {"json": render_json, "sarif": render_sarif,
                 "human": render_text}
    print(renderers[args.format](run.findings, cache=run.cache))
    if args.stats:
        print(render_stats(run), file=sys.stderr)
    return EXIT_FINDINGS if run.findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
