"""``repro.lint`` — AST-based determinism & invariant linter.

The reproduction's claims (Tables 1-7, Figures 4/5/15) are only
trustworthy if every stochastic component threads explicit seeds through
``repro.utils.rng`` instead of reaching for global randomness or
wall-clock time.  This package enforces that convention — plus a handful
of correctness and layering invariants — as a static-analysis pass over
the repo's own Python AST.

Run it as a command::

    python -m repro.lint src/repro            # human-readable report
    python -m repro.lint --format json src    # machine-readable (CI)

or programmatically::

    from repro.lint import Linter, RuleConfig

    findings = Linter(RuleConfig()).check_paths(["src/repro"])

``tests/test_lint_self.py`` runs the full rule set over ``src/repro``
and asserts zero findings, so violations cannot creep in under refactor
pressure.  See ``docs/static_analysis.md`` for the rule catalogue.
"""

from repro.lint.cache import CacheStats, LintCache
from repro.lint.config import RuleConfig, load_pyproject_config
from repro.lint.engine import (Finding, LintRun, LintUsageError, Linter,
                               Rule, scan_noqa)
from repro.lint.project import (ProjectModel, ProjectRule, build_project,
                                default_project_rules)
from repro.lint.reporters import (render_json, render_sarif, render_stats,
                                  render_text)
from repro.lint.rules import default_rules
from repro.lint.symbols import ModuleSymbols, extract_symbols

__all__ = [
    "CacheStats",
    "Finding",
    "LintCache",
    "LintRun",
    "LintUsageError",
    "Linter",
    "ModuleSymbols",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "RuleConfig",
    "build_project",
    "default_project_rules",
    "default_rules",
    "extract_symbols",
    "load_pyproject_config",
    "render_json",
    "render_sarif",
    "render_stats",
    "render_text",
    "scan_noqa",
]
