"""Finding reporters: human-readable text and CI-consumable JSON."""

from __future__ import annotations

import json
from collections import Counter
from typing import TYPE_CHECKING, Iterable

from repro.lint.engine import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.cache import CacheStats
    from repro.lint.engine import LintRun


def finding_category(rule: str) -> str:
    """Rule-family prefix of a code: ``DET001`` -> ``DET``, ``E999`` ->
    ``E``.  Stable across releases — CI dashboards group on it."""
    return rule.rstrip("0123456789")


def _cache_line(cache: "CacheStats") -> str:
    if not cache.enabled:
        return "cache: disabled"
    return (f"cache: {cache.files} files, {cache.hits} hits, "
            f"{cache.misses} misses")


def render_text(
    findings: Iterable[Finding], cache: "CacheStats | None" = None
) -> str:
    """``path:line:col: CODE message`` per finding plus a summary line."""
    findings = list(findings)
    lines = [
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in findings
    ]
    if not findings:
        lines.append("repro.lint: clean (0 findings)")
    else:
        by_rule = Counter(finding.rule for finding in findings)
        breakdown = ", ".join(
            f"{rule} x{count}" for rule, count in sorted(by_rule.items())
        )
        lines.append(
            f"repro.lint: {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} ({breakdown})"
        )
    if cache is not None and cache.enabled:
        lines.append(_cache_line(cache))
    return "\n".join(lines)


def render_json(
    findings: Iterable[Finding], cache: "CacheStats | None" = None
) -> str:
    """Stable JSON document for CI annotation tooling.

    The ``cache`` key carries the incremental-cache statistics of the
    run (``{"enabled", "files", "hits", "misses"}``) so CI can assert
    warm runs really are warm; it is ``null`` for cache-less calls.

    Each finding carries a ``category`` (its rule-family prefix: DET /
    COR / API / FLOW / DF) and the list is sorted by (path, line, col,
    rule, message) regardless of input order, so two runs over the same
    tree produce byte-identical reports.
    """
    findings = sorted(findings)
    document = {
        "tool": "repro.lint",
        "count": len(findings),
        "findings": [
            {**finding.to_dict(), "category": finding_category(finding.rule)}
            for finding in findings
        ],
        "cache": cache.to_dict() if cache is not None else None,
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_sarif(
    findings: Iterable[Finding], cache: "CacheStats | None" = None
) -> str:
    """SARIF 2.1.0 document for GitHub code-scanning annotations.

    One run, one driver (``repro.lint``), the full default rule
    catalogue under ``tool.driver.rules`` and one ``result`` per
    finding.  Region columns are 1-based per the SARIF spec (findings
    store 0-based AST offsets).  ``cache`` is accepted for renderer
    interface parity and ignored — cache statistics are not part of the
    SARIF data model.
    """
    del cache
    from repro.lint.project import default_project_rules
    from repro.lint.rules import RULESET_VERSION, default_rules

    catalogue = [*default_rules(), *default_project_rules()]
    sarif_rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.rationale},
        }
        for rule in catalogue
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in sorted(findings)
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "version": RULESET_VERSION,
                        "rules": sarif_rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_stats(run: "LintRun") -> str:
    """Per-phase timing + cache accounting for ``--stats`` (stderr)."""
    timings = run.timings or {}
    per_file = timings.get("per_file", 0.0)
    project = timings.get("project", 0.0)
    lines = [f"phase per-file: {per_file:.3f}s ({run.files} files)"]
    if run.project:
        lines.append(f"phase project: {project:.3f}s")
    lines.append(_cache_line(run.cache))
    return "\n".join(lines)
