"""The pre-PR check: linter + documentation gates in one command.

Runs, in order, from the repository root::

    python -m repro.lint --project src   # two-phase whole-program lint
    python -m pytest tests/test_docs.py tests/test_obs_events.py
                                      # doc gates: README/API/observability
                                      # contracts hold as written

Invoke as ``python -m repro.precheck`` (or the ``repro-precheck``
console script when the package is installed).  Exit code is 0 only
when every step passes — the same gate CI applies, runnable locally
before opening a PR (documented in docs/static_analysis.md).

``--ci`` switches to machine-readable mode: child output still streams
through, but the final line on stdout is a single JSON object
summarising every check (``{"ok": ..., "checks": [...]}``) for the CI
workflow (``.github/workflows/ci.yml``) to parse, and the exit code is
non-zero iff any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

#: (description, argv) pairs run relative to the repository root.
#: The lint step runs both phases (per-file rules, the DF family
#: included, and --project: FLOW rules over the project symbol graph)
#: and is served by the incremental cache, so warm re-runs cost
#: milliseconds.
CHECKS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("determinism & invariant lint", ("-m", "repro.lint", "--project", "src")),
    (
        "documentation gates",
        ("-m", "pytest", "-q", "tests/test_docs.py", "tests/test_obs_events.py"),
    ),
)


def repo_root() -> Path:
    """The checkout root: the directory holding ``src/`` and ``tests/``.

    Derived from this file's location (``<root>/src/repro/precheck.py``),
    so the command works from any working directory inside the repo.
    """
    return Path(__file__).resolve().parent.parent.parent


def build_commands(python: str | None = None) -> list[tuple[str, list[str]]]:
    """The concrete command lines (for display and for tests)."""
    interpreter = python if python is not None else sys.executable
    return [(label, [interpreter, *argv]) for label, argv in CHECKS]


def run_checks(root: Path) -> list[dict[str, object]]:
    """Run every check from ``root``; one result record per check.

    Each record is JSON-ready: ``{"name", "command", "returncode",
    "ok"}``.  Child stdout/stderr stream through untouched.
    """
    env = dict(os.environ)
    src = str(root / "src")
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    records: list[dict[str, object]] = []
    for label, command in build_commands():
        print(f"== {label}: {' '.join(command[1:])}")
        result = subprocess.run(command, cwd=root, env=env)
        ok = result.returncode == 0
        print(f"== {label}: {'ok' if ok else f'FAILED (exit {result.returncode})'}")
        records.append(
            {
                "name": label,
                "command": command,
                "returncode": result.returncode,
                "ok": ok,
            }
        )
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.precheck",
        description="Run the pre-PR gate: whole-program lint + doc gates.",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="emit a machine-readable JSON summary as the last stdout "
        "line and exit non-zero iff any check failed",
    )
    args = parser.parse_args(argv)
    root = repo_root()
    if not (root / "src").is_dir() or not (root / "tests").is_dir():
        print(
            f"repro.precheck: {root} does not look like the repository "
            "root (need src/ and tests/); run from a source checkout",
            file=sys.stderr,
        )
        if args.ci:
            print(json.dumps({"ok": False, "checks": [], "error": "not-a-checkout"}))
        return 2
    records = run_checks(root)
    failures = sum(1 for record in records if not record["ok"])
    if args.ci:
        print(json.dumps({"ok": failures == 0, "checks": records}))
        return 1 if failures else 0
    if failures:
        print(f"repro.precheck: {failures} of {len(CHECKS)} checks failed")
        return 1
    print("repro.precheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
