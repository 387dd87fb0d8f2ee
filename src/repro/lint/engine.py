"""Rule-engine framework: AST dispatch, suppression, file walking.

A :class:`Rule` declares interest in AST node types by defining
``visit_<NodeType>`` methods (the :class:`ast.NodeVisitor` naming
convention).  The :class:`Linter` parses each file once and walks the
tree with a single dispatcher that hands every node to every rule that
subscribed to its type — so adding rules never adds extra tree walks.

Findings a rule reports are filtered through per-line suppression
comments before they reach the caller::

    norm == 0.0  # repro: noqa[COR002] exact zero is intentional here
    anything()   # repro: noqa          (suppresses every rule)

The marker may carry several codes (``noqa[DET001,COR002]``) and any
amount of trailing prose explaining *why* the line is exempt.  Markers
are recognised only in real comment tokens — a string literal that
happens to contain the text does not suppress anything.

Beyond the per-file walk, :meth:`Linter.run` drives the two-phase
whole-program analysis: phase 1 produces per-file findings (the DF
rules included) plus a :class:`~repro.lint.symbols.ModuleSymbols`
table for every module (optionally served from the content-hash cache
in :mod:`repro.lint.cache`); phase 2 assembles the project model and
runs the interprocedural FLOW rules (:mod:`repro.lint.project`).
Reference-corpus files feed phase 2 their symbol tables only.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterable

from repro.lint.config import RuleConfig

#: Matches the suppression marker — bare, or with a [CODE1,CODE2] list.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]*)\])?")

#: Findings for files the linter itself could not process.
PARSE_ERROR_CODE = "E999"


class LintUsageError(Exception):
    """Invalid invocation (unknown rule code, missing path, ...)."""


def _parse_noqa_codes(match: re.Match) -> frozenset[str] | None:
    codes = match.group(1)
    if codes is None:
        return None  # bare noqa: suppresses everything
    return frozenset(c.strip().upper() for c in codes.split(",") if c.strip())


def scan_noqa(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number -> suppressed codes (``None`` = all codes).

    Scans COMMENT tokens only, so a *string literal* containing the
    marker text (fixtures, docs, generated HTML) cannot accidentally
    suppress findings on its line.  Sources that cannot be tokenised
    fall back to a plain line scan — those files fail with ``E999``
    anyway, so precision there does not matter.
    """
    markers: dict[int, frozenset[str] | None] = {}
    if "noqa" not in source:
        return markers  # most files: skip the tokenizer
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is not None:
                markers[token.start[0]] = _parse_noqa_codes(match)
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        markers.clear()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _NOQA_RE.search(text)
            if match is not None:
                markers[lineno] = _parse_noqa_codes(match)
    return markers


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, pinned to a file position."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class Rule:
    """Base class for lint rules.

    Subclasses set the three class attributes and implement one or more
    ``visit_<NodeType>(self, node, ctx)`` handlers.  Handlers report
    violations via ``ctx.report(self, node, message)``; suppression and
    rule-disabling are handled by the engine, not the rule.

    ``visit_FunctionDef`` handlers are automatically also invoked for
    ``ast.AsyncFunctionDef`` nodes.
    """

    #: Stable identifier, e.g. ``"DET001"`` — used in reports, ``noqa``
    #: markers and the ``disable`` config list.
    code: ClassVar[str] = ""
    #: Short human-readable name shown by ``--list-rules``.
    name: ClassVar[str] = ""
    #: One-line rationale shown by ``--list-rules``.
    rationale: ClassVar[str] = ""

    def handlers(self) -> dict[str, Callable]:
        """Map AST node-type name -> bound handler method."""
        table: dict[str, Callable] = {}
        for attr in dir(self):
            if attr.startswith("visit_"):
                table[attr[len("visit_"):]] = getattr(self, attr)
        if "FunctionDef" in table:
            table.setdefault("AsyncFunctionDef", table["FunctionDef"])
        return table


@dataclass
class FileContext:
    """Everything a rule may want to know about the file being linted."""

    path: str
    config: RuleConfig
    source: str
    tree: ast.AST
    findings: list[Finding] = field(default_factory=list)
    #: Findings filtered out by a noqa marker — kept so the project pass
    #: can tell *used* markers from stale ones (FLOW004).
    suppressed_findings: list[Finding] = field(default_factory=list)
    #: Depth of the enclosing function stack at the node being visited
    #: (0 = module scope); maintained by the dispatcher.
    function_depth: int = 0
    #: Facts rules share within the file, keyed by AST node (the DF
    #: rules scan one function's node list, built once).
    memo: dict = field(default_factory=dict)
    _noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)
    #: Path-derived facts, computed once in ``__post_init__`` (rules ask
    #: for them per node):
    posix_path: str = field(init=False, default="")
    #: Path relative to the ``repro`` package root (e.g.
    #: ``core/bandit.py``), or ``""`` if the file is outside it.
    repro_relpath: str = field(init=False, default="")
    #: First-level subpackage under ``repro`` (``"core"``, ...), or
    #: ``""`` for root modules and files outside the package.
    package: str = field(init=False, default="")
    _is_test: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self._noqa = scan_noqa(self.source)
        path = Path(self.path)
        self.posix_path = posix = path.as_posix()
        parts = path.parts
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            self.repro_relpath = "/".join(parts[index + 1:])
        if "/" in self.repro_relpath:
            self.package = self.repro_relpath.split("/", 1)[0]
        self._is_test = (
            path.name.startswith("test_")
            or path.name.endswith("_test.py")
            or "/tests/" in posix
            or "/benchmarks/" in posix
        )

    def in_function(self) -> bool:
        return self.function_depth > 0

    def is_test_file(self) -> bool:
        return self._is_test

    # -- reporting -------------------------------------------------------

    def suppressed(self, code: str, line: int) -> bool:
        if line not in self._noqa:
            return False
        codes = self._noqa[line]
        return codes is None or code in codes

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        finding = Finding(path=self.path, line=line, col=col, rule=rule.code,
                          message=message)
        if self.suppressed(rule.code, line):
            self.suppressed_findings.append(finding)
        else:
            self.findings.append(finding)


class _Dispatcher(ast.NodeVisitor):
    """Single tree walk that fans each node out to subscribed rules."""

    def __init__(
        self, handlers: dict[str, list[Callable]], ctx: FileContext
    ) -> None:
        self._handlers = handlers
        self._ctx = ctx

    def visit(self, node: ast.AST) -> None:
        for handler in self._handlers.get(type(node).__name__, ()):
            handler(node, self._ctx)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._ctx.function_depth += 1
            self.generic_visit(node)
            self._ctx.function_depth -= 1
        else:
            self.generic_visit(node)


@dataclass
class LintRun:
    """Result of one :meth:`Linter.run` invocation."""

    findings: list[Finding]
    cache: "CacheStats"
    project: bool
    files: int
    #: Wall seconds per phase; populated by :meth:`Linter.run` for
    #: ``--stats``.
    timings: dict[str, float] = field(default_factory=dict)


class Linter:
    """Run a rule set over source strings, files or directory trees."""

    def __init__(
        self,
        config: RuleConfig | None = None,
        rules: Iterable[Rule] | None = None,
        project_rules: "Iterable | None" = None,
    ) -> None:
        from repro.lint.project import default_project_rules
        from repro.lint.rules import default_rules

        self.config = config or RuleConfig()
        all_rules = list(rules) if rules is not None else default_rules()
        all_project = (list(project_rules) if project_rules is not None
                       else default_project_rules())
        known = {rule.code for rule in all_rules}
        known.update(rule.code for rule in all_project)
        known.update(rule.code for rule in default_rules())
        known.update(rule.code for rule in default_project_rules())
        unknown = set(self.config.disable) - known
        if unknown:
            raise LintUsageError(
                f"unknown rule code(s) in disable list: {sorted(unknown)}"
            )
        self._known = frozenset(known)
        self.rules = [r for r in all_rules if r.code not in self.config.disable]
        self.project_rules = [r for r in all_project
                              if r.code not in self.config.disable]
        self._handlers: dict[str, list[Callable]] = {}
        for rule in self.rules:
            for node_type, handler in rule.handlers().items():
                self._handlers.setdefault(node_type, []).append(handler)

    # -- phase 1: per-file analysis --------------------------------------

    def _analyze(self, source: str, path: str, sha: str = "",
                 symbols_only: bool = False):
        """Full per-file result: findings, suppressed findings, symbols.

        Returns a :class:`repro.lint.cache.CachedFile` — the unit both
        the incremental cache and the project pass consume.  With
        ``symbols_only`` (reference-corpus files, never linted) no rule
        runs: the entry carries the symbol table alone and is marked so it can never serve a linted file.
        """
        from repro.lint.cache import CachedFile
        from repro.lint.symbols import extract_symbols

        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            finding = Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_ERROR_CODE,
                message=f"could not parse file: {exc.msg}",
            )
            return CachedFile(sha=sha, findings=[finding], suppressed=[],
                              symbols=None, noqa=scan_noqa(source))
        if symbols_only:
            return CachedFile(sha=sha, findings=[], suppressed=[],
                              symbols=extract_symbols(tree, path), noqa={},
                              symbols_only=True)
        ctx = FileContext(path=path, config=self.config, source=source,
                          tree=tree)
        _Dispatcher(self._handlers, ctx).visit(tree)
        return CachedFile(
            sha=sha,
            findings=sorted(ctx.findings),
            suppressed=sorted(ctx.suppressed_findings),
            symbols=extract_symbols(tree, path),
            noqa=dict(ctx._noqa),
        )

    # -- entry points ----------------------------------------------------

    def check_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one source string; ``path`` drives path-sensitive rules."""
        return self._analyze(source, path).findings

    def check_file(self, path: str | Path) -> list[Finding]:
        text = Path(path).read_text(encoding="utf-8")
        return self.check_source(text, path=str(path))

    def _collect_files(self, paths: Iterable[str | Path]) -> list[Path]:
        """Expand files/directories into a deduplicated ``*.py`` list.

        Overlapping inputs (``src src/repro``) or the same file named
        twice resolve to a single entry, so nothing is linted twice.
        """
        seen: set[Path] = set()
        files: list[Path] = []
        for path in paths:
            path = Path(path)
            if not path.exists():
                raise LintUsageError(f"no such file or directory: {path}")
            candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for file in candidates:
                if self.config.is_excluded(file.as_posix()):
                    continue
                resolved = file.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                files.append(file)
        return files

    def check_paths(self, paths: Iterable[str | Path]) -> list[Finding]:
        """Lint files and (recursively) directories of ``*.py`` files."""
        return sorted(
            finding
            for file in self._collect_files(paths)
            for finding in self.check_file(file)
        )

    # -- phase 2: whole-program run --------------------------------------

    def _cache_key(self) -> str:
        from repro.lint.config import config_digest
        from repro.lint.rules import RULESET_VERSION

        codes = sorted({r.code for r in self.rules}
                       | {r.code for r in self.project_rules})
        return "|".join([RULESET_VERSION, ",".join(codes),
                         config_digest(self.config)])

    def run(
        self,
        paths: Iterable[str | Path],
        *,
        project: bool = False,
        cache_path: str | Path | None = None,
        reference_roots: Iterable[str | Path] = (),
    ) -> LintRun:
        """The two-phase analysis: per-file rules, then (with
        ``project``) the project-wide FLOW rules.

        ``reference_roots`` name directories whose files feed the
        project model (symbol tables, reference corpus) without being
        linted themselves — findings only ever anchor inside ``paths``,
        and reference files are parsed for their symbols only.
        With ``cache_path`` set, unchanged files are served from the
        content-hash cache and cost one SHA-256 instead of a parse.
        """
        from repro.lint.cache import CacheStats, LintCache, content_sha

        main_files = self._collect_files(paths)
        stats = CacheStats(enabled=cache_path is not None)
        cache = (LintCache(cache_path, key=self._cache_key())
                 if cache_path is not None else None)
        phase_started = time.perf_counter()

        def analyze_file(file: Path, symbols_only: bool = False):
            data = file.read_bytes()
            sha = content_sha(data)
            path_str = str(file)
            stats.files += 1
            if cache is not None:
                hit = cache.get(path_str, sha, symbols_only=symbols_only)
                if hit is not None:
                    stats.hits += 1
                    return hit
                stats.misses += 1
            result = self._analyze(data.decode("utf-8"), path_str, sha,
                                   symbols_only=symbols_only)
            if cache is not None:
                cache.put(path_str, result)
            return result

        results = {str(file): analyze_file(file) for file in main_files}
        findings = [f for result in results.values()
                    for f in result.findings]
        per_file_seconds = time.perf_counter() - phase_started

        project_seconds = 0.0
        if project:
            phase_started = time.perf_counter()
            findings.extend(self._run_project_phase(
                main_files, results, reference_roots, analyze_file,
            ))
            project_seconds = time.perf_counter() - phase_started
        if cache is not None:
            cache.save()
        timings = {"per_file": per_file_seconds, "project": project_seconds}
        return LintRun(findings=sorted(findings), cache=stats,
                       project=project, files=len(results),
                       timings=timings)

    def _run_project_phase(
        self,
        main_files: list[Path],
        results: dict,
        reference_roots: Iterable[str | Path],
        analyze_file: Callable,
    ) -> list[Finding]:
        from repro.lint.project import UnusedNoqaRule, build_project

        seen = {file.resolve() for file in main_files}
        reference_files: list[Path] = []
        for root in reference_roots:
            root = Path(root)
            if not root.exists():
                continue
            candidates = sorted(root.rglob("*.py")) if root.is_dir() else [root]
            for file in candidates:
                if self.config.is_excluded(file.as_posix()):
                    continue
                resolved = file.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                reference_files.append(file)
        reference_results = [analyze_file(file, symbols_only=True)
                             for file in reference_files]

        all_results = [*results.values(), *reference_results]
        symbols = [r.symbols for r in all_results if r.symbols is not None]
        noqa = {path: result.noqa for path, result in results.items()}
        suppressed: dict[str, dict[int, set[str]]] = {}
        for path, result in results.items():
            for finding in result.suppressed:
                suppressed.setdefault(path, {}).setdefault(
                    finding.line, set()
                ).add(finding.rule)

        model = build_project(symbols, linted_paths=results.keys(),
                              noqa=noqa, suppressed=suppressed)
        # FLOW004 judges a marker only by codes that ran, or that the
        # config turned off (a marker for a disabled rule is stale).
        judged = ({r.code for r in self.rules}
                  | {r.code for r in self.project_rules}
                  | self.config.disable)
        if not self._known <= judged:
            model.judged_codes = frozenset(judged)

        findings: list[Finding] = []
        deferred = [r for r in self.project_rules
                    if isinstance(r, UnusedNoqaRule)]
        checks = [rule.check for rule in self.project_rules
                  if not isinstance(rule, UnusedNoqaRule)]
        for check in checks:
            for finding in check(model, self.config):
                codes = noqa.get(finding.path, {}).get(finding.line, False)
                if codes is False:
                    findings.append(finding)
                elif codes is None or finding.rule in codes:
                    model.record_suppressed(finding)
                else:
                    findings.append(finding)
        for rule in deferred:
            findings.extend(rule.check(model, self.config))
        return findings
