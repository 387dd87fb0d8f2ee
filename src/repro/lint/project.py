"""Phase 2 of the whole-program analysis: project model + FLOW rules.

Phase 1 (the per-file walk in :mod:`repro.lint.engine`) produces one
:class:`~repro.lint.symbols.ModuleSymbols` per module.  This module
assembles them into a :class:`ProjectModel` — an import graph and an
approximate (name-resolved) call graph spanning ``src/repro`` plus the
reference corpus (``tests/``, ``examples/``, ``benchmarks/``) — and
runs the interprocedural **FLOW** rule family over it:

* FLOW001 seed-drop — a ``seed``/``rng`` parameter of a public
  ``core/``/``baselines/`` function must be used (reach an RNG
  construction, be forwarded, or be stored), not silently dropped;
* FLOW002 dead-public-api — ``__all__`` exports referenced nowhere in
  src/tests/examples/benchmarks;
* FLOW003 import-cycle — strongly connected components of the import
  graph, reported once per cycle with the full path;
* FLOW004 unused-noqa — suppression markers that no longer suppress
  any finding (per-file *or* project);
* FLOW005 event-emission-coverage — every ``CrawlEvent`` subclass must
  have at least one construction site in library code.

Findings are anchored at real file/line positions so the ordinary
``# repro: noqa[FLOW00x]`` machinery applies — except FLOW004, which
deliberately ignores *bare* markers (a bare ``noqa`` that suppresses
nothing is exactly the defect being reported; keep a marker on purpose
by listing ``FLOW004`` explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable

from repro.lint.config import RuleConfig
from repro.lint.engine import Finding
from repro.lint.symbols import ModuleSymbols

#: Base-class name that marks an observable event type (FLOW005).
EVENT_BASE = "CrawlEvent"


@dataclass
class ProjectModel:
    """The assembled whole-program view handed to every FLOW rule."""

    #: module name -> symbols, for every analysed file (linted + reference).
    modules: dict[str, ModuleSymbols]
    #: path string -> symbols (paths exactly as they appear in findings).
    by_path: dict[str, ModuleSymbols]
    #: paths explicitly linted — findings may only anchor here.
    linted_paths: frozenset[str]
    #: path -> {line: codes|None} noqa markers of linted files.
    noqa: dict[str, dict[int, frozenset[str] | None]]
    #: path -> {line: set of rule codes a marker actually suppressed};
    #: per-file phase pre-populates this, the engine adds project-phase
    #: suppressions before FLOW004 runs.
    suppressed: dict[str, dict[int, set[str]]]
    #: module -> set of imported modules (edges restricted to the model).
    import_graph: dict[str, set[str]] = field(default_factory=dict)
    #: the codes FLOW004 may call stale on a partial run (rules that
    #: ran, plus the config's disable list); None = every code.
    judged_codes: frozenset[str] | None = None

    def is_linted(self, path: str) -> bool:
        return path in self.linted_paths

    def record_suppressed(self, finding: Finding) -> None:
        self.suppressed.setdefault(finding.path, {}).setdefault(
            finding.line, set()
        ).add(finding.rule)


def resolve_import(symbols: ModuleSymbols, module: str, level: int) -> str:
    """Absolute dotted target of a (possibly relative) import."""
    if level == 0:
        return module
    base = symbols.module.split(".")
    if not symbols.is_package:
        base = base[:-1]
    base = base[:len(base) - (level - 1)] if level > 1 else base
    return ".".join(base + ([module] if module else [])).strip(".")


def _resolve_to_model(target: str, modules: dict[str, ModuleSymbols]) -> str | None:
    """Deepest prefix of ``target`` that names a module in the model."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        candidate = ".".join(parts[:cut])
        if candidate in modules:
            return candidate
    return None


def build_project(
    symbols: Iterable[ModuleSymbols],
    linted_paths: Iterable[str],
    noqa: dict[str, dict[int, frozenset[str] | None]],
    suppressed: dict[str, dict[int, set[str]]],
) -> ProjectModel:
    """Assemble the project model (import graph included) from phase 1."""
    modules: dict[str, ModuleSymbols] = {}
    by_path: dict[str, ModuleSymbols] = {}
    for mod in symbols:
        modules[mod.module] = mod
        by_path[mod.path] = mod
    graph: dict[str, set[str]] = {name: set() for name in modules}
    for name, mod in modules.items():
        for rec in mod.imports:
            if not rec.toplevel:
                continue  # lazy / TYPE_CHECKING imports break cycles
            target = resolve_import(mod, rec.module, rec.level)
            resolved = _resolve_to_model(target, modules) if target else None
            if resolved is not None and resolved != name:
                graph[name].add(resolved)
            if rec.is_from and target:
                for imported in rec.names:
                    if imported == "*":
                        continue
                    sub = modules.get(f"{target}.{imported}")
                    if sub is not None and sub.module != name:
                        graph[name].add(sub.module)
    return ProjectModel(
        modules=modules,
        by_path=by_path,
        linted_paths=frozenset(str(p) for p in linted_paths),
        noqa=noqa,
        suppressed=suppressed,
        import_graph=graph,
    )


class ProjectRule:
    """Base class for whole-program rules.

    Unlike per-file :class:`~repro.lint.engine.Rule` subclasses, a
    project rule sees the complete :class:`ProjectModel` and returns raw
    findings; the engine applies ``noqa`` filtering afterwards (so the
    same suppression syntax covers both rule families).
    """

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def check(self, model: ProjectModel, config: RuleConfig) -> list[Finding]:
        raise NotImplementedError


def _seed_like(param: str) -> bool:
    return "seed" in param or "rng" in param


class SeedDropRule(ProjectRule):
    """FLOW001 — accepted seed/rng parameters must actually be used.

    The interprocedural generalisation of API001: API001 flags a public
    crawler-layer function that *creates* an RNG without accepting a
    seed; FLOW001 flags the dual failure, a function that *accepts* a
    ``seed``/``rng`` parameter and then drops it on the floor — the
    caller believes it decorrelated the run, but the stream never
    changes.  A parameter counts as used when its name is read anywhere
    in the body: forwarded to a callee, fed to ``random.Random``/
    ``derive_rng``, stored on ``self`` or returned.  Interface stubs
    (docstring/``...``/``raise`` bodies) are exempt.
    """

    code = "FLOW001"
    name = "seed-drop"
    rationale = ("a seed/rng parameter that never reaches an RNG or a "
                 "callee silently decouples the caller's seed from the run")

    def check(self, model: ProjectModel, config: RuleConfig) -> list[Finding]:
        findings: list[Finding] = []
        for mod in model.by_path.values():
            if not model.is_linted(mod.path):
                continue
            if mod.package not in config.seeded_packages:
                continue
            for func in mod.functions:
                if not func.is_public or func.is_stub:
                    continue
                loaded = set(func.loaded)
                for param in func.params:
                    if _seed_like(param) and param not in loaded:
                        findings.append(Finding(
                            path=mod.path, line=func.line, col=0,
                            rule=self.code,
                            message=(
                                f"parameter {param!r} of public function "
                                f"{func.qualname}() is accepted but never "
                                "used; forward it or feed it to an RNG "
                                "construction (seed-drop)"
                            ),
                        ))
        return findings


class DeadPublicApiRule(ProjectRule):
    """FLOW002 — every ``__all__`` export must have a reference somewhere.

    An exported name nobody imports, calls or mentions across
    ``src/``, ``tests/``, ``examples/`` and ``benchmarks/`` is dead API
    surface: it rots silently (no test exercises it) and misleads users
    reading the package's public face.  A ``from X import *`` anywhere
    counts as a use of all of ``X``'s exports.
    """

    code = "FLOW002"
    name = "dead-public-api"
    rationale = ("exports referenced nowhere in src/tests/examples/"
                 "benchmarks are untested, misleading API surface")

    def check(self, model: ProjectModel, config: RuleConfig) -> list[Finding]:
        findings: list[Finding] = []
        star_targets: set[str] = set()
        for mod in model.modules.values():
            for rec in mod.star_imports():
                target = resolve_import(mod, rec.module, rec.level)
                if target:
                    star_targets.add(target)
        for mod in model.by_path.values():
            if not model.is_linted(mod.path) or not mod.exports:
                continue
            if mod.module in star_targets:
                continue
            external_refs: set[str] = set()
            for other in model.modules.values():
                if other.module != mod.module:
                    external_refs.update(other.refs)
            for name, line in mod.exports:
                if name not in external_refs:
                    findings.append(Finding(
                        path=mod.path, line=line, col=0, rule=self.code,
                        message=(
                            f"exported symbol {name!r} is referenced nowhere "
                            "in src/, tests/, examples/ or benchmarks/ "
                            "(dead public API)"
                        ),
                    ))
        return findings


class ImportCycleRule(ProjectRule):
    """FLOW003 — the import graph must stay acyclic.

    Cycles make module initialisation order-dependent (the classic
    partially-initialised-module ``ImportError``) and defeat the layer
    tower API002 enforces edge-by-edge.  Each strongly connected
    component is reported exactly once, with the full cycle path,
    anchored at the lexicographically smallest member's offending
    import line.
    """

    code = "FLOW003"
    name = "import-cycle"
    rationale = ("import cycles make initialisation order-dependent and "
                 "entangle layers the architecture keeps apart")

    def _strongly_connected(self, graph: dict[str, set[str]]) -> list[list[str]]:
        """Tarjan's algorithm, iterative, deterministic ordering."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        components: list[list[str]] = []

        for root in sorted(graph):
            if root in index:
                continue
            work: list[tuple[str, list[str], int]] = [
                (root, sorted(graph.get(root, ())), 0)
            ]
            while work:
                node, neighbours, pos = work.pop()
                if pos == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                while pos < len(neighbours):
                    succ = neighbours[pos]
                    pos += 1
                    if succ not in index:
                        work.append((node, neighbours, pos))
                        work.append((succ, sorted(graph.get(succ, ())), 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if recurse:
                    continue
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components

    def _cycle_path(self, start: str, members: set[str],
                    graph: dict[str, set[str]]) -> list[str]:
        """A concrete path start -> ... -> start inside one SCC."""
        path = [start]
        seen = {start}
        node = start
        while True:
            inside = sorted(n for n in graph.get(node, ()) if n in members)
            back = [n for n in inside if n == start]
            if back and len(path) > 1:
                return path + [start]
            step = next((n for n in inside if n not in seen), None)
            if step is None:
                return path + [start]  # fall back: close the loop textually
            path.append(step)
            seen.add(step)
            node = step

    def check(self, model: ProjectModel, config: RuleConfig) -> list[Finding]:
        findings: list[Finding] = []
        for component in self._strongly_connected(model.import_graph):
            members = set(component)
            anchor = next(
                (model.modules[name] for name in component
                 if model.is_linted(model.modules[name].path)),
                None,
            )
            if anchor is None:
                continue  # cycle lives entirely outside the linted paths
            line = 1
            for rec in anchor.imports:
                target = resolve_import(anchor, rec.module, rec.level)
                resolved = _resolve_to_model(target, model.modules) if target else None
                if resolved in members:
                    line = rec.line
                    break
            path = self._cycle_path(anchor.module, members,
                                    model.import_graph)
            findings.append(Finding(
                path=anchor.path, line=line, col=0, rule=self.code,
                message="import cycle: " + " -> ".join(path),
            ))
        return findings


class UnusedNoqaRule(ProjectRule):
    """FLOW004 — suppression markers must suppress something.

    A ``# repro: noqa[...]`` whose codes match no finding on that line
    (per-file or project, suppression bypassed) is stale: the violation
    it excused was fixed, the rule was disabled, or the code list has a
    typo.  Stale markers are worse than none — they licence a future
    violation nobody reviewed.  Markers listing ``FLOW004`` itself are
    kept intentionally and never flagged; bare markers that suppress
    nothing *are* flagged (they cannot self-excuse).  On a partial run
    (``--select``/``--disable``) a marker is judged only by the codes
    that ran, and a bare marker not at all.
    """

    code = "FLOW004"
    name = "unused-noqa"
    rationale = ("a noqa that suppresses nothing licences an unreviewed "
                 "future violation; remove it or justify with FLOW004")

    def check(self, model: ProjectModel, config: RuleConfig) -> list[Finding]:
        findings: list[Finding] = []
        judged = model.judged_codes
        for path in sorted(model.noqa):
            if not model.is_linted(path):
                continue
            hits = model.suppressed.get(path, {})
            for line, codes in sorted(model.noqa[path].items()):
                if codes is not None and self.code in codes:
                    continue  # explicitly kept
                used = hits.get(line, set())
                if codes is None:
                    if used or judged is not None:
                        continue
                elif codes & used or (judged is not None
                                      and not codes & judged):
                    continue
                label = ("bare noqa" if codes is None
                         else "noqa[" + ",".join(sorted(codes)) + "]")
                findings.append(Finding(
                    path=path, line=line, col=0, rule=self.code,
                    message=(
                        f"{label} suppresses no finding on this line; "
                        "remove the marker (or list FLOW004 to keep it "
                        "deliberately)"
                    ),
                ))
        return findings


class EventEmissionCoverageRule(ProjectRule):
    """FLOW005 — every observable event class must actually be emitted.

    The ``repro.obs`` schema gate (PR 2) checks that each event type is
    *documented*; this closes the other half of the loop: a
    ``CrawlEvent`` subclass with no construction site anywhere in
    library code is an event the instrumentation promises but never
    delivers, so traces and dashboards silently miss it.
    """

    code = "FLOW005"
    name = "event-emission-coverage"
    rationale = ("an event class never constructed in library code is a "
                 "schema promise the instrumentation does not keep")

    def check(self, model: ProjectModel, config: RuleConfig) -> list[Finding]:
        findings: list[Finding] = []
        emitters: set[str] = set()
        by_class: dict[str, str] = {}   # class name -> defining module
        declared: list[tuple[ModuleSymbols, object]] = []
        for mod in model.modules.values():
            for cls in mod.classes:
                if any(base.rsplit(".", 1)[-1] == EVENT_BASE
                       for base in cls.bases):
                    declared.append((mod, cls))
                    by_class[cls.name] = mod.module
        for mod in model.modules.values():
            if not mod.module.startswith("repro."):
                continue  # tests/examples may construct events; library must
            emitters.update(
                head for head in mod.call_heads()
                if head in by_class and by_class[head] != mod.module
            )
        for mod, cls in declared:
            if not model.is_linted(mod.path):
                continue
            if cls.name in emitters:
                continue
            findings.append(Finding(
                path=mod.path, line=cls.line, col=0, rule=self.code,
                message=(
                    f"event class {cls.name} has no construction/emission "
                    "site in library code; instrument the component or "
                    "retire the event"
                ),
            ))
        return findings


def default_project_rules() -> list[ProjectRule]:
    """Fresh instances of the FLOW rule family, in catalogue order.

    Order matters for FLOW004: the engine runs it last, after the other
    project rules have populated the suppression record.
    """
    return [
        SeedDropRule(),
        DeadPublicApiRule(),
        ImportCycleRule(),
        UnusedNoqaRule(),
        EventEmissionCoverageRule(),
    ]
