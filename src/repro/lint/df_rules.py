"""Phase 3 of the analysis: dataflow rules (the DF family).

Each rule runs per function over the :mod:`repro.lint.cfg` graph via
:meth:`DataflowRule.check_function`, reporting through the ordinary
:class:`~repro.lint.engine.FileContext` so ``# repro: noqa[DF00x]``
markers and FLOW004 stale-marker accounting apply unchanged.  Every
DF rule is intraprocedural, so its findings cache per file.

The rules are deliberately lint-grade, not verifier-grade: names, not
objects, are tracked; aliasing through containers and attributes counts
as an *escape* (conservatively silencing DF002 rather than guessing);
and exception edges over-approximate where control can go.  Every
asymmetry is tuned so a report is worth reading — false negatives are
acceptable, false positives on idiomatic code are not.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.lint.cfg import CFG, EXIT
from repro.lint.dataflow import (ForwardAnalysis, ReachingDefinitions,
                                 header_exprs, solve_forward, stmt_defs,
                                 stmt_uses)
from repro.lint.engine import FileContext

#: ``random.Random`` drawing methods — DF001 sinks when the receiver is
#: a fixed-seed stream, and the consumption sites DET003 already guards.
RNG_METHODS = frozenset({
    "sample", "shuffle", "choice", "choices", "random", "randint",
    "randrange", "uniform", "gauss", "normalvariate", "lognormvariate",
})

#: Free functions that consume an RNG argument (repro.utils.sampling).
SAMPLING_FUNCS = frozenset({
    "weighted_choice", "bounded_lognormal", "clipped_normal_int",
    "sample", "shuffle",
})

#: Constructors whose result is an open resource DF002 tracks.
RESOURCE_CONSTRUCTORS = frozenset({"open", "JsonlSink"})

#: Method names that release a tracked resource.
CLOSE_METHODS = frozenset({"close", "__exit__"})

#: Name components that mark a call as *handling* a retry error (DF005):
#: charging the ledger, emitting an observability event, re-recording.
HANDLED_TOKENS = ("record", "charge", "spend", "debit", "emit", "event",
                  "ledger")


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class DataflowRule:
    """Base class for DF rules.

    ``check_function`` runs once per function definition with its CFG
    and reports through ``ctx``; the default is a no-op.
    """

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def check_function(self, func: ast.AST, cfg: CFG,
                       ctx: FileContext) -> None:
        pass


# ---------------------------------------------------------------------------
# DF001 — unseeded-rng-taint
# ---------------------------------------------------------------------------


def _fixed_seed_rng(expr: ast.AST) -> bool:
    """``random.Random()`` / ``random.Random(<literals>)`` — a stream no
    caller can decorrelate (parameter-seeded constructions are fine)."""
    if not isinstance(expr, ast.Call):
        return False
    if _dotted(expr.func) not in ("random.Random", "Random"):
        return False
    return (all(isinstance(a, ast.Constant) for a in expr.args)
            and all(isinstance(k.value, ast.Constant)
                    for k in expr.keywords))


class _RngTaint(ForwardAnalysis):
    def transfer(self, fact: frozenset, stmt: ast.AST) -> frozenset:
        tainted = {name for name, _ in fact}
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            target = stmt.targets[0].id
            result = {d for d in fact if d[0] != target}
            if _fixed_seed_rng(stmt.value):
                result.add((target, stmt.value.lineno))
            elif (isinstance(stmt.value, ast.Name)
                  and stmt.value.id in tainted):
                line = next(l for n, l in fact if n == stmt.value.id)
                result.add((target, line))
            return frozenset(result)
        killed = {name for name, _ in stmt_defs(stmt)}
        if killed:
            return frozenset(d for d in fact if d[0] not in killed)
        return fact


class UnseededRngTaintRule(DataflowRule):
    """DF001 — a fixed-seed RNG must not reach a sampling/shuffle call.

    DET001 bans the *global* stream and API001 demands a seed parameter
    at the API boundary, but neither sees a ``random.Random(42)`` built
    locally and handed to ``sample``/``shuffle``/``weighted_choice`` —
    a stream hard-wired to one seed, so seed-averaged experiments
    (paper Sec. 4.1) silently reuse identical draws.  The taint lattice
    tracks fixed-seed constructions through plain aliasing to any
    drawing method or sampling helper; construct through
    ``repro.utils.rng.derive_rng`` instead.
    """

    code = "DF001"
    name = "unseeded-rng-taint"
    rationale = ("a literal-seeded RNG reaching a sampling call pins the "
                 "stream to one seed; derive it via derive_rng")

    def check_function(self, func: ast.AST, cfg: CFG,
                       ctx: FileContext) -> None:
        if ctx.is_test_file() or ctx.config.is_rng_module(ctx.posix_path):
            return
        analysis = _RngTaint()
        in_facts, _ = solve_forward(cfg, analysis)
        seen: set[tuple[int, int]] = set()
        for index in sorted(in_facts):
            fact = in_facts[index]
            for stmt in cfg.blocks[index].stmts:
                tainted = {name for name, _ in fact}
                for expr in header_exprs(stmt):
                    self._scan(expr, tainted, seen, ctx)
                fact = analysis.transfer(fact, stmt)

    def _scan(self, expr: ast.AST, tainted: set[str],
              seen: set[tuple[int, int]], ctx: FileContext) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in RNG_METHODS:
                receiver = func.value
                hit = (isinstance(receiver, ast.Name)
                       and receiver.id in tainted)
                if hit or _fixed_seed_rng(receiver):
                    seen.add(key)
                    ctx.report(self, node, (
                        f"fixed-seed RNG reaches .{func.attr}(); the "
                        "stream cannot be decorrelated across runs — "
                        "derive it via repro.utils.rng.derive_rng"
                    ))
                    continue
            head = _dotted(func).rsplit(".", 1)[-1]
            if head in SAMPLING_FUNCS:
                values = [*node.args, *(k.value for k in node.keywords)]
                if any(isinstance(a, ast.Name) and a.id in tainted
                       for a in values):
                    seen.add(key)
                    ctx.report(self, node, (
                        f"fixed-seed RNG passed to {head}(); the stream "
                        "cannot be decorrelated across runs — derive it "
                        "via repro.utils.rng.derive_rng"
                    ))


# ---------------------------------------------------------------------------
# DF002 — resource-leak
# ---------------------------------------------------------------------------


def _opens_resource(expr: ast.AST) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    head = _dotted(expr.func).rsplit(".", 1)[-1]
    return head in RESOURCE_CONSTRUCTORS


class _OpenResources(ForwardAnalysis):
    """Fact: ``frozenset[(name, open_line)]`` of locals holding an open,
    unescaped resource.  Escapes (returned, yielded, passed to a call,
    stored anywhere) conservatively stop tracking — ownership moved."""

    def transfer(self, fact: frozenset, stmt: ast.AST) -> frozenset:
        result = set(fact)
        names = {name for name, _ in fact}
        gen: tuple[str, int] | None = None
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and _opens_resource(stmt.value)):
            gen = (stmt.targets[0].id, stmt.lineno)
        escaped = self._escaped(stmt, names)
        closed = self._closed(stmt, names)
        rebound = {name for name, _ in stmt_defs(stmt)}
        drop = escaped | closed | rebound
        if drop:
            result = {d for d in result if d[0] not in drop}
        if gen is not None:
            result = {d for d in result if d[0] != gen[0]}
            result.add(gen)
        return frozenset(result)

    def _closed(self, stmt: ast.AST, names: set[str]) -> set[str]:
        closed: set[str] = set()
        for expr in header_exprs(stmt):
            for node in ast.walk(expr):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in CLOSE_METHODS
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in names):
                    closed.add(node.func.value.id)
        return closed

    def _escaped(self, stmt: ast.AST, names: set[str]) -> set[str]:
        regions: list[ast.AST] = []
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if getattr(stmt, "value", None) is not None:
                regions.append(stmt.value)
            if getattr(stmt, "exc", None) is not None:
                regions.append(stmt.exc)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None and not _opens_resource(stmt.value):
                regions.append(stmt.value)
        for expr in header_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    regions.extend(node.args)
                    regions.extend(k.value for k in node.keywords)
                elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                    if node.value is not None:
                        regions.append(node.value)
                elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                    regions.extend(node.elts)
                elif isinstance(node, ast.Dict):
                    regions.extend(v for v in node.values)
        escaped: set[str] = set()
        for region in regions:
            for node in ast.walk(region):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in names):
                    escaped.add(node.id)
        return escaped


class ResourceLeakRule(DataflowRule):
    """DF002 — a locally opened sink or file must be closed on every
    path out of the function.

    A ``JsonlSink`` or file leaked on an early return or exception path
    holds a buffered file handle: events written near the end of a
    crawl silently vanish, and the trace-replay gate diffs a truncated
    file.  Tracking stops when ownership escapes (the handle is
    returned, yielded, passed to a callee or stored on an object) —
    whoever received it owns the close.  ``with`` blocks never trip the
    rule; that is the preferred fix.
    """

    code = "DF002"
    name = "resource-leak"
    rationale = ("a sink/file opened on a path that can exit without "
                 "close() loses buffered crawl data; use with/finally")

    def check_function(self, func: ast.AST, cfg: CFG,
                       ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        in_facts, _ = solve_forward(cfg, _OpenResources())
        leaked = in_facts.get(EXIT, frozenset())
        for name, line in sorted(leaked):
            anchor = ast.Pass()
            anchor.lineno, anchor.col_offset = line, 0
            ctx.report(self, anchor, (
                f"{name!r} opened here can reach a function exit without "
                "close(); wrap it in a with block or close it in finally"
            ))


# ---------------------------------------------------------------------------
# DF004 — dead-store
# ---------------------------------------------------------------------------


class DeadStoreRule(DataflowRule):
    """DF004 — an assignment never read on any successor path is noise
    at best and a dropped result at worst.

    Reaching definitions marks each ``(name, line)`` definition; any
    definition that reaches a statement *using* the name is live.  Only
    plain single-name assignments are candidates — tuple unpacking,
    augmented assignment, loop targets and underscore names are
    idiomatic ways to discard values and stay exempt, as do names a
    nested function closes over (the closure may read them later).
    """

    code = "DF004"
    name = "dead-store"
    rationale = ("a stored value no path ever reads hides a dropped "
                 "result or leftover refactor debris")

    def check_function(self, func: ast.AST, cfg: CFG,
                       ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        in_facts, _ = solve_forward(cfg, ReachingDefinitions())
        analysis = ReachingDefinitions()
        closure_reads = self._closure_reads(func)
        candidates: dict[tuple[str, int], int] = {}
        live: set[tuple[str, int]] = set()
        for index in sorted(in_facts):
            fact = in_facts[index]
            for stmt in cfg.blocks[index].stmts:
                uses = stmt_uses(stmt)
                for pair in fact:
                    if pair[0] in uses:
                        live.add(pair)
                self._collect_candidates(stmt, closure_reads, candidates)
                fact = analysis.transfer(fact, stmt)
        for (name, line), col in sorted(candidates.items(),
                                        key=lambda kv: (kv[0][1], kv[1])):
            if (name, line) in live:
                continue
            anchor = ast.Pass()
            anchor.lineno, anchor.col_offset = line, col
            ctx.report(self, anchor, (
                f"value assigned to {name!r} is never read on any path "
                "(dead store); drop the binding or use the value"
            ))

    def _collect_candidates(self, stmt: ast.AST, closure_reads: set[str],
                            candidates: dict) -> None:
        target: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        if (isinstance(target, ast.Name)
                and not target.id.startswith("_")
                and target.id not in closure_reads):
            candidates[(target.id, stmt.lineno)] = stmt.col_offset

    def _closure_reads(self, func: ast.AST) -> set[str]:
        """Names loaded inside nested functions/lambdas — a reaching-defs
        lattice cannot order closure reads, so exempt them outright."""
        reads: set[str] = set()
        for node in ast.walk(func):
            if node is func or not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.Lambda)):
                continue
            for child in ast.walk(node):
                if (isinstance(child, ast.Name)
                        and isinstance(child.ctx, ast.Load)):
                    reads.add(child.id)
        return reads


# ---------------------------------------------------------------------------
# DF005 — swallowed-retry-error
# ---------------------------------------------------------------------------


def _retry_exception_names(type_node: ast.AST | None) -> list[str]:
    if type_node is None:
        return []
    nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
             else [type_node])
    names: list[str] = []
    for node in nodes:
        tail = _dotted(node).rsplit(".", 1)[-1]
        if not tail:
            continue
        if ("Timeout" in tail or "Http" in tail or "HTTP" in tail
                or tail in ("ConnectionError", "ConnectionResetError",
                            "RetryError")):
            names.append(tail)
    return names


class SwallowedRetryErrorRule(DataflowRule):
    """DF005 — catching a timeout/HTTP error obliges the handler's
    continuation to account for it.

    The cost model (Tables 2-3) only reproduces if every failed request
    is *visible*: charged to the ledger, recorded in the trace, emitted
    as an observability event — or re-raised.  A handler that swallows
    a retry-class error and carries on lets request counts drift from
    the pages actually fetched.  The check is CFG-reachability from the
    handler: any reachable re-raise or accounting call (``record``/
    ``charge``/``emit``/``ledger``/... in a call name) satisfies it, so
    the common fall-through-to-shared-bookkeeping shape passes without
    annotation.
    """

    code = "DF005"
    name = "swallowed-retry-error"
    rationale = ("a swallowed timeout/HTTP error desyncs the ledger and "
                 "trace from the requests actually made")

    def check_function(self, func: ast.AST, cfg: CFG,
                       ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        for block in cfg.blocks:
            if not block.stmts or not isinstance(block.stmts[0],
                                                 ast.ExceptHandler):
                continue
            handler = block.stmts[0]
            names = _retry_exception_names(handler.type)
            if not names:
                continue
            if self._handled(cfg, block.index):
                continue
            ctx.report(self, handler, (
                f"handler for {'/'.join(names)} neither re-raises nor "
                "reaches any ledger/trace/event accounting; charge the "
                "ledger, emit an event, or re-raise"
            ))

    def _handled(self, cfg: CFG, index: int) -> bool:
        for reachable in cfg.reachable_from(index):
            for stmt in cfg.blocks[reachable].stmts:
                if isinstance(stmt, ast.Raise):
                    return True
                for expr in header_exprs(stmt):
                    for node in ast.walk(expr):
                        if not isinstance(node, ast.Call):
                            continue
                        dotted = _dotted(node.func)
                        parts = dotted.lower().split(".")
                        if any(token in part for part in parts
                               for token in HANDLED_TOKENS):
                            return True
        return False


def default_df_rules() -> list[DataflowRule]:
    """Fresh instances of the DF rule family, in catalogue order."""
    return [
        UnseededRngTaintRule(),
        ResourceLeakRule(),
        DeadStoreRule(),
        SwallowedRetryErrorRule(),
    ]
