"""The built-in per-file rules (DET*, COR*, API*, DF*).

Every rule is grounded in a failure mode this reproduction actually
cares about: unseeded randomness or wall-clock reads silently break the
byte-identical-trace guarantee behind Tables 1-7; float-equality guards
and swallowed exceptions corrupt metrics without failing tests; layering
violations let experiment code leak into the crawler hot path.  The DF
rules read one function's statements at a time: a fixed-seed RNG
reaching a draw, a handle that is never closed, a store nothing reads,
a retry error nobody accounts for.  See ``docs/static_analysis.md`` for
the full catalogue with examples.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, Rule

#: Bumped whenever any rule's behaviour changes (per-file or FLOW), so
#: the incremental cache (`repro.lint.cache`) cannot serve findings
#: computed by an older rule set.  The active rule codes and the config
#: digest are mixed into the cache key separately.
RULESET_VERSION = "2026.10-9"


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class UnseededRandomRule(Rule):
    """DET001 — all randomness must flow through explicit seeded streams.

    Flags, everywhere except ``repro/utils/rng.py``:

    * ``random.Random()`` with no seed argument;
    * module-level ``random.*()`` calls (``random.random()``,
      ``random.seed()``, ...) that mutate or read the global RNG;
    * ``from random import ...`` (aliasing defeats auditing);
    * ``import random`` at function scope (the historical pattern that
      hid re-seeding inside methods, e.g. old ``core/bandit.py``).
    """

    code = "DET001"
    name = "unseeded-random"
    rationale = ("global or unseeded randomness breaks the byte-identical "
                 "crawl-trace guarantee (docs/architecture.md, Determinism)")

    def _exempt(self, ctx: FileContext) -> bool:
        return ctx.config.is_rng_module(ctx.posix_path)

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if self._exempt(ctx):
            return
        dotted = _dotted_name(node.func)
        if dotted == "random.Random":
            if not node.args and not node.keywords:
                ctx.report(self, node,
                           "unseeded random.Random(); pass an explicit seed "
                           "or use repro.utils.rng.derive_rng")
        elif dotted.startswith("random."):
            ctx.report(self, node,
                       f"{dotted}() uses the process-global RNG; thread an "
                       "explicit random.Random / derive_rng stream instead")

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        if self._exempt(ctx) or not ctx.in_function():
            return
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                ctx.report(self, node,
                           "function-scope 'import random'; import at module "
                           "level or use repro.utils.rng.derive_rng")

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if self._exempt(ctx):
            return
        if node.module == "random" and node.level == 0:
            ctx.report(self, node,
                       "'from random import ...' hides global-RNG usage from "
                       "audits; import the module and seed an instance")


class WallClockRule(Rule):
    """DET002 — no wall-clock or OS entropy reads in library code.

    ``time.time()``, ``datetime.now()``, ``os.urandom()`` and friends
    make a crawl depend on when/where it runs.  Simulated time must come
    from the environment (``revisit`` policies take ``now`` parameters);
    benchmarks and tests are exempt.
    """

    code = "DET002"
    name = "wall-clock"
    rationale = ("wall-clock and OS entropy make runs irreproducible; "
                 "simulated time is threaded explicitly")

    #: Dotted-name suffixes that read the clock or OS entropy.
    FORBIDDEN = (
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        dotted = _dotted_name(node.func)
        if not dotted:
            return
        for suffix in self.FORBIDDEN:
            if dotted == suffix or dotted.endswith("." + suffix):
                ctx.report(self, node,
                           f"{dotted}() reads wall-clock/OS entropy; thread "
                           "simulated time or an explicit seed instead")
                return


class SetIterationOrderRule(Rule):
    """DET003 — unordered iteration must not feed RNG-dependent logic.

    Python ``set`` iteration order depends on insertion history and hash
    randomisation of the *process*, so ``for x in some_set`` followed by
    an RNG draw (or frontier ``pop_random``) in the same function can
    consume the stream in a platform-dependent order.  Heuristic: the
    function both iterates a set-valued expression and touches an
    ``rng``-named object or ``pop_random``/``derive_rng``.
    """

    code = "DET003"
    name = "set-iteration-order"
    rationale = ("set iteration order is unstable across processes; feeding "
                 "it into RNG choice reorders the stream")

    def visit_FunctionDef(self, node: ast.AST, ctx: FileContext) -> None:
        set_names: set[str] = set()
        uses_rng = False
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and _is_set_expression(child.value):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            if isinstance(child, ast.Name) and "rng" in child.id:
                uses_rng = True
            if isinstance(child, ast.Attribute) and (
                "rng" in child.attr or child.attr == "pop_random"
            ):
                uses_rng = True
        if not uses_rng:
            return
        for child in ast.walk(node):
            if not isinstance(child, (ast.For, ast.AsyncFor)):
                continue
            iterable = child.iter
            if _is_set_expression(iterable) or (
                isinstance(iterable, ast.Name) and iterable.id in set_names
            ):
                ctx.report(self, child,
                           "iterating an unordered set in a function that "
                           "draws from an RNG; sort the set first so the "
                           "stream consumption order is deterministic")


class MutableDefaultRule(Rule):
    """COR001 — no mutable default arguments."""

    code = "COR001"
    name = "mutable-default"
    rationale = ("mutable defaults are shared across calls and leak state "
                 "between crawls")

    _MUTABLE_CALLS = ("list", "dict", "set")

    def _is_mutable(self, default: ast.AST | None) -> bool:
        if default is None:
            return False
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in self._MUTABLE_CALLS
        )

    def visit_FunctionDef(self, node: ast.AST, ctx: FileContext) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            if self._is_mutable(default):
                ctx.report(self, default,
                           f"mutable default for argument {arg.arg!r} of "
                           f"{node.name}(); use None and create inside")
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if self._is_mutable(default):
                ctx.report(self, default,
                           f"mutable default for argument {arg.arg!r} of "
                           f"{node.name}(); use None and create inside")


class FloatEqualityRule(Rule):
    """COR002 — no exact float-literal ``==``/``!=`` outside tests.

    Cosine norms, losses and scale factors accumulate rounding error;
    exact comparison against a float literal is usually a latent bug.
    Intentional exact-zero guards take a ``noqa`` with a justification,
    or use ``repro.utils.approx_zero``.
    """

    code = "COR002"
    name = "float-equality"
    rationale = ("exact float comparison is unstable under rounding; use "
                 "approx_zero()/math.isclose or justify with noqa")

    def visit_Compare(self, node: ast.Compare, ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        operands = [node.left] + node.comparators
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            if any(isinstance(side, ast.Constant)
                   and isinstance(side.value, float) for side in pair):
                ctx.report(self, node,
                           "exact ==/!= against a float literal; use "
                           "repro.utils.approx_zero / math.isclose (or noqa "
                           "with a justification)")
                return


class SwallowedExceptionRule(Rule):
    """COR003 — no bare ``except:`` / silently-passing ``except Exception``.

    A crawl loop that swallows exceptions keeps running with corrupted
    bookkeeping: the ledger, trace and bandit statistics silently drift
    from the pages actually fetched.
    """

    code = "COR003"
    name = "swallowed-exception"
    rationale = ("silent exception swallowing corrupts crawl bookkeeping "
                 "without failing any test")

    _BROAD = ("Exception", "BaseException")

    def _is_broad(self, node: ast.AST | None) -> bool:
        if node is None:  # bare except
            return True
        if isinstance(node, ast.Name):
            return node.id in self._BROAD
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(element) for element in node.elts)
        return False

    def _only_passes(self, body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue  # docstring or bare `...`
            return False
        return True

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: FileContext) -> None:
        if node.type is None:
            ctx.report(self, node,
                       "bare 'except:' catches everything including "
                       "KeyboardInterrupt; name the exceptions")
            return
        if self._is_broad(node.type) and self._only_passes(node.body):
            ctx.report(self, node,
                       "'except Exception: pass' swallows failures silently; "
                       "handle, log to the trace, or re-raise")


class SeedThreadingRule(Rule):
    """API001 — public crawler-layer functions must thread a seed or rng.

    A public function in ``core/``/``baselines/`` that *creates* an RNG
    (``random.Random(...)`` or ``derive_rng(...)``) without taking a
    ``seed``/``rng`` parameter — and without deriving it from stored
    state like ``self.seed`` — hard-wires its stream, so callers cannot
    decorrelate runs.
    """

    code = "API001"
    name = "seed-threading"
    rationale = ("hard-wired RNG streams in public crawler APIs prevent "
                 "seed-averaged experiments (paper Sec. 4.1)")

    def _creates_rng(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            dotted = _dotted_name(child.func)
            if dotted == "random.Random" or dotted == "Random":
                return True
            if dotted == "derive_rng" or dotted.endswith(".derive_rng"):
                return True
        return False

    def visit_FunctionDef(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.package not in ctx.config.seeded_packages:
            return
        if node.name.startswith("_"):
            return
        if not self._creates_rng(node):
            return
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg is not None or args.kwarg is not None:
            return
        if any("seed" in p or "rng" in p for p in params):
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and (
                "seed" in child.attr or "rng" in child.attr
            ):
                return  # derives from stored state (self.seed, config.rng, ...)
        ctx.report(self, node,
                   f"public function {node.name}() creates an RNG but has no "
                   "seed/rng parameter and derives none from state")


class LayeringRule(Rule):
    """API002 — imports must respect the architecture's layer ranking.

    ``core/`` importing ``experiments/`` (or anything importing the
    linter) inverts the dependency tower in docs/architecture.md; such
    edges make the crawler untestable in isolation and block the planned
    parallelism/caching refactors.
    """

    code = "API002"
    name = "layering"
    rationale = ("upward imports invert the layering in "
                 "docs/architecture.md and entangle the crawler hot path")

    def _check(self, node: ast.AST, imported: str, ctx: FileContext) -> None:
        if not imported.startswith("repro."):
            return
        own = ctx.package
        if not own:  # root modules (__init__, __main__) wire everything
            return
        own_rank = ctx.config.layer_rank(own)
        if own_rank is None:
            return
        target = imported.split(".")[1]
        if target == own:
            return
        target_rank = ctx.config.layer_rank(target)
        if target_rank is None or target_rank <= own_rank:
            return
        ctx.report(self, node,
                   f"layer violation: repro.{own} (rank {own_rank}) imports "
                   f"repro.{target} (rank {target_rank}); dependencies must "
                   "point downward (docs/architecture.md)")

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        for alias in node.names:
            self._check(node, alias.name, ctx)

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext) -> None:
        if node.level or node.module is None:
            return  # relative imports stay within a subpackage
        self._check(node, node.module, ctx)


# ---------------------------------------------------------------------------
# The DF family: one function's statements, read in a single pass
# ---------------------------------------------------------------------------

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

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_nodes(func: ast.AST, ctx: FileContext) -> list[ast.AST]:
    """Every node of ``func``'s own scope, built once per function:
    nested ``def`` and ``class`` bodies belong to their own scope (the
    dispatcher visits them); the nested definition node itself is
    listed."""
    nodes = ctx.memo.get(func)
    if nodes is None:
        nodes = ctx.memo[func] = []
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not isinstance(node, _SCOPES):
                stack.extend(ast.iter_child_nodes(node))
    return nodes


def _statement_lists(func: ast.AST):
    """``(body, tails)`` for every statement list of ``func``'s scope;
    ``tails`` are the statements after each enclosing statement, i.e.
    where control goes once ``body`` falls through."""
    stack: list[tuple[list[ast.stmt], tuple]] = [(func.body, ())]
    while stack:
        body, tails = stack.pop()
        yield body, tails
        for index, stmt in enumerate(body):
            if isinstance(stmt, _SCOPES):
                continue
            inner = (body[index + 1:], *tails)
            for name in ("body", "orelse", "finalbody"):
                block = getattr(stmt, name, None)
                if block:
                    stack.append((block, inner))
            for child in getattr(stmt, "handlers", ()):
                stack.append((child.body, inner))
            for case in getattr(stmt, "cases", ()):
                stack.append((case.body, inner))


def _plain_store(stmt: ast.stmt) -> str | None:
    """The name a single-name ``x = ...`` / ``x: T = ...`` binds."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _loaded_names(node: ast.AST) -> set[str]:
    return {child.id for child in ast.walk(node)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)}


def _fixed_seed_rng(expr: ast.AST) -> bool:
    """``random.Random()`` / ``random.Random(<literals>)`` — a stream no
    caller can decorrelate (parameter-seeded constructions are fine)."""
    if not isinstance(expr, ast.Call):
        return False
    if _dotted_name(expr.func) not in ("random.Random", "Random"):
        return False
    return (all(isinstance(a, ast.Constant) for a in expr.args)
            and all(isinstance(k.value, ast.Constant)
                    for k in expr.keywords))


class UnseededRngTaintRule(Rule):
    """DF001 — a fixed-seed RNG must not reach a sampling/shuffle call.

    DET001 bans the *global* stream and API001 demands a seed parameter
    at the API boundary, but neither sees a ``random.Random(42)`` built
    locally and handed to ``sample``/``shuffle``/``weighted_choice`` —
    a stream hard-wired to one seed, so seed-averaged experiments
    (paper Sec. 4.1) silently reuse identical draws.  The rule follows
    names bound to fixed-seed constructions, and their plain aliases,
    to any drawing method or sampling helper in the function; construct
    through ``repro.utils.rng.derive_rng`` instead.
    """

    code = "DF001"
    name = "unseeded-rng-taint"
    rationale = ("a literal-seeded RNG reaching a sampling call pins the "
                 "stream to one seed; derive it via derive_rng")

    def visit_FunctionDef(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.is_test_file() or ctx.config.is_rng_module(ctx.posix_path):
            return
        nodes = _scope_nodes(node, ctx)
        stores = sorted((stmt for stmt in nodes
                         if isinstance(stmt, ast.Assign)),
                        key=lambda stmt: (stmt.lineno, stmt.col_offset))
        tainted: set[str] = set()
        for stmt in stores:  # in source order, so aliases follow
            value = stmt.value
            if _fixed_seed_rng(value) or (isinstance(value, ast.Name)
                                          and value.id in tainted):
                name = _plain_store(stmt)
                if name is not None:
                    tainted.add(name)
        for call in nodes:
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in RNG_METHODS:
                receiver = func.value
                if ((isinstance(receiver, ast.Name)
                     and receiver.id in tainted)
                        or _fixed_seed_rng(receiver)):
                    ctx.report(self, call, (
                        f"fixed-seed RNG reaches .{func.attr}(); the "
                        "stream cannot be decorrelated across runs — "
                        "derive it via repro.utils.rng.derive_rng"
                    ))
                    continue
            head = _dotted_name(func).rsplit(".", 1)[-1]
            if head in SAMPLING_FUNCS and any(
                    isinstance(arg, ast.Name) and arg.id in tainted
                    for arg in [*call.args,
                                *(k.value for k in call.keywords)]):
                ctx.report(self, call, (
                    f"fixed-seed RNG passed to {head}(); the stream "
                    "cannot be decorrelated across runs — derive it "
                    "via repro.utils.rng.derive_rng"
                ))


class ResourceLeakRule(Rule):
    """DF002 — a locally opened sink or file must be closed on every
    path out of the function.

    A ``JsonlSink`` or file leaked on an early return or exception path
    holds a buffered file handle: events written near the end of a
    crawl silently vanish, and the trace-replay gate diffs a truncated
    file.  A handle is accepted when it is a ``with`` item, when it is
    closed in a ``finally``, or when ownership escapes (the handle is
    returned, yielded, passed to a callee or stored) — whoever received
    it owns the close.  ``with`` is the preferred fix.
    """

    code = "DF002"
    name = "resource-leak"
    rationale = ("a sink/file opened on a path that can exit without "
                 "close() loses buffered crawl data; use with/finally")

    def visit_FunctionDef(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        nodes = _scope_nodes(node, ctx)
        opened = [(stmt, name) for stmt in nodes
                  if isinstance(stmt, ast.Assign)
                  and (name := _plain_store(stmt)) is not None
                  and self._opens(stmt.value)]
        if not opened:
            return
        accepted: set[str] = set()
        for child in nodes:
            for region in self._owning_regions(child):
                accepted |= _loaded_names(region)
            if isinstance(child, ast.Try):
                accepted.update(
                    call.func.value.id
                    for stmt in child.finalbody for call in ast.walk(stmt)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in CLOSE_METHODS
                    and isinstance(call.func.value, ast.Name))
        for stmt, name in opened:
            if name in accepted:
                continue
            anchor = ast.Pass()
            anchor.lineno, anchor.col_offset = stmt.lineno, 0
            ctx.report(self, anchor, (
                f"{name!r} opened here can reach a function exit without "
                "close(); wrap it in a with block or close it in finally"
            ))

    def _opens(self, expr: ast.AST) -> bool:
        return (isinstance(expr, ast.Call)
                and _dotted_name(expr.func).rsplit(".", 1)[-1]
                in RESOURCE_CONSTRUCTORS)

    def _owning_regions(self, node: ast.AST) -> list[ast.AST]:
        """Sub-expressions whose names take ownership of a handle: with
        items, returned/raised/yielded/stored values, call arguments
        and container elements."""
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in node.items]
        if isinstance(node, ast.Raise):
            return [node.exc] if node.exc is not None else []
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom,
                             ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is None or self._opens(value):
                return []
            return [value]
        if isinstance(node, ast.Call):
            return [*node.args, *(k.value for k in node.keywords)]
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return list(node.elts)
        if isinstance(node, ast.Dict):
            return list(node.values)
        return []


class DeadStoreRule(Rule):
    """DF004 — a stored value nothing reads is noise at best and a
    dropped result at worst.

    Flags a plain single-name assignment whose name nothing in the
    function loads, or that the next statement in the same list
    overwrites without reading it.  Tuple unpacking, augmented
    assignment, loop targets, ``global``/``nonlocal`` names and
    underscore names are idiomatic ways to discard values and stay
    exempt; a read inside a nested function or lambda counts (the
    closure may run later).
    """

    code = "DF004"
    name = "dead-store"
    rationale = ("a stored value no path ever reads hides a dropped "
                 "result or leftover refactor debris")

    def visit_FunctionDef(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        read: set[str] = set()
        for child in _scope_nodes(node, ctx):
            if isinstance(child, ast.Name) and isinstance(
                    child.ctx, ast.Load):
                read.add(child.id)
            elif isinstance(child, (ast.Global, ast.Nonlocal)):
                read.update(child.names)
            elif (isinstance(child, ast.AugAssign)
                  and isinstance(child.target, ast.Name)):
                read.add(child.target.id)  # x += 1 reads the old x
            elif isinstance(child, _SCOPES):
                read |= _loaded_names(child)  # a closure may read later
        for body, _ in _statement_lists(node):
            for index, stmt in enumerate(body):
                name = _plain_store(stmt)
                if name is None or name.startswith("_"):
                    continue
                if name in read:
                    after = body[index + 1] if index + 1 < len(body) else None
                    if (after is None or _plain_store(after) != name
                            or name in _loaded_names(after)):
                        continue
                ctx.report(self, stmt, (
                    f"value assigned to {name!r} is never read on any path "
                    "(dead store); drop the binding or use the value"
                ))


def _retry_exception_names(type_node: ast.AST | None) -> list[str]:
    if type_node is None:
        return []
    nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
             else [type_node])
    names: list[str] = []
    for node in nodes:
        tail = _dotted_name(node).rsplit(".", 1)[-1]
        if not tail:
            continue
        if ("Timeout" in tail or "Http" in tail or "HTTP" in tail
                or tail in ("ConnectionError", "ConnectionResetError",
                            "RetryError")):
            names.append(tail)
    return names


def _accounts(stmts: list[ast.stmt]) -> bool:
    """Does any statement re-raise or make an accounting call?"""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                parts = _dotted_name(node.func).lower().split(".")
                if any(token in part for part in parts
                       for token in HANDLED_TOKENS):
                    return True
    return False


class SwallowedRetryErrorRule(Rule):
    """DF005 — catching a timeout/HTTP error obliges the handler's
    continuation to account for it.

    The cost model (Tables 2-3) only reproduces if every failed request
    is *visible*: charged to the ledger, recorded in the trace, emitted
    as an observability event — or re-raised.  A handler that swallows
    a retry-class error and carries on lets request counts drift from
    the pages actually fetched.  A re-raise or accounting call
    (``record``/``charge``/``emit``/``ledger``/... in a call name) in
    the handler, the ``finally``, or any statement after the ``try``
    satisfies it, so the common fall-through-to-shared-bookkeeping
    shape passes without annotation.
    """

    code = "DF005"
    name = "swallowed-retry-error"
    rationale = ("a swallowed timeout/HTTP error desyncs the ledger and "
                 "trace from the requests actually made")

    def visit_FunctionDef(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.is_test_file():
            return
        for body, tails in _statement_lists(node):
            for index, stmt in enumerate(body):
                if not isinstance(stmt, ast.Try):
                    continue
                after = [stmt.finalbody, body[index + 1:], *tails]
                for handler in stmt.handlers:
                    names = _retry_exception_names(handler.type)
                    if (not names or _accounts(handler.body)
                            or any(_accounts(block) for block in after)):
                        continue
                    ctx.report(self, handler, (
                        f"handler for {'/'.join(names)} neither re-raises "
                        "nor reaches any ledger/trace/event accounting; "
                        "charge the ledger, emit an event, or re-raise"
                    ))


def default_rules() -> list[Rule]:
    """Fresh instances of the full built-in rule set, in catalogue order."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        SetIterationOrderRule(),
        MutableDefaultRule(),
        FloatEqualityRule(),
        SwallowedExceptionRule(),
        SeedThreadingRule(),
        LayeringRule(),
        UnseededRngTaintRule(),
        ResourceLeakRule(),
        DeadStoreRule(),
        SwallowedRetryErrorRule(),
    ]
