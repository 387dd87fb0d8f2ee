"""The built-in determinism & invariant rules (DET*, COR*, API*).

Every rule is grounded in a failure mode this reproduction actually
cares about: unseeded randomness or wall-clock reads silently break the
byte-identical-trace guarantee behind Tables 1-7; float-equality guards
and swallowed exceptions corrupt metrics without failing tests; layering
violations let experiment code leak into the crawler hot path.  See
``docs/static_analysis.md`` for the full catalogue with examples.
"""

from __future__ import annotations

import ast

from repro.lint.engine import FileContext, Rule

#: Bumped whenever any rule's behaviour changes (per-file or FLOW), so
#: the incremental cache (`repro.lint.cache`) cannot serve findings
#: computed by an older rule set.  The active rule codes and the config
#: digest are mixed into the cache key separately.
RULESET_VERSION = "2026.10-8"


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
    ]
