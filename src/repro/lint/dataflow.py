"""Generic forward dataflow over :mod:`repro.lint.cfg` graphs: phase 3.

The solver (:func:`solve_forward`) runs a pluggable analysis to a
fixpoint with a deterministic worklist.  An analysis supplies three
things — the entry fact, a join, and a per-statement transfer — and the
solver returns the fact *entering* and *leaving* every reachable block.
One instantiation ships here:
:class:`ReachingDefinitions` — which ``(name, line)`` assignments can
reach each point; the substrate for dead-store detection (DF004).  The
DF001/DF002 lattices live beside their rules in
:mod:`repro.lint.df_rules`.

Facts are immutable (``frozenset``) so the fixpoint check is plain
equality and no analysis can accidentally share state across blocks.

Because blocks store *compound statement headers* (see
:mod:`repro.lint.cfg`), transfer functions must not ``ast.walk`` a raw
block statement — that would re-visit body statements that live in
other blocks.  :func:`header_exprs`, :func:`stmt_defs` and
:func:`stmt_uses` encapsulate the header-only view:

* ``header_exprs`` — the expressions evaluated *in this block* for a
  statement (the ``if`` test, the ``for`` iterator, a ``with``'s
  context expressions, the whole statement for simple ones, nothing
  for ``try``);
* ``stmt_defs`` — the ``(name, line)`` bindings the header creates
  (assignment targets, loop targets, ``with ... as`` names, handler
  names, imports, walrus targets, ``def``/``class`` names);
* ``stmt_uses`` — the names the header reads.  Nested function and
  class definitions conservatively count *every* name loaded anywhere
  in their body as used at the definition site (closure capture).
"""

from __future__ import annotations

import ast
import heapq
from typing import Iterable

from repro.lint.cfg import CFG, ENTRY

# ---------------------------------------------------------------------------
# Header-only statement views
# ---------------------------------------------------------------------------


def header_exprs(stmt: ast.AST) -> list[ast.AST]:
    """Expressions a block evaluates for ``stmt`` (header-only view)."""
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Decorators and default values are evaluated at the definition
        # site; the body is a separate scope with its own CFG.
        exprs: list[ast.AST] = list(stmt.decorator_list)
        if isinstance(stmt, ast.ClassDef):
            exprs.extend(stmt.bases)
            exprs.extend(kw.value for kw in stmt.keywords)
        else:
            args = stmt.args
            exprs.extend(d for d in args.defaults)
            exprs.extend(d for d in args.kw_defaults if d is not None)
        return exprs
    return [stmt]


def _target_names(target: ast.AST) -> list[tuple[str, int]]:
    """Plain names bound by an assignment target (nested tuples ok)."""
    if isinstance(target, ast.Name):
        return [(target.id, target.lineno)]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[tuple[str, int]] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []  # attribute / subscript stores bind no local name


def _walrus_defs(exprs: Iterable[ast.AST]) -> list[tuple[str, int]]:
    defs: list[tuple[str, int]] = []
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                defs.append((node.target.id, node.target.lineno))
    return defs


def stmt_defs(stmt: ast.AST) -> list[tuple[str, int]]:
    """``(name, line)`` bindings created by the statement's header."""
    defs: list[tuple[str, int]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            defs.extend(_target_names(target))
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            defs.extend(_target_names(stmt.target))
    elif isinstance(stmt, ast.AugAssign):
        defs.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        defs.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                defs.extend(_target_names(item.optional_vars))
    elif isinstance(stmt, ast.ExceptHandler):
        if stmt.name:
            defs.append((stmt.name, stmt.lineno))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        defs.append((stmt.name, stmt.lineno))
    elif isinstance(stmt, ast.Import):
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            defs.append((name, stmt.lineno))
    elif isinstance(stmt, ast.ImportFrom):
        for alias in stmt.names:
            if alias.name != "*":
                defs.append((alias.asname or alias.name, stmt.lineno))
    defs.extend(_walrus_defs(header_exprs(stmt)))
    return defs


def stmt_uses(stmt: ast.AST) -> set[str]:
    """Names the statement's header reads (closure-conservative)."""
    uses: set[str] = set()
    for expr in header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add(node.id)
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        uses.add(stmt.target.id)  # x += 1 reads the old value of x
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        # Value expression plus subscript/attribute target bases.
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add(node.id)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Closure capture: any name the nested scope loads counts as a
        # use at the definition site.
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add(node.id)
    return uses


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


class ForwardAnalysis:
    """A pluggable lattice for :func:`solve_forward`.

    Facts must be immutable and support ``==``; ``frozenset`` is the
    usual choice.  ``transfer`` is applied statement-by-statement within
    a block; ``join`` merges facts at control-flow merges (must be
    commutative, associative and monotone for termination).
    """

    def initial(self) -> object:
        """Fact entering the virtual entry block."""
        return frozenset()

    def join(self, left: object, right: object) -> object:
        return left | right  # type: ignore[operator]

    def transfer(self, fact: object, stmt: ast.AST) -> object:
        raise NotImplementedError


def solve_forward(
    cfg: CFG, analysis: ForwardAnalysis
) -> tuple[dict[int, object], dict[int, object]]:
    """Worklist iteration to fixpoint; returns ``(in_facts, out_facts)``.

    Only blocks reachable from the entry appear in the result maps.
    The worklist is a min-heap of block indices, so iteration order —
    and therefore any floating-point-free analysis result — is fully
    deterministic.
    """
    in_facts: dict[int, object] = {ENTRY: analysis.initial()}
    out_facts: dict[int, object] = {}
    heap: list[int] = [ENTRY]
    queued = {ENTRY}
    while heap:
        index = heapq.heappop(heap)
        queued.discard(index)
        fact = in_facts[index]
        for stmt in cfg.blocks[index].stmts:
            fact = analysis.transfer(fact, stmt)
        if out_facts.get(index, _MISSING) == fact:
            continue  # nothing changed downstream
        out_facts[index] = fact
        for succ in cfg.blocks[index].succs:
            merged = (analysis.join(in_facts[succ], fact)
                      if succ in in_facts else fact)
            if in_facts.get(succ, _MISSING) != merged:
                in_facts[succ] = merged
                if succ not in queued:
                    heapq.heappush(heap, succ)
                    queued.add(succ)
    return in_facts, out_facts


class _Missing:
    """Sentinel distinct from every analysis fact."""


_MISSING = _Missing()


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


class ReachingDefinitions(ForwardAnalysis):
    """Classic reaching definitions: facts are ``frozenset[(name, line)]``.

    A definition of ``name`` kills every earlier definition of the same
    name on that path; joins union the surviving sets.
    """

    def transfer(self, fact: frozenset, stmt: ast.AST) -> frozenset:
        defs = stmt_defs(stmt)
        if not defs:
            return fact
        killed = {name for name, _ in defs}
        return frozenset(
            {d for d in fact if d[0] not in killed} | set(defs)
        )
