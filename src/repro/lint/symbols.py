"""Per-module symbol tables: phase 1 of the whole-program analysis.

While the per-file rule walk looks for *local* violations, the project
pass (``repro.lint.project``) needs a compact, serialisable summary of
every module: what it defines, what it exports, what it imports, which
names it references and which dotted names it calls.  That summary is a
:class:`ModuleSymbols` — cheap to build (one extra AST walk), cheap to
store (plain JSON, so the incremental cache can skip re-parsing
unchanged files entirely) and rich enough to drive the interprocedural
FLOW rules: seed-drop detection, dead-export analysis, import-cycle
search and event-emission coverage.

The extractor deliberately stays approximate: it resolves *names*, not
objects.  That is the right trade-off for a linter — no imports are
executed, a broken module cannot take the analysis down with it, and
the model stays deterministic across platforms.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Directory names that anchor a dotted module name for files outside
#: the ``repro`` package (reference corpus roots).
_ROOT_DIRS = ("tests", "examples", "benchmarks")


def module_name_for(path: str | Path) -> str:
    """Dotted module name for ``path``, best effort.

    ``.../src/repro/core/bandit.py`` -> ``repro.core.bandit``;
    ``.../tests/test_x.py`` -> ``tests.test_x``; anything else falls
    back to the file stem.  ``__init__`` components are dropped so a
    package's name is the directory's dotted path.
    """
    parts = list(Path(path).parts)
    anchor = None
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro" and index < len(parts) - 1:
            anchor = index
            break
    if anchor is None:
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] in _ROOT_DIRS:
                anchor = index
                break
    if anchor is None:
        return Path(path).stem
    dotted = parts[anchor:]
    dotted[-1] = Path(dotted[-1]).stem
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


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


@dataclass(frozen=True)
class ImportRecord:
    """One ``import`` / ``from ... import`` statement, unresolved."""

    module: str              # dotted module as written ("" for `from . import x`)
    names: tuple[str, ...]   # imported names for from-imports, () for plain
    level: int               # relative-import level (0 = absolute)
    line: int
    is_from: bool
    #: True for real module-scope imports.  Function-scope (lazy) and
    #: ``if TYPE_CHECKING:`` imports are recorded for the reference
    #: corpus but excluded from the import graph — deferring an import
    #: is exactly how a runtime cycle is broken, so FLOW003 must not
    #: count those edges.
    toplevel: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {"module": self.module, "names": list(self.names),
                "level": self.level, "line": self.line,
                "is_from": self.is_from, "toplevel": self.toplevel}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ImportRecord":
        return cls(module=data["module"], names=tuple(data["names"]),
                   level=data["level"], line=data["line"],
                   is_from=data["is_from"], toplevel=data["toplevel"])


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition (any nesting depth)."""

    name: str
    qualname: str            # dotted within the module, e.g. "SBCrawler.crawl"
    line: int
    params: tuple[str, ...]  # positional + keyword-only parameter names
    is_public: bool          # public name inside only public classes
    is_method: bool
    is_stub: bool            # body is only docstring/.../pass/raise
    loaded: tuple[str, ...]  # sorted names read (Load context) in the body

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "qualname": self.qualname,
                "line": self.line, "params": list(self.params),
                "is_public": self.is_public, "is_method": self.is_method,
                "is_stub": self.is_stub, "loaded": list(self.loaded)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FunctionInfo":
        return cls(name=data["name"], qualname=data["qualname"],
                   line=data["line"], params=tuple(data["params"]),
                   is_public=data["is_public"], is_method=data["is_method"],
                   is_stub=data["is_stub"], loaded=tuple(data["loaded"]))


@dataclass(frozen=True)
class ClassInfo:
    """One class definition (module or class scope)."""

    name: str
    line: int
    bases: tuple[str, ...]   # dotted base names as written
    is_public: bool

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "line": self.line,
                "bases": list(self.bases), "is_public": self.is_public}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClassInfo":
        return cls(name=data["name"], line=data["line"],
                   bases=tuple(data["bases"]), is_public=data["is_public"])


@dataclass(frozen=True)
class ModuleSymbols:
    """Everything the project pass needs to know about one module."""

    path: str                # path string as given to the linter
    module: str              # dotted module name (see module_name_for)
    package: str             # first-level subpackage under repro, or ""
    is_package: bool         # file is an __init__.py
    exports: tuple[tuple[str, int], ...]   # __all__ entries with line numbers
    functions: tuple[FunctionInfo, ...]
    classes: tuple[ClassInfo, ...]
    imports: tuple[ImportRecord, ...]
    refs: tuple[str, ...]    # sorted identifiers referenced anywhere
    calls: tuple[str, ...]   # sorted dotted names that are called

    # -- derived views ---------------------------------------------------

    def ref_set(self) -> frozenset[str]:
        return frozenset(self.refs)

    def call_heads(self) -> frozenset[str]:
        """Last components of every called dotted name."""
        return frozenset(name.rsplit(".", 1)[-1] for name in self.calls)

    def star_imports(self) -> list[ImportRecord]:
        return [rec for rec in self.imports
                if rec.is_from and "*" in rec.names]

    # -- serialisation (incremental cache) -------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "package": self.package,
            "is_package": self.is_package,
            "exports": [[name, line] for name, line in self.exports],
            "functions": [f.to_dict() for f in self.functions],
            "classes": [c.to_dict() for c in self.classes],
            "imports": [i.to_dict() for i in self.imports],
            "refs": list(self.refs),
            "calls": list(self.calls),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModuleSymbols":
        return cls(
            path=data["path"],
            module=data["module"],
            package=data["package"],
            is_package=data["is_package"],
            exports=tuple((name, line) for name, line in data["exports"]),
            functions=tuple(FunctionInfo.from_dict(f)
                            for f in data["functions"]),
            classes=tuple(ClassInfo.from_dict(c) for c in data["classes"]),
            imports=tuple(ImportRecord.from_dict(i)
                          for i in data["imports"]),
            refs=tuple(data["refs"]),
            calls=tuple(data["calls"]),
        )


def _is_stub_body(body: list[ast.stmt]) -> bool:
    """Docstring/``...``/``pass``/``raise`` only — an interface stub."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        if isinstance(stmt, ast.Raise):
            continue  # raise NotImplementedError and friends
        return False
    return True


def _extract_exports(tree: ast.Module) -> tuple[tuple[str, int], ...]:
    exports: list[tuple[str, int]] = []
    for stmt in tree.body:
        value = None
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in stmt.targets):
                value = stmt.value
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__all__":
                value = stmt.value
        if value is None or not isinstance(value, (ast.List, ast.Tuple)):
            continue
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value,
                                                                str):
                exports.append((element.value, element.lineno))
    return tuple(exports)


class _SymbolVisitor(ast.NodeVisitor):
    """Single walk collecting defs, imports, references and call sites."""

    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self.classes: list[ClassInfo] = []
        self.imports: list[ImportRecord] = []
        self.refs: set[str] = set()
        self.calls: set[str] = set()
        #: (kind, name, is_public) scope stack; kind in {"class", "func"}.
        self._scope: list[tuple[str, str, bool]] = []
        #: Nesting depth of ``if TYPE_CHECKING:`` blocks.
        self._type_checking: int = 0

    # -- defs ------------------------------------------------------------

    def _public_context(self) -> bool:
        """True when every enclosing scope is a public *class* (methods of
        public classes are API surface; locals of functions are not)."""
        return all(kind == "class" and public
                   for kind, _, public in self._scope)

    def _qualname(self, name: str) -> str:
        return ".".join([n for _, n, _ in self._scope] + [name])

    def _handle_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        params = tuple(
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        )
        is_method = bool(self._scope) and self._scope[-1][0] == "class"
        public = not node.name.startswith("_") and self._public_context()
        loaded = sorted(
            {child.id for child in ast.walk(node)
             if isinstance(child, ast.Name)
             and isinstance(child.ctx, ast.Load)}
        )
        self.functions.append(FunctionInfo(
            name=node.name,
            qualname=self._qualname(node.name),
            line=node.lineno,
            params=params,
            is_public=public,
            is_method=is_method,
            is_stub=_is_stub_body(node.body),
            loaded=tuple(loaded),
        ))
        self._scope.append(("func", node.name, False))
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(filter(None, (_dotted_name(b) for b in node.bases)))
        public = not node.name.startswith("_") and self._public_context()
        self.classes.append(ClassInfo(
            name=node.name, line=node.lineno, bases=bases, is_public=public,
        ))
        self._scope.append(("class", node.name, public))
        self.generic_visit(node)
        self._scope.pop()

    # -- imports ---------------------------------------------------------

    def _at_runtime_toplevel(self) -> bool:
        return not self._scope and self._type_checking == 0

    def visit_If(self, node: ast.If) -> None:
        guarded = (
            (isinstance(node.test, ast.Name)
             and node.test.id == "TYPE_CHECKING")
            or (isinstance(node.test, ast.Attribute)
                and node.test.attr == "TYPE_CHECKING")
        )
        self.visit(node.test)
        if guarded:
            self._type_checking += 1
        for stmt in node.body:
            self.visit(stmt)
        if guarded:
            self._type_checking -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append(ImportRecord(
                module=alias.name, names=(), level=0, line=node.lineno,
                is_from=False, toplevel=self._at_runtime_toplevel(),
            ))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        names = tuple(alias.name for alias in node.names)
        self.imports.append(ImportRecord(
            module=node.module or "", names=names, level=node.level,
            line=node.lineno, is_from=True,
            toplevel=self._at_runtime_toplevel(),
        ))
        self.refs.update(name for name in names if name != "*")
        self.generic_visit(node)

    # -- references and calls --------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.refs.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.refs.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted:
            self.calls.add(dotted)
        self.generic_visit(node)


def extract_symbols(tree: ast.Module, path: str | Path) -> ModuleSymbols:
    """Build the :class:`ModuleSymbols` summary for one parsed module."""
    visitor = _SymbolVisitor()
    visitor.visit(tree)
    path = str(path)
    module = module_name_for(path)
    package = ""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        package = parts[1]
    return ModuleSymbols(
        path=path,
        module=module,
        package=package,
        is_package=Path(path).name == "__init__.py",
        exports=_extract_exports(tree),
        functions=tuple(visitor.functions),
        classes=tuple(visitor.classes),
        imports=tuple(visitor.imports),
        refs=tuple(sorted(visitor.refs)),
        calls=tuple(sorted(visitor.calls)),
    )
