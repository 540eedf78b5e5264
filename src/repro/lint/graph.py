"""Whole-program layer: symbol table, name binding, and call graph.

Built on top of the per-file :class:`~repro.lint.framework.ModuleInfo`
parse results, this module gives interprocedural passes three things:

* :class:`SymbolTable` — every top-level function, class, method, and
  module-level variable in the project under a dotted *qualname*
  (``repro.streaming.session.run_session``), plus per-module import
  bindings so a name written in one module resolves to the symbol it
  denotes in another (including ``import x as y``, ``from a.b import c
  as d``, and re-export chains through package ``__init__`` files).
* :class:`CallGraph` — resolved call edges between those symbols, with
  BFS reachability (:meth:`CallGraph.reachable`) that maps every
  reached function back to the root it came from, for diagnostics.
* :func:`callable_refs` — the function references an expression can
  denote (unwrapping ``functools.partial`` and conditional expressions),
  used to resolve worker ``target=`` arguments project-wide.

Resolution is deliberately conservative and static: only names that
bind to project symbols through imports or local definitions resolve;
attribute access on runtime values (``server.next_frame``) yields no
edge. Function-local imports are folded into the module's binding
environment — an approximation that trades scope fidelity for seeing
the sanctioned lazy-import idiom, which is exactly where cross-layer
calls hide.

Everything here is lazy: :class:`~repro.lint.framework.Project` exposes
``project.symbols`` / ``project.call_graph`` properties that build the
structures on first use and share them across passes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .framework import ModuleInfo, Project

__all__ = ["Symbol", "SymbolTable", "CallGraph", "callable_refs", "dotted_parts"]


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` expression -> ("a", "b", "c"); None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _relative_base(module: str, node: ast.ImportFrom, is_package: bool) -> Optional[str]:
    """Absolute module a ``from ... import`` pulls from, seen from ``module``."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    drop = node.level - (1 if is_package else 0)
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def callable_refs(node: ast.AST) -> List[Tuple[str, ...]]:
    """Dotted references an expression may pass as a callable.

    Unwraps ``partial(f, ...)`` to ``f`` and follows both arms of a
    conditional expression (``partial(f, x=1) if flag else f``).
    """
    if isinstance(node, ast.Call):
        chain = dotted_parts(node.func)
        if chain and chain[-1] == "partial" and node.args:
            return callable_refs(node.args[0])
        return []
    if isinstance(node, ast.IfExp):
        return callable_refs(node.body) + callable_refs(node.orelse)
    chain = dotted_parts(node)
    return [chain] if chain else []


@dataclass(frozen=True)
class Symbol:
    """One project-level definition, addressed by dotted qualname."""

    qualname: str
    module_name: str
    kind: str  # "function" | "class" | "method" | "variable"
    node: ast.AST = field(compare=False, repr=False)
    module: ModuleInfo = field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


class SymbolTable:
    """Project-wide qualname index plus per-module name bindings."""

    def __init__(self, project: Project) -> None:
        self.defs: Dict[str, Symbol] = {}
        #: module name -> local name -> absolute dotted target.
        self.bindings: Dict[str, Dict[str, str]] = {}
        self._modules: Dict[str, ModuleInfo] = {
            m.name: m for m in project.modules if m.name and m.tree is not None
        }
        for mod in self._modules.values():
            self._index_module(mod)

    # -- construction ---------------------------------------------------

    def _index_module(self, mod: ModuleInfo) -> None:
        assert mod.tree is not None and mod.name is not None
        name = mod.name
        bindings = self.bindings.setdefault(name, {})
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        bindings[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = _relative_base(name, node, mod.is_package_init)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bindings[alias.asname or alias.name] = f"{base}.{alias.name}"
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add(mod, f"{name}.{stmt.name}", "function", stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._add(mod, f"{name}.{stmt.name}", "class", stmt)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add(
                            mod, f"{name}.{stmt.name}.{sub.name}", "method", sub
                        )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._add(mod, f"{name}.{target.id}", "variable", stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self._add(mod, f"{name}.{stmt.target.id}", "variable", stmt)

    def _add(self, mod: ModuleInfo, qualname: str, kind: str, node: ast.AST) -> None:
        # First binding wins: later re-assignments of a module variable
        # don't change what the name statically denotes for our purposes.
        self.defs.setdefault(
            qualname,
            Symbol(
                qualname=qualname,
                module_name=mod.name,  # type: ignore[arg-type]
                kind=kind,
                node=node,
                module=mod,
            ),
        )

    # -- lookup ---------------------------------------------------------

    def functions(self) -> Iterator[Symbol]:
        for sym in self.defs.values():
            if sym.kind in ("function", "method"):
                yield sym

    def resolve(
        self, module_name: str, dotted: Sequence[str]
    ) -> Optional[Symbol]:
        """Resolve a dotted reference as written inside ``module_name``."""
        if not dotted:
            return None
        head = dotted[0]
        local = f"{module_name}.{head}"
        if local in self.defs:
            if len(dotted) == 1:
                return self.defs[local]
            # Attribute on a local definition (Class.method).
            return self.qualified(".".join([local, *dotted[1:]]))
        target = self.bindings.get(module_name, {}).get(head)
        if target is not None:
            return self.qualified(".".join([target, *dotted[1:]]))
        return None

    def qualified(
        self, qualname: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Symbol]:
        """Resolve an absolute dotted path, chasing re-export bindings."""
        seen = _seen if _seen is not None else set()
        if qualname in seen:
            return None
        seen.add(qualname)
        if qualname in self.defs:
            return self.defs[qualname]
        parts = qualname.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:i])
            if mod_name not in self._modules:
                continue
            attrs = parts[i:]
            # ``from .framework import run_lint`` in a package __init__
            # makes ``pkg.run_lint`` an alias for the real definition.
            target = self.bindings.get(mod_name, {}).get(attrs[0])
            if target is not None:
                return self.qualified(".".join([target, *attrs[1:]]), seen)
            return self.defs.get(qualname)
        return None


class CallGraph:
    """Resolved call edges between project function/method symbols."""

    def __init__(self, project: Project, table: Optional[SymbolTable] = None) -> None:
        self.table = table if table is not None else project.symbols
        #: caller qualname -> set of callee qualnames.
        self.edges: Dict[str, Set[str]] = {}
        for sym in self.table.functions():
            self._index(sym)

    def _index(self, sym: Symbol) -> None:
        callees = self.edges.setdefault(sym.qualname, set())
        for node in ast.walk(sym.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self.resolve_call(sym, node)
            if callee is None:
                continue
            callees.add(callee.qualname)

    def resolve_call(self, sym: Symbol, call: ast.Call) -> Optional[Symbol]:
        """The function/method symbol a call inside ``sym`` dispatches to."""
        chain = dotted_parts(call.func)
        if not chain:
            return None
        target: Optional[Symbol]
        if chain[0] == "self" and sym.kind == "method" and len(chain) == 2:
            owner = sym.qualname.rsplit(".", 1)[0]
            target = self.table.qualified(f"{owner}.{chain[1]}")
        else:
            target = self.table.resolve(sym.module_name, chain)
        if target is not None and target.kind == "class":
            # Constructing a class runs its __init__ when it defines one.
            init = self.table.qualified(f"{target.qualname}.__init__")
            if init is not None:
                target = init
        if target is not None and target.kind in ("function", "method"):
            return target
        return None

    def reachable(self, roots: Iterable[str]) -> Dict[str, str]:
        """BFS closure over call edges: reached qualname -> its root."""
        origin: Dict[str, str] = {}
        queue: List[str] = []
        for root in roots:
            if root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.edges.get(current, ())):
                if callee not in origin:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin
