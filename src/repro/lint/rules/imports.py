"""import-hygiene: no module-level cycles, enforced package layering.

Migrated from ``scripts/check_import_cycles.py`` (now deleted): builds
the module-level import graph of the ``repro`` package from the parsed
ASTs — no imports are executed — and DFS-searches it for cycles.
Function-local lazy imports are intentionally ignored; they are the
sanctioned way to break a cycle.

On top of cycle detection this pass enforces the package layer order
(:data:`LAYERS`, lower = more foundational). A module may only import
packages of strictly lower rank, so e.g. ``repro.core`` can never grow
an import of ``repro.streaming``. New top-level packages must be added
to the table — an unknown package is itself a finding, which keeps the
architecture diagram in DESIGN.md and the enforced reality in sync.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..framework import Finding, LintPass, ModuleInfo, Project, register_pass

__all__ = ["ImportHygienePass", "LAYERS"]

#: Package -> layer rank. An import edge A -> B requires
#: ``LAYERS[pkg(B)] < LAYERS[pkg(A)]``. Entries may be whole top-level
#: packages or individual sub-layers inside one (longest prefix wins),
#: e.g. the base ``repro.sr`` filters/runners must not import the zoo
#: registry in ``repro.sr.backends``, which in turn must not import the
#: dispatcher built on top of it.
LAYERS: Dict[str, int] = {
    "repro.contracts": 0,
    "repro.cache": 1,
    "repro.neural": 1,
    "repro.network": 1,
    "repro.observability": 1,
    "repro.platform": 1,
    "repro.render": 1,
    "repro.metrics": 2,
    "repro.sr": 2,
    "repro.sr.backends": 3,
    "repro.sr.dispatch": 4,
    "repro.codec": 5,
    "repro.core": 5,
    "repro.streaming.adaptive": 5,
    "repro.streaming.abr": 6,
    "repro.streaming": 7,
    "repro.baselines": 8,
    "repro.analysis": 9,
    # A tool over the source, not part of the pipeline: it sits high in
    # the stack so that nothing imports it.
    "repro.lint": 10,
    "repro.cli": 10,
    "repro": 11,
    "repro.__main__": 11,
}

_ROOT_PACKAGE = "repro"


def _package_of(module: str) -> str:
    """Longest LAYERS prefix of ``module``; top-level package otherwise."""
    parts = module.split(".")
    for i in range(len(parts), 1, -1):
        prefix = ".".join(parts[:i])
        if prefix in LAYERS:
            return prefix
    return ".".join(parts[:2]) if len(parts) > 1 else parts[0]


def _resolve_relative(
    module: str, node: ast.ImportFrom, is_package: bool
) -> Optional[str]:
    """Absolute target of a ``from ... import`` as seen from ``module``."""
    if node.level == 0:
        return node.module
    # Level 1 from a package __init__ means the package itself; from a
    # plain module it means the parent package — mirror the import system.
    parts = module.split(".")
    drop = node.level - (1 if is_package else 0)
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level import statements, including those inside try/if blocks
    (still executed at import time) but not inside function/class bodies."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, []):
                    if isinstance(child, ast.ExceptHandler):
                        stack.extend(child.body)
                    elif isinstance(child, ast.stmt):
                        stack.append(child)


def _import_targets(
    mod: ModuleInfo,
) -> Iterator[Tuple[str, ast.stmt]]:
    """(possible absolute target, import node) pairs for one module."""
    assert mod.tree is not None and mod.name is not None
    for node in _module_level_imports(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node
        else:
            base = _resolve_relative(mod.name, node, mod.is_package_init)
            if base is None:
                continue
            yield base, node
            # ``from pkg import sub`` imports pkg.sub when it exists.
            for alias in node.names:
                yield f"{base}.{alias.name}", node


def _edges(
    mod: ModuleInfo, known: Set[str]
) -> Iterator[Tuple[str, ast.stmt]]:
    """Resolved (target module, import node) dependencies of ``mod``."""
    assert mod.name is not None
    seen: Set[str] = set()
    for target, node in _import_targets(mod):
        # Longest known prefix: importing pkg.mod.attr depends on pkg.mod.
        while target and target not in known:
            target = target.rpartition(".")[0]
        if not target or target == mod.name:
            continue
        if not target.startswith(_ROOT_PACKAGE):
            continue
        # A submodule importing its own ancestor package (``from . import
        # sibling``) is not a cycle: the ancestor is already present,
        # partially initialized, in sys.modules when the submodule runs.
        if mod.name.startswith(target + "."):
            continue
        if target in seen:
            continue
        seen.add(target)
        yield target, node


def _find_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    white, grey, black = 0, 1, 2
    color = {node: white for node in graph}
    path: List[str] = []

    def dfs(node: str) -> Optional[List[str]]:
        color[node] = grey
        path.append(node)
        for dep in sorted(graph[node]):
            if color[dep] == grey:
                return path[path.index(dep):] + [dep]
            if color[dep] == white:
                cycle = dfs(dep)
                if cycle:
                    return cycle
        color[node] = black
        path.pop()
        return None

    for node in sorted(graph):
        if color[node] == white:
            cycle = dfs(node)
            if cycle:
                return cycle
    return None


@register_pass
class ImportHygienePass(LintPass):
    name = "import-hygiene"
    description = (
        "module-level import cycles in repro, and package-layering "
        "violations (e.g. repro.core importing repro.streaming)"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        mods = [
            m
            for m in project.modules
            if m.tree is not None
            and m.name is not None
            and (m.name == _ROOT_PACKAGE or m.name.startswith(_ROOT_PACKAGE + "."))
        ]
        if not mods:
            return
        known = {m.name for m in mods}
        graph: Dict[str, Set[str]] = {m.name: set() for m in mods}  # type: ignore[misc]
        by_name = {m.name: m for m in mods}

        for mod in mods:
            for target, node in _edges(mod, known):
                graph[mod.name].add(target)  # type: ignore[index]
                yield from self._check_layering(mod, target, node)

        cycle = _find_cycle(graph)
        if cycle:
            # Anchor the finding on the first module's offending import.
            first, second = cycle[0], cycle[1]
            mod = by_name[first]
            node = next(
                (n for t, n in _edges(mod, known) if t == second), None
            )
            yield self.finding(
                mod,
                node,
                "module-level import cycle: " + " -> ".join(cycle),
            )

    def _check_layering(
        self, mod: ModuleInfo, target: str, node: ast.stmt
    ) -> Iterator[Finding]:
        src_pkg = _package_of(mod.name)  # type: ignore[arg-type]
        dst_pkg = _package_of(target)
        if src_pkg == dst_pkg:
            return
        # A package __init__ aggregating its own subtree (``repro.sr``
        # re-exporting repro.sr.backends) is namespace plumbing, not a
        # layering edge; real cycles are still caught by the cycle pass.
        if mod.is_package_init and target.startswith(mod.name + "."):
            return
        src_rank = LAYERS.get(src_pkg)
        dst_rank = LAYERS.get(dst_pkg)
        if src_rank is None:
            yield self.finding(
                mod,
                node,
                f"package {src_pkg} is not in the repro.lint layer table; "
                "add it to LAYERS in repro/lint/rules/imports.py",
            )
            return
        if dst_rank is None:
            yield self.finding(
                mod,
                node,
                f"import of {dst_pkg}, which is not in the repro.lint layer "
                "table; add it to LAYERS in repro/lint/rules/imports.py",
            )
            return
        if dst_rank >= src_rank:
            yield self.finding(
                mod,
                node,
                f"layering violation: {src_pkg} (layer {src_rank}) must not "
                f"import {dst_pkg} (layer {dst_rank}); only strictly lower "
                "layers are importable",
            )
