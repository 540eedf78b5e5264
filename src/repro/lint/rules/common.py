"""Shared AST helpers for the rule passes."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..framework import ModuleInfo
from ..graph import dotted_parts

__all__ = [
    "HOT_PACKAGES",
    "numpy_aliases",
    "module_aliases",
    "np_call_name",
    "walk_calls",
]

#: The packages whose numerics PRs 1-4 froze: dtype discipline and
#: determinism are enforced here (ISSUE 5 tentpole).
HOT_PACKAGES = ("repro.neural", "repro.sr", "repro.codec", "repro.core")


def module_aliases(mod: ModuleInfo, module: str) -> Set[str]:
    """Names the file binds to ``module`` via ``import module [as alias]``."""
    aliases: Set[str] = set()
    assert mod.tree is not None
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases


def numpy_aliases(mod: ModuleInfo) -> Set[str]:
    return module_aliases(mod, "numpy")


def np_call_name(node: ast.Call, aliases: Set[str]) -> Optional[str]:
    """``"zeros"`` when ``node`` calls ``np.zeros`` for any numpy alias."""
    chain = dotted_parts(node.func)
    if chain and len(chain) == 2 and chain[0] in aliases:
        return chain[1]
    return None


def walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
