"""In-memory fixture modules for linting snippets under synthetic names."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.framework import ModuleInfo


def make_module(
    source: str,
    name: str | None = "repro.core.fixture",
    rel: str | None = None,
) -> ModuleInfo:
    """Build an in-memory ModuleInfo from a source snippet.

    ``name`` places the snippet inside the package tree (both rules key
    off it); ``name=None`` models a script/benchmark outside any package
    root.
    """
    if rel is None:
        rel = (name.replace(".", "/") + ".py") if name else "fixture.py"
    return ModuleInfo(
        path=Path(rel),
        rel=rel,
        tree=ast.parse(source),
        name=name,
    )
