"""reprolint framework: modules, findings, the pass registry, the reporter.

The framework is dependency-free (stdlib ``ast`` only) and knows nothing
about individual rules — passes live in :mod:`repro.lint.rules` and
register themselves with :func:`register_pass`. The pipeline is::

    paths -> collect_modules -> Project -> every pass -> Finding stream
          -> text reporter + exit code

There is no suppression comment and no baseline: a finding is fixed in
the code (a function-local import, state passed in explicitly, an
``lru_cache`` memo), never waved through.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "LintPass",
    "register_pass",
    "registered_passes",
    "collect_modules",
    "LintResult",
    "run_lint",
    "render_text",
    "SYNTAX_RULE",
]

#: Pseudo-rule used for files that fail to parse.
SYNTAX_RULE = "syntax-error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str  # posix-style path as given on the command line
    line: int  # 1-based; 0 for whole-file/project findings
    col: int
    message: str


class ModuleInfo:
    """One parsed source file plus the metadata passes need."""

    def __init__(
        self,
        path: Path,
        rel: str,
        tree: Optional[ast.Module],
        name: Optional[str] = None,
    ) -> None:
        self.path = path
        self.rel = rel
        self.tree = tree
        #: Dotted module name when the file belongs to an importable
        #: package rooted at a ``src/`` directory (``repro.codec.motion``);
        #: None for scripts/benchmarks/tests outside a package root.
        self.name = name

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    @classmethod
    def from_path(
        cls, path: Path, rel: Optional[str] = None, name: Optional[str] = None
    ) -> "ModuleInfo":
        rel_text = rel if rel is not None else path.as_posix()
        if name is None:
            name = _derive_module_name(path)
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            tree = None
        return cls(path=path, rel=rel_text, tree=tree, name=name)


def _derive_module_name(path: Path) -> Optional[str]:
    """Dotted module name for files under a ``src/`` package root."""
    parts = list(path.resolve().parts)
    if "src" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("src")
    module_parts = parts[idx + 1 :]
    if not module_parts or not module_parts[-1].endswith(".py"):
        return None
    module_parts[-1] = module_parts[-1][: -len(".py")]
    if module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    return ".".join(module_parts) if module_parts else None


class Project:
    """Every module under lint, with name-indexed access for graph passes."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self._symbols = None
        self._call_graph = None

    @property
    def symbols(self):
        """Lazily-built project :class:`~repro.lint.graph.SymbolTable`,
        shared by every whole-program pass in a run."""
        if self._symbols is None:
            from .graph import SymbolTable

            self._symbols = SymbolTable(self)
        return self._symbols

    @property
    def call_graph(self):
        """Lazily-built project :class:`~repro.lint.graph.CallGraph`."""
        if self._call_graph is None:
            from .graph import CallGraph

            self._call_graph = CallGraph(self, self.symbols)
        return self._call_graph


class LintPass:
    """Base class for a registered rule. Subclasses set ``name`` and
    ``description`` and implement :meth:`run` over the whole project."""

    name: str = ""
    description: str = ""

    def run(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, mod: ModuleInfo, node: Optional[ast.AST], message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=mod.rel,
            line=getattr(node, "lineno", 0) if node is not None else 0,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            message=message,
        )


_REGISTRY: Dict[str, Type[LintPass]] = {}


def register_pass(cls: Type[LintPass]) -> Type[LintPass]:
    """Class decorator adding a pass to the global registry."""
    if not cls.name:
        raise ValueError(f"lint pass {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate lint pass name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registered_passes() -> Dict[str, Type[LintPass]]:
    """Name -> class for every registered pass (rules import on demand)."""
    from . import rules  # noqa: F401  -- importing registers the passes

    return dict(sorted(_REGISTRY.items()))


def collect_modules(paths: Sequence[str]) -> List[ModuleInfo]:
    """Expand files/directories into parsed ModuleInfos (sorted, deduped)."""
    seen = set()
    files: List[Tuple[str, Path]] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if "__pycache__" in sub.parts:
                    continue
                if sub.resolve() not in seen:
                    seen.add(sub.resolve())
                    files.append((sub.as_posix(), sub))
        elif p.suffix == ".py" and p.exists():
            if "__pycache__" in p.parts:
                continue
            if p.resolve() not in seen:
                seen.add(p.resolve())
                files.append((p.as_posix(), p))
    return [ModuleInfo.from_path(path, rel=rel) for rel, path in files]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def run_lint(
    paths: Sequence[str],
    rule_names: Optional[Sequence[str]] = None,
    modules: Optional[Sequence[ModuleInfo]] = None,
) -> LintResult:
    """Run the selected passes over ``paths`` and collect their findings.

    ``modules`` overrides path collection (used by tests to lint fixture
    snippets under synthetic module names).
    """
    passes = registered_passes()
    if rule_names is not None:
        unknown = set(rule_names) - set(passes)
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")
        passes = {k: v for k, v in passes.items() if k in rule_names}

    mods = list(modules) if modules is not None else collect_modules(paths)
    project = Project(mods)

    findings = [
        Finding(
            rule=SYNTAX_RULE,
            path=mod.rel,
            line=1,
            col=0,
            message="file does not parse",
        )
        for mod in mods
        if mod.tree is None
    ]
    for pass_cls in passes.values():
        findings.extend(pass_cls().run(project))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintResult(findings=findings, modules=len(mods))


def render_text(result: LintResult) -> str:
    out: List[str] = []
    for f in result.findings:
        location = f"{f.path}:{f.line}:{f.col + 1}" if f.line else f.path
        out.append(f"{location}: [{f.rule}] {f.message}")
    summary = f"{len(result.findings)} finding(s) across {result.modules} file(s)"
    out.append(("FAIL: " if result.findings else "ok: ") + summary)
    return "\n".join(out)
