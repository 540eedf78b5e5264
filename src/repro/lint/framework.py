"""reprolint framework: modules, findings, suppressions, baseline, reporters.

The framework is dependency-free (stdlib ``ast`` only) and knows nothing
about individual rules — passes live in :mod:`repro.lint.rules` and
register themselves with :func:`register_pass`. The pipeline is::

    paths -> collect_modules -> Project -> every pass -> Finding stream
          -> suppression filter (# reprolint: disable=<rule>)
          -> baseline filter (checked-in grandfathered findings)
          -> reporter (text/json) + exit code

Suppressions
------------
``# reprolint: disable=rule-a,rule-b`` on a line suppresses those rules'
findings *on that line* (put it on the first line of a multi-line
statement, where ``ast`` anchors the node). ``disable=all`` suppresses
every rule. ``# reprolint: disable-file=rule-a`` anywhere in a file
suppresses the rule for the whole file. Anything after ``--`` in the
comment is a free-form justification.

Baseline
--------
The baseline file grandfathers pre-existing findings (frozen legacy
benchmark copies, mostly). Entries match on ``(rule, path, source-line
text)`` — not line numbers — so unrelated edits don't invalidate them,
while *changing* a grandfathered line surfaces the finding again.
Regenerate with ``python -m repro.lint ... --write-baseline``.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "LintPass",
    "FileLintPass",
    "register_pass",
    "registered_passes",
    "collect_modules",
    "load_baseline",
    "baseline_entries",
    "write_baseline",
    "LintResult",
    "run_lint",
    "render_text",
    "render_json",
    "SYNTAX_RULE",
]

#: Pseudo-rule used for files that fail to parse.
SYNTAX_RULE = "syntax-error"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str  # posix-style path as given on the command line
    line: int  # 1-based; 0 for whole-file/project findings
    col: int
    message: str
    text: str = ""  # stripped source of the offending line (baseline key)

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.text)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "text": self.text,
        }


class ModuleInfo:
    """One parsed source file plus the metadata passes need."""

    def __init__(
        self,
        path: Path,
        rel: str,
        source: str,
        tree: Optional[ast.Module],
        name: Optional[str] = None,
    ) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree = tree
        #: Dotted module name when the file belongs to an importable
        #: package rooted at a ``src/`` directory (``repro.codec.motion``);
        #: None for scripts/benchmarks/tests outside a package root.
        self.name = name
        self.lines: List[str] = source.splitlines()
        self._suppress_lines: Optional[Dict[int, set]] = None
        self._suppress_file: Optional[set] = None
        self._decorator_owner: Optional[Dict[int, int]] = None

    @property
    def is_test(self) -> bool:
        parts = {p.lower() for p in Path(self.rel).parts}
        stem = Path(self.rel).name
        return (
            "tests" in parts
            or "test" in parts
            or stem.startswith("test_")
            or stem == "conftest.py"
        )

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def in_package(self, prefixes: Sequence[str]) -> bool:
        if self.name is None:
            return False
        return any(
            self.name == p or self.name.startswith(p + ".") for p in prefixes
        )

    def _scan_suppressions(self) -> None:
        per_line: Dict[int, set] = {}
        whole_file: set = set()
        for lineno, line in enumerate(self.lines, start=1):
            if "reprolint" not in line:
                continue
            for match in _SUPPRESS_RE.finditer(line):
                kind = match.group(1)
                rules = {r.strip() for r in match.group(2).split(",") if r.strip()}
                if kind == "disable-file":
                    whole_file |= rules
                else:
                    per_line.setdefault(lineno, set()).update(rules)
        self._suppress_lines = per_line
        self._suppress_file = whole_file

    def _scan_decorators(self) -> None:
        """Map every decorator line to the line of the ``def``/``class``
        it adorns, so a suppression on the definition line also covers
        findings ast-anchored inside its decorators."""
        owner: Dict[int, int] = {}
        if self.tree is not None:
            for node in ast.walk(self.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                for deco in node.decorator_list:
                    end = getattr(deco, "end_lineno", None) or deco.lineno
                    for line in range(deco.lineno, end + 1):
                        owner.setdefault(line, node.lineno)
        self._decorator_owner = owner

    def suppressed(self, finding: Finding) -> bool:
        if self._suppress_lines is None:
            self._scan_suppressions()
        if self._decorator_owner is None:
            self._scan_decorators()
        assert self._suppress_lines is not None and self._suppress_file is not None
        assert self._decorator_owner is not None
        if {finding.rule, "all"} & self._suppress_file:
            return True
        for line in (finding.line, self._decorator_owner.get(finding.line)):
            if line is None:
                continue
            rules = self._suppress_lines.get(line, ())
            if finding.rule in rules or "all" in rules:
                return True
        return False

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    @classmethod
    def from_path(
        cls, path: Path, rel: Optional[str] = None, name: Optional[str] = None
    ) -> "ModuleInfo":
        source = path.read_text()
        rel_text = rel if rel is not None else path.as_posix()
        if name is None:
            name = _derive_module_name(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            tree = None
        return cls(path=path, rel=rel_text, source=source, tree=tree, name=name)


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
        self,
        mod: ModuleInfo,
        node: Optional[ast.AST],
        message: str,
        text: Optional[str] = None,
    ) -> Finding:
        line = getattr(node, "lineno", 0) if node is not None else 0
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule=self.name,
            path=mod.rel,
            line=line,
            col=col,
            message=message,
            text=text if text is not None else mod.line_text(line),
        )


class FileLintPass(LintPass):
    """Convenience base for passes that inspect one module at a time."""

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None:
                continue
            yield from self.check_module(mod, project)

    def check_module(self, mod: ModuleInfo, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


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


def load_baseline(path: Path) -> Counter:
    """Multiset of grandfathered ``(rule, path, text)`` keys."""
    data = json.loads(path.read_text())
    entries = data.get("entries", []) if isinstance(data, dict) else data
    counter: Counter = Counter()
    for entry in entries:
        counter[(entry["rule"], entry["path"], entry.get("text", ""))] += 1
    return counter


def baseline_entries(findings: Iterable[Finding]) -> List[Dict[str, str]]:
    return [
        {"rule": f.rule, "path": f.path, "text": f.text}
        for f in sorted(findings, key=lambda f: (f.path, f.rule, f.line))
    ]


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    payload = {"version": 1, "entries": baseline_entries(findings)}
    path.write_text(json.dumps(payload, indent=2) + "\n")


@dataclass
class LintResult:
    """Outcome of one lint run, pre-split for reporting."""

    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[Tuple[str, str, str]] = field(default_factory=list)
    modules: int = 0

    @property
    def ok(self) -> bool:
        return not self.new


def run_lint(
    paths: Sequence[str],
    rule_names: Optional[Sequence[str]] = None,
    baseline: Optional[Counter] = None,
    modules: Optional[Sequence[ModuleInfo]] = None,
) -> LintResult:
    """Run the selected passes and partition findings.

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
    result = LintResult(modules=len(mods))

    all_findings: List[Finding] = []
    for mod in mods:
        if mod.tree is None:
            all_findings.append(
                Finding(
                    rule=SYNTAX_RULE,
                    path=mod.rel,
                    line=1,
                    col=0,
                    message="file does not parse",
                    text="",
                )
            )
    for pass_cls in passes.values():
        all_findings.extend(pass_cls().run(project))

    remaining = Counter(baseline) if baseline else Counter()
    by_rel = {m.rel: m for m in mods}
    for finding in sorted(all_findings, key=lambda f: (f.path, f.line, f.rule)):
        mod = by_rel.get(finding.path)
        if mod is not None and finding.line and mod.suppressed(finding):
            result.suppressed.append(finding)
        elif remaining.get(finding.key(), 0) > 0:
            remaining[finding.key()] -= 1
            result.baselined.append(finding)
        else:
            result.new.append(finding)
    result.stale_baseline = sorted(
        key for key, count in remaining.items() if count > 0
    )
    return result


def render_text(result: LintResult, verbose: bool = False) -> str:
    out: List[str] = []
    for f in result.new:
        location = f"{f.path}:{f.line}:{f.col + 1}" if f.line else f.path
        out.append(f"{location}: [{f.rule}] {f.message}")
    if result.stale_baseline:
        out.append("")
        out.append(f"note: {len(result.stale_baseline)} stale baseline entr"
                   f"{'y' if len(result.stale_baseline) == 1 else 'ies'} "
                   "(fixed or moved; regenerate with --write-baseline):")
        for rule, path, text in result.stale_baseline:
            out.append(f"  [{rule}] {path}: {text[:80]}")
    summary = (
        f"{len(result.new)} finding(s), {len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined across {result.modules} file(s)"
    )
    out.append(("FAIL: " if result.new else "ok: ") + summary)
    return "\n".join(out)


def render_json(result: LintResult) -> str:
    payload = {
        "findings": [f.to_dict() for f in result.new],
        "suppressed": len(result.suppressed),
        "baselined": len(result.baselined),
        "stale_baseline": [
            {"rule": r, "path": p, "text": t} for r, p, t in result.stale_baseline
        ],
        "modules": result.modules,
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2)
