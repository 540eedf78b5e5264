"""reprolint, AST static analysis enforcing the repo's hard invariants.

``python -m repro.lint src tests scripts benchmarks`` runs a
plugin-style registry of AST passes (no third-party dependencies):
``import-hygiene`` keeps the package layer order and the import graph
acyclic, and ``fork-safety`` keeps everything a process-pool worker
reaches free of forked mutable state, unseeded RNG and wall-clock
reads. There are no suppressions and no baseline; a finding is fixed in
the code. See DESIGN.md ("Static analysis & runtime contracts") for the
rule catalogue, and :mod:`repro.contracts` for the paired runtime
shape/dtype contract layer.
"""

from __future__ import annotations

from .framework import (
    Finding,
    LintPass,
    LintResult,
    ModuleInfo,
    Project,
    collect_modules,
    register_pass,
    registered_passes,
    render_text,
    run_lint,
)

__all__ = [
    "Finding",
    "LintPass",
    "LintResult",
    "ModuleInfo",
    "Project",
    "collect_modules",
    "register_pass",
    "registered_passes",
    "render_text",
    "run_lint",
]
