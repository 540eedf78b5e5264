"""The shipped reprolint rule set.

Importing this package registers every pass with the framework registry
(:func:`repro.lint.framework.register_pass`). Third-party / future
passes follow the same pattern: subclass ``LintPass`` (or
``FileLintPass``), decorate with ``@register_pass``, and import the
module before calling :func:`repro.lint.framework.run_lint`.

The per-file passes (dtype, epsilon, nondeterminism, imports,
public-api) inspect one module at a time; the one whole-program pass,
fork-safety, resolves names and calls across modules through
``project.symbols`` / ``project.call_graph`` (:mod:`repro.lint.graph`).
Metric names and ``@shaped`` specs are not linted: the program checks
them itself where they are created (``MetricsRegistry`` on a metric's
first emission, ``repro.contracts.shaped`` at import).
"""

from __future__ import annotations

from . import dtype, epsilon, fork_safety, imports, nondeterminism, public_api
from .common import HOT_PACKAGES
from .dtype import DtypeDisciplinePass
from .epsilon import EpsilonComparisonPass
from .fork_safety import ForkSafetyPass
from .imports import LAYERS, ImportHygienePass
from .nondeterminism import NondeterminismPass
from .public_api import PublicApiPass

__all__ = [
    "HOT_PACKAGES",
    "LAYERS",
    "DtypeDisciplinePass",
    "EpsilonComparisonPass",
    "ForkSafetyPass",
    "ImportHygienePass",
    "NondeterminismPass",
    "PublicApiPass",
]
