"""The shipped reprolint rule set.

Importing this package registers every pass with the framework registry
(:func:`repro.lint.framework.register_pass`). A new pass subclasses
``LintPass``, is decorated with ``@register_pass``, and is imported here.

``import-hygiene`` reads each module's import statements;
``fork-safety`` resolves names and calls across modules through
``project.symbols`` / ``project.call_graph`` (:mod:`repro.lint.graph`).
Metric names, ``@shaped`` specs and public ``__all__`` lists are not
linted: the program and its tests check them at run time
(``MetricsRegistry`` on a metric's first emission,
``repro.contracts.shaped`` at import, ``tests/test_public_api.py``).
"""

from __future__ import annotations

from .fork_safety import ForkSafetyPass
from .imports import LAYERS, ImportHygienePass

__all__ = [
    "LAYERS",
    "ForkSafetyPass",
    "ImportHygienePass",
]
