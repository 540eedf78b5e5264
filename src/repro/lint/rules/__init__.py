"""The shipped reprolint rule set.

Importing this package registers every pass with the framework registry
(:func:`repro.lint.framework.register_pass`). Third-party / future
passes follow the same pattern: subclass ``LintPass`` (or
``FileLintPass``), decorate with ``@register_pass``, and import the
module before calling :func:`repro.lint.framework.run_lint`.

The per-file passes (dtype, epsilon, nondeterminism, imports,
public-api) inspect one module at a time; the whole-program passes
(contract-consistency, fork-safety, metric-schema) resolve
names and calls across modules through ``project.symbols`` /
``project.call_graph`` (:mod:`repro.lint.graph`).
"""

from __future__ import annotations

from . import (
    contracts_check,
    dtype,
    epsilon,
    fork_safety,
    imports,
    metric_schema,
    nondeterminism,
    public_api,
)
from .common import HOT_PACKAGES
from .contracts_check import ContractConsistencyPass
from .dtype import DtypeDisciplinePass
from .epsilon import EpsilonComparisonPass
from .fork_safety import ForkSafetyPass
from .imports import LAYERS, ImportHygienePass
from .metric_schema import MetricSchemaPass
from .nondeterminism import NondeterminismPass
from .public_api import PublicApiPass

__all__ = [
    "HOT_PACKAGES",
    "LAYERS",
    "ContractConsistencyPass",
    "DtypeDisciplinePass",
    "EpsilonComparisonPass",
    "ForkSafetyPass",
    "ImportHygienePass",
    "MetricSchemaPass",
    "NondeterminismPass",
    "PublicApiPass",
]
