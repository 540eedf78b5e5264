"""Lightweight metrics primitives: counters + streaming histograms.

A deliberately tiny, dependency-free metrics layer (in the spirit of a
Prometheus client, scoped to what the streaming simulator needs): the
session loop feeds per-frame :class:`~repro.streaming.pipeline.FrameTrace`
spans into a :class:`MetricsRegistry`, whose ``to_dict`` travels in the
trace export next to the raw traces.

Histograms are *streaming*: they keep count/sum/min/max plus fixed bucket
counts (log-spaced by default, which suits latencies spanning 0.01 ms
display waits to 300 ms full-frame SR), so memory stays O(buckets) no
matter how many frames a session streams.

Every metric name is pinned: :class:`MetricsRegistry` creates a counter
or histogram only for a name that
:func:`~repro.observability.schema.match_metric_family` resolves to a
family of the same kind, and raises ``ValueError`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .schema import METRIC_FAMILIES, match_metric_family

__all__ = ["Counter", "Histogram", "MetricsRegistry", "default_latency_buckets"]


def default_latency_buckets(
    start_ms: float = 0.01, factor: float = 2.0, count: int = 18
) -> List[float]:
    """Log-spaced bucket upper bounds: 0.01 ms .. ~1.3 s by default."""
    if start_ms <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start_ms > 0, factor > 1, count >= 1")
    return [start_ms * factor**i for i in range(count)]


#: The default bounds, one tuple shared by every histogram that does not
#: pass its own (a session registry holds dozens of histograms).
_DEFAULT_BOUNDS: Tuple[float, ...] = tuple(default_latency_buckets())


@dataclass
class Counter:
    """A monotonically increasing counter."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


@dataclass
class Histogram:
    """Fixed-bucket streaming histogram with count/sum/min/max."""

    name: str
    #: Inclusive upper bounds of the finite buckets; observations above
    #: the last bound land in the implicit +inf overflow bucket.
    bounds: Sequence[float] = _DEFAULT_BOUNDS
    counts: List[int] = field(init=False)
    count: int = field(init=False, default=0)
    sum: float = field(init=False, default=0.0)
    min: float = field(init=False, default=math.inf)
    max: float = field(init=False, default=-math.inf)

    def __post_init__(self) -> None:
        bounds = tuple(self.bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow bucket

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


def _check_family(name: str, kind: str) -> None:
    """Raise unless ``name`` belongs to a METRIC_FAMILIES entry of ``kind``."""
    family = match_metric_family(name)
    if family is None:
        raise ValueError(
            f"metric {name!r} is not a registered family; add it to "
            "METRIC_FAMILIES in repro/observability/schema.py (or fix the name)"
        )
    if METRIC_FAMILIES[family] != kind:
        raise ValueError(
            f"metric {name!r} (family {family!r}) is registered as a "
            f"{METRIC_FAMILIES[family]}, not a {kind}"
        )


class MetricsRegistry:
    """Get-or-create registry of named counters and histograms.

    Only the create branch checks the name against ``METRIC_FAMILIES``;
    a lookup of an existing metric is a plain dict hit.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            _check_family(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            _check_family(name, "histogram")
            metric = self._histograms[name] = (
                Histogram(name, bounds) if bounds is not None else Histogram(name)
            )
        return metric

    def names(self) -> List[str]:
        return sorted(list(self._counters) + list(self._histograms))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in self.names():
            metric = self._counters.get(name) or self._histograms[name]
            out[name] = metric.to_dict()
        return out
