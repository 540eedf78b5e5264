"""Trace-driven network scenarios: time-varying links for mobile streaming.

The base :class:`~repro.network.link.NetworkLink` is a single static
pipe. Real mobile streaming lives on LTE/5G/WiFi whose bandwidth, RTT,
and loss swing by an order of magnitude over seconds — the conditions
that motivate every adaptive knob in this repo. This module makes the
link time-varying:

* :class:`TraceSegment` / :class:`LinkTrace` — a piecewise-constant
  schedule of (bandwidth, propagation, loss) over session time, with
  optional looping past the end.
* :class:`GilbertElliott` — the classic two-state Markov burst-loss
  model layered on top of the schedule's baseline loss, so losses
  cluster the way radio fades do instead of arriving i.i.d.
* Exponential propagation jitter — queueing delay in the radio access
  network on top of the deterministic propagation floor.
* :class:`TraceDrivenLink` — a :class:`NetworkLink` subclass that looks
  all of this up at ``transmit(..., at_ms=t)`` time and records the
  instantaneous conditions in :attr:`TraceDrivenLink.last_transmit_meta`
  for observability.
* :func:`build_scenario` — canned cellular/WiFi traces plus a seeded
  synthetic generator (``synthetic:<seed>``), so benchmarks and the CLI
  can name a scenario with one string.

Everything is seeded and deterministic: the same trace + seed yields an
identical :class:`~repro.network.link.TransmitResult` sequence, so a
seeded session replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .link import NetworkLink

__all__ = [
    "TraceSegment",
    "LinkTrace",
    "GilbertElliott",
    "TraceDrivenLink",
    "build_scenario",
    "available_scenarios",
    "synthetic_trace",
    "SCENARIO_NAMES",
]


@dataclass(frozen=True)
class TraceSegment:
    """Constant link conditions over ``[start_ms, next segment)``."""

    start_ms: float
    bandwidth_mbps: float
    propagation_ms: float
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise ValueError(f"start_ms must be >= 0, got {self.start_ms}")
        if self.bandwidth_mbps <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth_mbps}"
            )
        if self.propagation_ms < 0:
            raise ValueError(
                f"propagation must be >= 0, got {self.propagation_ms}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")


@dataclass(frozen=True)
class LinkTrace:
    """A piecewise-constant schedule of link conditions.

    Segments must be sorted by ``start_ms`` with the first at 0. Lookups
    past the last segment either hold its conditions (``loop=False``) or
    wrap around modulo the trace duration (``loop=True``); looping needs
    an explicit ``duration_ms`` past the last segment start.
    """

    name: str
    segments: Tuple[TraceSegment, ...]
    loop: bool = False
    duration_ms: float = 0.0
    jitter_ms: float = 0.0
    ge_loss: Optional["GilbertElliott"] = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trace needs at least one segment")
        if self.segments[0].start_ms != 0.0:
            raise ValueError("first segment must start at 0 ms")
        starts = [s.start_ms for s in self.segments]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("segments must be sorted by strictly increasing start_ms")
        if self.loop and self.duration_ms <= self.segments[-1].start_ms:
            raise ValueError(
                "looping trace needs duration_ms past the last segment start"
            )
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")

    def segment_at(self, at_ms: float) -> TraceSegment:
        """The segment governing instant ``at_ms``."""
        if at_ms < 0:
            raise ValueError(f"at_ms must be >= 0, got {at_ms}")
        if self.loop:
            at_ms = at_ms % self.duration_ms
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.segments[mid].start_ms <= at_ms:
                lo = mid
            else:
                hi = mid - 1
        return self.segments[lo]


@dataclass
class GilbertElliott:
    """Two-state Markov burst-loss model.

    In the *good* state packets are lost with ``p_loss_good``; in the
    *bad* state (a fade) with ``p_loss_bad``. The chain steps once per
    packet: good->bad with ``p_g2b``, bad->good with ``p_b2g``. Mean
    burst length is ``1 / p_b2g`` packets.
    """

    p_g2b: float = 0.01
    p_b2g: float = 0.25
    p_loss_good: float = 0.0
    p_loss_bad: float = 0.5

    def __post_init__(self) -> None:
        for name in ("p_g2b", "p_b2g", "p_loss_good", "p_loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.p_loss_bad >= 1.0 and self.p_b2g == 0.0:
            raise ValueError("absorbing always-lossy bad state never delivers")

    def step(self, in_bad: bool, rng: np.random.Generator) -> Tuple[bool, float]:
        """Advance one packet; returns (new state, loss prob in it)."""
        if in_bad:
            in_bad = rng.random() >= self.p_b2g
        else:
            in_bad = rng.random() < self.p_g2b
        return in_bad, self.p_loss_bad if in_bad else self.p_loss_good


class TraceDrivenLink(NetworkLink):
    """A :class:`NetworkLink` whose conditions follow a :class:`LinkTrace`.

    ``transmit(size, at_ms=t)`` resolves bandwidth/propagation/loss from
    the trace at ``t``, adds seeded exponential jitter to propagation,
    and — when the trace carries a Gilbert–Elliott model — steps the
    burst chain once per packet so losses cluster. The conditions used
    for the last call are published in :attr:`last_transmit_meta` (the
    session layer copies them into the frame's network span metadata).
    """

    def __init__(self, trace: LinkTrace, seed: int = 0) -> None:
        first = trace.segments[0]
        super().__init__(
            bandwidth_mbps=first.bandwidth_mbps,
            propagation_ms=first.propagation_ms,
            loss_rate=first.loss_rate,
            seed=seed,
        )
        self.trace = trace
        self.seed = seed
        self._ge_bad = False
        self._packet_loss_rate = first.loss_rate
        self.last_transmit_meta: Dict[str, object] = {}

    def _conditions_at(self, at_ms: float) -> Tuple[float, float, float]:
        segment = self.trace.segment_at(max(0.0, at_ms))
        propagation = segment.propagation_ms
        jitter = 0.0
        if self.trace.jitter_ms > 0.0:
            jitter = float(self._rng.exponential(self.trace.jitter_ms))
            propagation += jitter
        # Mirror the instantaneous conditions onto the plain-link attrs
        # so serialization_ms()/propagation_ms reads stay coherent, and
        # publish them for span metadata.
        self.bandwidth_mbps = segment.bandwidth_mbps
        self.propagation_ms = propagation
        self.loss_rate = segment.loss_rate
        self._packet_loss_rate = segment.loss_rate
        self.last_transmit_meta = {
            "scenario": self.trace.name,
            "at_ms": round(float(at_ms), 6),
            "bandwidth_mbps": segment.bandwidth_mbps,
            "propagation_ms": round(propagation, 6),
            "jitter_ms": round(jitter, 6),
            "loss_rate": segment.loss_rate,
            "burst_state": "bad" if self._ge_bad else "good",
        }
        return segment.bandwidth_mbps, propagation, segment.loss_rate

    def _lose_packets(self, n_outstanding: int, loss_rate: float) -> np.ndarray:
        ge = self.trace.ge_loss
        if ge is None:
            return super()._lose_packets(n_outstanding, loss_rate)
        mask = np.empty(n_outstanding, dtype=bool)
        for i in range(n_outstanding):
            self._ge_bad, p_state = ge.step(self._ge_bad, self._rng)
            # Independent fade loss on top of the schedule's baseline.
            p_total = 1.0 - (1.0 - loss_rate) * (1.0 - p_state)
            mask[i] = p_total > 0.0 and self._rng.random() < p_total
        self.last_transmit_meta["burst_state"] = "bad" if self._ge_bad else "good"
        return mask

    def reset(self) -> None:
        """Rewind RNG and burst state so a replay is bit-identical."""
        self._rng = np.random.default_rng(self.seed)
        self._ge_bad = False
        first = self.trace.segments[0]
        self.bandwidth_mbps = first.bandwidth_mbps
        self.propagation_ms = first.propagation_ms
        self.loss_rate = first.loss_rate
        self.last_transmit_meta = {}


def _steady(name, bandwidth, propagation, loss=0.0, jitter=0.0, ge=None):
    return LinkTrace(
        name=name,
        segments=(TraceSegment(0.0, bandwidth, propagation, loss),),
        jitter_ms=jitter,
        ge_loss=ge,
    )


def _wifi_stable() -> LinkTrace:
    """Uncontended home WiFi: the paper's nominal 80 Mbps downlink."""
    return _steady("wifi_stable", 80.0, 8.0, jitter=0.3)


def _wifi_congested() -> LinkTrace:
    """Shared-AP WiFi: periodic dips when a neighbor stream kicks in."""
    return LinkTrace(
        name="wifi_congested",
        segments=(
            TraceSegment(0.0, 60.0, 9.0, 0.005),
            TraceSegment(2_000.0, 22.0, 14.0, 0.02),
            TraceSegment(5_000.0, 48.0, 10.0, 0.01),
            TraceSegment(8_000.0, 16.0, 18.0, 0.03),
            TraceSegment(11_000.0, 55.0, 9.0, 0.005),
        ),
        loop=True,
        duration_ms=14_000.0,
        jitter_ms=1.5,
    )


def _lte_walk() -> LinkTrace:
    """Pedestrian LTE: gentle bandwidth swings, bursty fading loss."""
    return LinkTrace(
        name="lte_walk",
        segments=(
            TraceSegment(0.0, 28.0, 22.0, 0.01),
            TraceSegment(3_000.0, 18.0, 28.0, 0.02),
            TraceSegment(6_000.0, 34.0, 20.0, 0.005),
            TraceSegment(9_000.0, 12.0, 32.0, 0.03),
        ),
        loop=True,
        duration_ms=12_000.0,
        jitter_ms=2.0,
        ge_loss=GilbertElliott(p_g2b=0.004, p_b2g=0.2, p_loss_bad=0.4),
    )


def _lte_drive() -> LinkTrace:
    """Vehicular LTE: handovers gut the link for a stretch, then recover.

    The bursty cellular worst case: deep outage segments where even a
    heavily downshifted stream barely fits, plus long loss bursts."""
    return LinkTrace(
        name="lte_drive",
        segments=(
            TraceSegment(0.0, 24.0, 26.0, 0.01),
            TraceSegment(1_500.0, 5.0, 45.0, 0.05),
            TraceSegment(3_500.0, 20.0, 28.0, 0.01),
            TraceSegment(6_000.0, 3.5, 55.0, 0.08),
            TraceSegment(8_500.0, 26.0, 24.0, 0.01),
        ),
        loop=True,
        duration_ms=10_500.0,
        jitter_ms=4.0,
        ge_loss=GilbertElliott(p_g2b=0.01, p_b2g=0.12, p_loss_bad=0.5),
    )


def _5g_mmwave() -> LinkTrace:
    """mmWave 5G: huge bandwidth line-of-sight, cliffs on blockage."""
    return LinkTrace(
        name="5g_mmwave",
        segments=(
            TraceSegment(0.0, 400.0, 6.0, 0.0),
            TraceSegment(4_000.0, 9.0, 30.0, 0.04),
            TraceSegment(5_500.0, 380.0, 6.0, 0.0),
            TraceSegment(9_000.0, 7.0, 34.0, 0.05),
            TraceSegment(10_500.0, 420.0, 6.0, 0.0),
        ),
        loop=True,
        duration_ms=13_000.0,
        jitter_ms=1.0,
        ge_loss=GilbertElliott(p_g2b=0.006, p_b2g=0.15, p_loss_bad=0.45),
    )


_CANNED = {
    "wifi_stable": _wifi_stable,
    "wifi_congested": _wifi_congested,
    "lte_walk": _lte_walk,
    "lte_drive": _lte_drive,
    "5g_mmwave": _5g_mmwave,
}

#: Canned scenario names, in presentation order.
SCENARIO_NAMES: Tuple[str, ...] = tuple(_CANNED)


def synthetic_trace(
    seed: int,
    n_segments: int = 8,
    segment_ms: float = 2_000.0,
    bandwidth_range: Tuple[float, float] = (4.0, 60.0),
    propagation_range: Tuple[float, float] = (8.0, 40.0),
    max_loss: float = 0.05,
    jitter_ms: float = 2.0,
    bursty: bool = True,
) -> LinkTrace:
    """A seeded random-walk cellular trace.

    Bandwidth follows a log-space random walk between the range bounds
    (so dips are proportional, like fading), propagation anti-correlates
    with bandwidth (congested cells queue), and loss scales with how
    close the walk sits to the floor.
    """
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    rng = np.random.default_rng(seed)
    lo, hi = bandwidth_range
    log_lo, log_hi = np.log(lo), np.log(hi)
    level = rng.uniform(0.3, 0.9)  # position in log-bandwidth range
    segments: List[TraceSegment] = []
    for i in range(n_segments):
        level = float(np.clip(level + rng.normal(0.0, 0.22), 0.0, 1.0))
        bandwidth = float(np.exp(log_lo + level * (log_hi - log_lo)))
        p_lo, p_hi = propagation_range
        propagation = float(p_lo + (1.0 - level) * (p_hi - p_lo))
        loss = float(max_loss * (1.0 - level) ** 2)
        segments.append(
            TraceSegment(i * segment_ms, bandwidth, propagation, loss)
        )
    return LinkTrace(
        name=f"synthetic:{seed}",
        segments=tuple(segments),
        loop=True,
        duration_ms=n_segments * segment_ms,
        jitter_ms=jitter_ms,
        ge_loss=GilbertElliott(p_g2b=0.006, p_b2g=0.18, p_loss_bad=0.45)
        if bursty
        else None,
    )


def available_scenarios() -> Tuple[str, ...]:
    """Canned scenario names plus the ``synthetic:<seed>`` form."""
    return SCENARIO_NAMES + ("synthetic:<seed>",)


def build_scenario(name: str, seed: int = 0) -> TraceDrivenLink:
    """A :class:`TraceDrivenLink` for a canned or synthetic scenario.

    ``name`` is one of :data:`SCENARIO_NAMES` or ``synthetic:<seed>``
    (the embedded seed shapes the trace; ``seed`` still drives the
    per-packet loss RNG).
    """
    if name.startswith("synthetic:"):
        tail = name.split(":", 1)[1]
        try:
            trace_seed = int(tail)
        except ValueError:
            raise ValueError(
                f"synthetic scenario needs an integer seed, got {name!r}"
            ) from None
        return TraceDrivenLink(synthetic_trace(trace_seed), seed=seed)
    try:
        factory = _CANNED[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(available_scenarios())}"
        ) from None
    return TraceDrivenLink(factory(), seed=seed)
