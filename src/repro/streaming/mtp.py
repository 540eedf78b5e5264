"""Motion-to-photon latency accounting (paper Fig. 10b/10c).

MTP is the delay from the player's input to the resulting frame lighting
up the client display. Stages follow the end-to-end pipeline of Fig. 1a:
input uplink -> game logic -> render (+ RoI detect) -> encode -> network
downlink -> decode -> upscale -> display. Cloud gaming tolerates up to
150 ms, fast-paced genres 100 ms (Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from .pipeline import FrameTrace

__all__ = ["MTP_STAGES", "MTPBreakdown", "mtp_from_trace"]

#: Pipeline stages in order, matching Fig. 10c's x-axis.
MTP_STAGES = (
    "input",
    "game_logic",
    "render",
    "roi_detect",
    "encode",
    "network",
    "decode",
    "upscale",
    "display",
)


@dataclass(frozen=True)
class MTPBreakdown:
    """Per-stage MTP latencies in milliseconds."""

    stages_ms: Dict[str, float]

    def __post_init__(self) -> None:
        unknown = set(self.stages_ms) - set(MTP_STAGES)
        if unknown:
            raise ValueError(f"unknown MTP stages: {sorted(unknown)}")

    @property
    def total_ms(self) -> float:
        return sum(self.stages_ms.values())

    def stage(self, name: str) -> float:
        return self.stages_ms.get(name, 0.0)

    @staticmethod
    def mean(items: Iterable["MTPBreakdown"]) -> "MTPBreakdown":
        items = list(items)
        if not items:
            raise ValueError("cannot average an empty MTP list")
        acc: Dict[str, float] = {stage: 0.0 for stage in MTP_STAGES}
        for item in items:
            for stage in MTP_STAGES:
                acc[stage] += item.stage(stage)
        return MTPBreakdown({s: v / len(items) for s, v in acc.items()})


def mtp_from_trace(trace: FrameTrace) -> MTPBreakdown:
    """MTP breakdown from a merged per-frame trace.

    Only spans recorded with ``mtp=True`` contribute — the client's
    energy-only network-receive span is excluded, so the downlink is
    counted exactly once (on the server side, which owns it).
    """
    return MTPBreakdown({s: trace.stage_ms(s) for s in MTP_STAGES})
