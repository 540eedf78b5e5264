"""Energy accounting for the client streaming pipeline (Fig. 11/12).

Energy is integrated as component-power x stage-time over the stages a
client executes per frame, plus a fixed per-frame display/network
overhead bucket that is identical across designs (the paper notes display
and network energies do not vary between GameStreamSR and SOTA).

Component taxonomy follows Fig. 12: ``decode``, ``upscale``, ``network``,
``display`` (composition/panel overhead). NEMO's HR warp+add
reconstruction is charged to *decode* (it runs inside NEMO's modified
decoder) even though its latency belongs to the upscaling stage — see the
accounting note in :mod:`repro.platform.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable

from . import calibration as cal
from .device import DeviceProfile

__all__ = ["Component", "EnergyBreakdown", "component_power_w", "stage_energy_mj", "overhead_mj"]


class Component(str, Enum):
    """Hardware units that draw power during a stage."""

    NPU = "npu"
    GPU = "gpu"
    CPU = "cpu"
    HW_DECODER = "hw_decoder"
    RECON_MEMORY = "recon_memory"  # memory-bound warp inside NEMO decode
    NETWORK_RX = "network_rx"
    COMPOSITION = "composition"


def component_power_w(device: DeviceProfile, component: Component) -> float:
    """Active power draw of ``component`` on ``device`` in watts."""
    table = {
        Component.NPU: device.npu_power_w,
        Component.GPU: device.gpu_power_w,
        Component.CPU: device.cpu_power_w,
        Component.HW_DECODER: device.hw_decoder_power_w,
        Component.RECON_MEMORY: cal.RECON_POWER_W,
        Component.NETWORK_RX: device.network_rx_power_w,
        Component.COMPOSITION: device.composition_power_w,
    }
    return table[component]


def stage_energy_mj(device: DeviceProfile, component: Component, ms: float) -> float:
    """Energy in millijoules for running ``component`` for ``ms``."""
    if ms < 0:
        raise ValueError(f"stage time must be >= 0, got {ms}")
    return component_power_w(device, component) * ms  # W * ms = mJ


def overhead_mj(device: DeviceProfile) -> float:
    """Fixed per-frame display/network overhead bucket (mJ)."""
    return cal.DISPLAY_OVERHEAD_MJ[device.name]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-frame (or per-GOP average) energy by Fig. 12 category, in mJ."""

    decode: float
    upscale: float
    network: float
    display: float

    @property
    def total(self) -> float:
        return self.decode + self.upscale + self.network + self.display

    def shares(self) -> Dict[str, float]:
        """Fractional share of each category (sums to 1)."""
        total = self.total
        if total <= 0:
            raise ValueError("cannot compute shares of zero total energy")
        return {
            "decode": self.decode / total,
            "upscale": self.upscale / total,
            "network": self.network / total,
            "display": self.display / total,
        }

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.decode + other.decode,
            self.upscale + other.upscale,
            self.network + other.network,
            self.display + other.display,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.decode * factor,
            self.upscale * factor,
            self.network * factor,
            self.display * factor,
        )

    @staticmethod
    def mean(items: Iterable["EnergyBreakdown"]) -> "EnergyBreakdown":
        items = list(items)
        if not items:
            raise ValueError("cannot average an empty breakdown list")
        total = items[0]
        for item in items[1:]:
            total = total + item
        return total.scaled(1.0 / len(items))
