"""Calibrated analytical models of the paper's mobile client platforms.

Substitutes the Samsung Galaxy Tab S8 / Pixel 7 Pro hardware: per-stage
latency and per-component power models pinned to every anchor the paper
publishes (see calibration.py for the anchor-by-anchor derivation).
"""

from . import calibration
from .benchmark import max_realtime_roi_side
from .device import DeviceProfile, DisplaySpec, get_device, pixel_7_pro, samsung_tab_s8
from .energy import Component, EnergyBreakdown, component_power_w, overhead_mj, stage_energy_mj
from .eyetracking import EyeTrackingCost, eyetracking_cost
from .latency import (
    cpu_bicubic_ms,
    cpu_bilinear_ms,
    cpu_warp_ms,
    decode_ms,
    display_present_ms,
    gpu_bilinear_ms,
    merge_ms,
    npu_sr_latency_ms,
    server_encode_ms,
    server_game_logic_ms,
    server_gpu_utilization,
    server_input_ms,
    server_render_ms,
    server_roi_detect_ms,
    transmission_ms,
)

__all__ = [
    "Component",
    "DeviceProfile",
    "DisplaySpec",
    "EnergyBreakdown",
    "EyeTrackingCost",
    "calibration",
    "component_power_w",
    "cpu_bicubic_ms",
    "cpu_bilinear_ms",
    "cpu_warp_ms",
    "decode_ms",
    "display_present_ms",
    "eyetracking_cost",
    "get_device",
    "gpu_bilinear_ms",
    "max_realtime_roi_side",
    "merge_ms",
    "npu_sr_latency_ms",
    "overhead_mj",
    "pixel_7_pro",
    "samsung_tab_s8",
    "server_encode_ms",
    "server_game_logic_ms",
    "server_gpu_utilization",
    "server_input_ms",
    "server_render_ms",
    "server_roi_detect_ms",
    "stage_energy_mj",
    "transmission_ms",
]
