"""Mobile client device profiles (paper Sec. V-A platforms).

A :class:`DeviceProfile` captures everything the framework needs to know
about a client: display geometry (for foveal RoI sizing, Sec. IV-B1),
component latency coefficients, and component power draws. The two
built-in profiles model the paper's evaluation devices:

* ``samsung_tab_s8`` — Samsung Galaxy Tab S8 (Snapdragon 8 Gen 1, Hexagon
  tensor processor, 11" 2560x1600 @ 274 PPI);
* ``pixel_7_pro`` — Google Pixel 7 Pro (Tensor G2, edge TPU, 6.7"
  3120x1440 @ 512 PPI).

All numeric constants live in :mod:`repro.platform.calibration` together
with the paper anchor each one reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from . import calibration as cal

__all__ = ["DeviceProfile", "DisplaySpec", "samsung_tab_s8", "pixel_7_pro", "DEVICES", "get_device"]


@dataclass(frozen=True)
class DisplaySpec:
    """Physical display geometry used by the foveal-RoI math."""

    width_px: int
    height_px: int
    ppi: float
    refresh_hz: float = 60.0

    def __post_init__(self) -> None:
        if self.width_px < 1 or self.height_px < 1:
            raise ValueError("display dimensions must be positive")
        if self.ppi <= 0:
            raise ValueError(f"ppi must be positive, got {self.ppi}")


@dataclass(frozen=True)
class DeviceProfile:
    """A mobile client: display + latency coefficients + component powers."""

    name: str
    display: DisplaySpec
    #: Typical viewing distance in cm (tablet ~30, phone ~25; Sec. IV-B1).
    viewing_distance_cm: float

    # --- NPU latency model: t(px) = npu_a * px * (1 + px / npu_sat) ------
    npu_a_ms_per_px: float
    npu_sat_px: float

    # --- other latency coefficients (ms and ms/pixel) --------------------
    gpu_bilinear_ms_per_px: float
    gpu_bilinear_base_ms: float
    cpu_bilinear_ms_per_px: float
    cpu_warp_ms_per_px: float
    hw_decode_ms_per_px: float
    hw_decode_base_ms: float
    sw_decode_ms_per_px: float
    sw_decode_base_ms: float
    display_present_ms: float
    merge_ms_per_px: float

    # --- component power draws (watts) -----------------------------------
    npu_power_w: float
    gpu_power_w: float
    cpu_power_w: float
    hw_decoder_power_w: float
    network_rx_power_w: float
    composition_power_w: float
    camera_eyetracking_power_w: float

    # --- defaulted extensions (appended so existing construction sites
    # --- and keyword overrides keep working unchanged) -------------------
    #: GPU block-motion warp of an HR frame (GOP-reuse path).
    gpu_warp_ms_per_px: float = cal.GPU_WARP_MS_PER_PX
    #: SR model-zoo anchors (repro.sr.backends): per-model scale factors
    #: on the EDSR NPU latency curve, int8 power derating, CPU bicubic.
    fsrcnn_npu_latency_scale: float = cal.FSRCNN_NPU_LATENCY_SCALE
    quicksrnet_npu_latency_scale: float = cal.QUICKSRNET_NPU_LATENCY_SCALE
    edsr_int8_npu_latency_scale: float = cal.EDSR_INT8_NPU_LATENCY_SCALE
    edsr_int8_npu_power_scale: float = cal.EDSR_INT8_NPU_POWER_SCALE
    cpu_bicubic_ms_per_px: float = cal.CPU_BICUBIC_MS_PER_PX

    def with_overrides(self, **kwargs) -> "DeviceProfile":
        """A copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)


def samsung_tab_s8() -> DeviceProfile:
    """Samsung Galaxy Tab S8 profile (Snapdragon 8 Gen 1 + Hexagon)."""
    return DeviceProfile(
        name="samsung_tab_s8",
        display=DisplaySpec(2560, 1600, ppi=cal.S8_TAB_PPI),
        viewing_distance_cm=cal.TABLET_VIEWING_DISTANCE_CM,
        npu_a_ms_per_px=cal.S8_NPU_A_MS_PER_PX,
        npu_sat_px=cal.S8_NPU_SAT_PX,
        gpu_bilinear_ms_per_px=cal.GPU_BILINEAR_MS_PER_PX,
        gpu_bilinear_base_ms=cal.GPU_BILINEAR_BASE_MS,
        cpu_bilinear_ms_per_px=cal.CPU_BILINEAR_MS_PER_PX,
        cpu_warp_ms_per_px=cal.CPU_WARP_MS_PER_PX,
        hw_decode_ms_per_px=cal.HW_DECODE_MS_PER_PX,
        hw_decode_base_ms=cal.HW_DECODE_BASE_MS,
        sw_decode_ms_per_px=cal.SW_DECODE_MS_PER_PX,
        sw_decode_base_ms=cal.SW_DECODE_BASE_MS,
        display_present_ms=cal.DISPLAY_PRESENT_MS,
        merge_ms_per_px=cal.MERGE_MS_PER_PX,
        npu_power_w=cal.S8_NPU_POWER_W,
        gpu_power_w=cal.S8_GPU_POWER_W,
        cpu_power_w=cal.S8_CPU_POWER_W,
        hw_decoder_power_w=cal.S8_HW_DECODER_POWER_W,
        network_rx_power_w=cal.NETWORK_RX_POWER_W,
        composition_power_w=cal.S8_COMPOSITION_POWER_W,
        camera_eyetracking_power_w=cal.CAMERA_EYETRACKING_POWER_W,
    )


def pixel_7_pro() -> DeviceProfile:
    """Google Pixel 7 Pro profile (Tensor G2 + edge TPU)."""
    return DeviceProfile(
        name="pixel_7_pro",
        display=DisplaySpec(3120, 1440, ppi=cal.PIXEL7_PPI),
        viewing_distance_cm=cal.PHONE_VIEWING_DISTANCE_CM,
        npu_a_ms_per_px=cal.PIXEL_NPU_A_MS_PER_PX,
        npu_sat_px=cal.PIXEL_NPU_SAT_PX,
        gpu_bilinear_ms_per_px=cal.GPU_BILINEAR_MS_PER_PX,
        gpu_bilinear_base_ms=cal.GPU_BILINEAR_BASE_MS,
        cpu_bilinear_ms_per_px=cal.CPU_BILINEAR_MS_PER_PX,
        cpu_warp_ms_per_px=cal.CPU_WARP_MS_PER_PX,
        hw_decode_ms_per_px=cal.HW_DECODE_MS_PER_PX,
        hw_decode_base_ms=cal.HW_DECODE_BASE_MS,
        sw_decode_ms_per_px=cal.SW_DECODE_MS_PER_PX,
        sw_decode_base_ms=cal.SW_DECODE_BASE_MS,
        display_present_ms=cal.DISPLAY_PRESENT_MS,
        merge_ms_per_px=cal.MERGE_MS_PER_PX,
        npu_power_w=cal.PIXEL_NPU_POWER_W,
        gpu_power_w=cal.PIXEL_GPU_POWER_W,
        cpu_power_w=cal.PIXEL_CPU_POWER_W,
        hw_decoder_power_w=cal.PIXEL_HW_DECODER_POWER_W,
        network_rx_power_w=cal.NETWORK_RX_POWER_W,
        composition_power_w=cal.PIXEL_COMPOSITION_POWER_W,
        camera_eyetracking_power_w=cal.CAMERA_EYETRACKING_POWER_W,
    )


#: The built-in device profiles by name; never mutated after import.
DEVICES: Dict[str, DeviceProfile] = {
    "samsung_tab_s8": samsung_tab_s8(),
    "pixel_7_pro": pixel_7_pro(),
}


def get_device(name: str) -> DeviceProfile:
    """Look up a built-in device profile by name."""
    try:
        return DEVICES[name]
    except KeyError:
        raise ValueError(
            f"unknown device {name!r}; choose from {sorted(DEVICES)}"
        ) from None
