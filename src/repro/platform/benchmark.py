"""On-device capability probe (paper Fig. 6 step-1).

At session start, GameStreamSR benchmarks the client's NPU to find the
*maximum* RoI window the chosen SR model can upscale within the real-time
deadline (Sec. IV-B1 "Maximum RoI Window Size"). Here the probe queries
the calibrated latency model instead of a physical NPU, but exposes the
same contract: given a device and a deadline, return the largest square
window side (in pixels) that still meets the deadline.
"""

from __future__ import annotations

from . import calibration as cal
from .device import DeviceProfile
from .latency import npu_sr_latency_ms

__all__ = ["max_realtime_roi_side"]


def max_realtime_roi_side(
    device: DeviceProfile,
    deadline_ms: float = cal.REALTIME_DEADLINE_MS,
    max_side: int = 4096,
) -> int:
    """Largest square RoI side whose NPU upscale fits in ``deadline_ms``.

    Binary search over the monotone latency model — the analytic analogue
    of running the TFLite benchmark tool at increasing input sizes.
    """
    if deadline_ms <= 0:
        raise ValueError(f"deadline must be positive, got {deadline_ms}")
    lo, hi = 0, max_side
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if npu_sr_latency_ms(mid * mid, device) <= deadline_ms:
            lo = mid
        else:
            hi = mid - 1
    return lo
