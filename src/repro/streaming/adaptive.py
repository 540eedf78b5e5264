"""Runtime RoI-window adaptation (extension beyond the paper).

The paper sizes the RoI window *once*, at session start, from an NPU
benchmark (Sec. IV-B1). Real mobile SoCs throttle under sustained load,
so a window that met 16.66 ms cold can miss it ten minutes in.
:class:`AdaptiveRoIController` closes the loop: it watches measured
upscale latencies and multiplicatively shrinks the window when the
deadline is endangered, then additively regrows it while there is
headroom (AIMD, the TCP-style stable control law) — never dropping below
the foveal minimum, mirroring the paper's physiological floor.

This is an extension (clearly marked as such); the default pipeline keeps
the paper's static sizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..platform import calibration as cal

__all__ = ["AdaptiveRoIController"]


@dataclass
class AdaptiveRoIController:
    """AIMD controller for the RoI window side (LR-frame pixels).

    Parameters
    ----------
    initial_side / min_side / max_side:
        Start, foveal-floor, and probe-ceiling window sides from
        :func:`repro.core.roi_sizing.plan_roi_window`.
    deadline_ms:
        Per-frame upscaling budget (16.66 ms for 60 FPS).
    headroom:
        Fraction of the deadline treated as the danger threshold; above
        ``headroom * deadline`` the window shrinks.
    shrink_factor / grow_step:
        Multiplicative decrease and additive increase of the side.
    """

    initial_side: int
    min_side: int
    max_side: int
    deadline_ms: float = cal.REALTIME_DEADLINE_MS
    headroom: float = 0.97
    shrink_factor: float = 0.85
    grow_step: int = 4
    _side: int = field(init=False)

    def __post_init__(self) -> None:
        if not 2 <= self.min_side <= self.max_side:
            raise ValueError(
                f"need 2 <= min_side <= max_side, got {self.min_side}, {self.max_side}"
            )
        if not self.min_side <= self.initial_side <= self.max_side:
            raise ValueError(
                f"initial_side {self.initial_side} outside "
                f"[{self.min_side}, {self.max_side}]"
            )
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline_ms}")
        if not 0 < self.shrink_factor < 1:
            raise ValueError(f"shrink_factor must be in (0, 1), got {self.shrink_factor}")
        if self.grow_step < 1:
            raise ValueError(f"grow_step must be >= 1, got {self.grow_step}")
        self._side = self.initial_side

    @property
    def side(self) -> int:
        """The window side to request for the next frame."""
        return self._side

    def observe(self, upscale_latency_ms: float) -> int:
        """Feed one frame's measured upscale latency; returns the new side.

        Multiplicative shrink on (near-)misses, additive growth while
        comfortably under budget.
        """
        if upscale_latency_ms < 0:
            raise ValueError(f"latency must be >= 0, got {upscale_latency_ms}")
        if upscale_latency_ms > self.headroom * self.deadline_ms:
            self._side = self._quantize_down(self._side * self.shrink_factor)
        elif upscale_latency_ms < 0.8 * self.deadline_ms:
            self._side = min(self.max_side, self._side + self.grow_step)
        return self._side

    def _quantize_down(self, raw_side: float) -> int:
        """Shrunken side, snapped onto the ``grow_step`` lattice.

        Bare ``int(side * shrink_factor)`` truncation can land on any
        integer, misaligned with the codec-block / SR-tile granularity
        that additive growth preserves. Snap *down* to the nearest
        ``min_side + k * grow_step`` so shrink and grow share one
        lattice and a shrink is never rounded back above the raw value.
        """
        shrunk = int(raw_side)
        if shrunk <= self.min_side:
            return self.min_side
        aligned = (
            self.min_side
            + (shrunk - self.min_side) // self.grow_step * self.grow_step
        )
        return min(aligned, self.max_side)
