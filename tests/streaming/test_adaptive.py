"""Adaptive RoI-window controller (thermal-throttling extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.device import samsung_tab_s8
from repro.platform.latency import npu_sr_latency_ms
from repro.streaming.adaptive import AdaptiveRoIController


def make_controller(**overrides) -> AdaptiveRoIController:
    defaults = dict(initial_side=300, min_side=172, max_side=304)
    defaults.update(overrides)
    return AdaptiveRoIController(**defaults)


class TestControl:
    def test_shrinks_on_deadline_miss(self):
        ctl = make_controller()
        side = ctl.observe(20.0)
        assert side < 300

    def test_grows_with_headroom(self):
        ctl = make_controller(initial_side=200)
        side = ctl.observe(8.0)
        assert side == 204

    def test_holds_in_comfort_band(self):
        ctl = make_controller(initial_side=290)
        side = ctl.observe(0.9 * 16.66)  # between 0.8 and headroom
        assert side == 290

    def test_never_below_foveal_floor(self):
        ctl = make_controller(initial_side=180)
        for _ in range(20):
            ctl.observe(30.0)
        assert ctl.side == ctl.min_side == 172

    def test_shrink_stays_on_grow_lattice(self):
        """Regression: bare ``int(side * shrink_factor)`` truncation could
        land the side on any integer; a shrink must snap down onto the
        ``min_side + k * grow_step`` lattice that growth preserves."""
        ctl = make_controller()  # 300 -> int(255.0) = 255, off-lattice
        side = ctl.observe(20.0)
        assert side == 252  # 172 + 20 * 4
        assert (side - ctl.min_side) % ctl.grow_step == 0

    def test_shrink_never_rounds_up(self):
        ctl = make_controller(initial_side=176, min_side=172)
        # 176 * 0.85 = 149.6 -> clamped at the floor, never above 149.
        assert ctl.observe(20.0) == 172

    def test_side_invariants_under_arbitrary_latencies(self):
        """Property: under arbitrary latency sequences the side stays in
        ``[min_side, max_side]`` and aligned to the grow_step lattice
        (except when pinned at the ``max_side`` cap)."""
        rng = np.random.default_rng(42)
        for trial in range(50):
            min_side = int(rng.integers(8, 200))
            max_side = min_side + int(rng.integers(0, 600))
            grow = int(rng.integers(1, 17))
            # Start anywhere on the lattice (the planner's sizing is
            # block-aligned); caps may still push the side off it.
            k_max = (max_side - min_side) // grow
            initial = min_side + int(rng.integers(0, k_max + 1)) * grow
            ctl = AdaptiveRoIController(
                initial_side=initial,
                min_side=min_side,
                max_side=max_side,
                grow_step=grow,
            )
            latencies = rng.exponential(12.0, size=60)
            for latency in latencies:
                side = ctl.observe(float(latency))
                assert min_side <= side <= max_side
                assert (side - min_side) % grow == 0 or side == max_side

    def test_never_above_probe_ceiling(self):
        ctl = make_controller(initial_side=300)
        for _ in range(20):
            ctl.observe(5.0)
        assert ctl.side == 304

    def test_validation(self):
        with pytest.raises(ValueError):
            make_controller(initial_side=100)  # below min
        with pytest.raises(ValueError):
            make_controller(min_side=400)
        with pytest.raises(ValueError):
            make_controller(deadline_ms=0)
        with pytest.raises(ValueError):
            make_controller(shrink_factor=1.5)
        with pytest.raises(ValueError):
            make_controller(grow_step=0)
        with pytest.raises(ValueError):
            make_controller().observe(-1.0)


class TestThrottlingScenario:
    def test_recovers_realtime_under_throttling(self):
        """An S8 whose NPU slows 40% mid-session: the controller converges
        back under the deadline within a handful of frames."""
        device = samsung_tab_s8()
        throttled = device.with_overrides(npu_a_ms_per_px=device.npu_a_ms_per_px * 1.4)
        ctl = make_controller(initial_side=300)

        # Cold phase: everything fits.
        for _ in range(5):
            ctl.observe(npu_sr_latency_ms(ctl.side**2, device))
        assert npu_sr_latency_ms(ctl.side**2, device) <= 16.66

        # Throttled phase.
        frames_to_recover = 0
        for _ in range(30):
            latency = npu_sr_latency_ms(ctl.side**2, throttled)
            ctl.observe(latency)
            if latency <= 16.66:
                break
            frames_to_recover += 1
        assert frames_to_recover <= 5
        assert npu_sr_latency_ms(ctl.side**2, throttled) <= 16.66
        assert ctl.side >= ctl.min_side

    def test_stable_after_convergence(self):
        """Post-throttle, the window oscillates only within the AIMD band."""
        device = samsung_tab_s8()
        throttled = device.with_overrides(npu_a_ms_per_px=device.npu_a_ms_per_px * 1.4)
        ctl = make_controller(initial_side=300)
        sides = []
        for _ in range(60):
            ctl.observe(npu_sr_latency_ms(ctl.side**2, throttled))
            sides.append(ctl.side)
        tail = sides[20:]
        assert max(tail) - min(tail) < 60  # bounded oscillation
        # And it spends most frames under the deadline.
        misses = sum(
            npu_sr_latency_ms(s**2, throttled) > 16.66 for s in tail
        )
        assert misses / len(tail) < 0.5
