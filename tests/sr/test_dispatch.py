"""Difficulty metric and budgeted tile dispatch across fake backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.device import samsung_tab_s8
from repro.platform.energy import Component
from repro.sr.backends import SRBackend
from repro.sr.dispatch import DifficultyDispatcher, tile_difficulty


@pytest.fixture(scope="module")
def device():
    return samsung_tab_s8()


def _nearest(image, scale):
    """Nearest-neighbour upscaling by an integer factor."""
    return image.repeat(scale, axis=0).repeat(scale, axis=1)


class FakeBackend(SRBackend):
    """Deterministic test backend: linear latency, recognizable output.

    ``fill=None`` upscales with nearest-neighbour (exact per tile, so a
    single-backend mosaic must reproduce the full-frame filter); a float
    fill paints its tiles with that constant, marking who handled what.
    """

    def __init__(self, name, engine, component, ms_per_px, quality_rank,
                 scale=2, fill=None):
        self.name = name
        self.scale = scale
        self.engine = engine
        self.component = component
        self.quality_rank = quality_rank
        self.ms_per_px = ms_per_px
        self.fill = fill

    def upscale(self, image):
        h, w = image.shape[:2]
        if self.fill is not None:
            return np.full(
                (h * self.scale, w * self.scale, image.shape[2]), self.fill
            )
        return _nearest(image, self.scale)

    def upscale_batch(self, tiles):
        n, h, w, c = tiles.shape
        if n == 0:
            return np.empty((0, h * self.scale, w * self.scale, c))
        return np.stack([self.upscale(t) for t in tiles])

    def latency_ms(self, lr_pixels, device):
        return self.ms_per_px * lr_pixels


def big(ms_per_px=0.003, fill=None):
    return FakeBackend("big", "npu", Component.NPU, ms_per_px, 0, fill=fill)


def small(ms_per_px=0.0001, fill=None):
    return FakeBackend("small", "gpu", Component.GPU, ms_per_px, 1, fill=fill)


def patch_with_hard_tile(rng, h=32, w=32, tile=16, hard=(0, 1)):
    patch = np.full((h, w, 3), 0.5)
    hy, hx = hard
    patch[hy * tile : (hy + 1) * tile, hx * tile : (hx + 1) * tile] = (
        rng.uniform(size=(tile, tile, 3))
    )
    return patch


class TestTileDifficulty:
    def test_flat_patch_scores_zero(self):
        d = tile_difficulty(np.full((32, 32, 3), 0.3), tile=16)
        assert d.shape == (2, 2)
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_texture_scores_higher_than_flat(self, rng):
        d = tile_difficulty(patch_with_hard_tile(rng), tile=16)
        assert d[0, 1] > 10 * max(d[0, 0], d[1, 0], d[1, 1])

    def test_ragged_edges_normalized_per_pixel(self, rng):
        # 40x40 at tile 16 leaves 8-px ragged edges; per-pixel
        # normalization keeps uniform noise roughly uniform across the
        # full and partial tiles.
        d = tile_difficulty(rng.uniform(size=(40, 40, 3)), tile=16)
        assert d.shape == (3, 3)
        assert d.max() / d.min() < 2.0

    def test_extra_energy_added_per_pixel(self):
        patch = np.full((32, 32, 3), 0.3)
        extra = np.zeros((2, 2))
        extra[1, 0] = 256.0  # one LR pixel-unit of residual energy
        d = tile_difficulty(patch, tile=16, extra_energy=extra)
        assert d[1, 0] == pytest.approx(1.0)
        assert d[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_extra_energy_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="extra_energy"):
            tile_difficulty(
                np.zeros((32, 32, 3)), tile=16, extra_energy=np.zeros((3, 3))
            )

    def test_bad_tile_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            tile_difficulty(np.zeros((8, 8, 3)), tile=0)


class TestDispatcherValidation:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DifficultyDispatcher([], budget_ms=1.0)

    def test_scale_disagreement_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            DifficultyDispatcher(
                [big(), FakeBackend("s3", "gpu", Component.GPU, 0.1, 1, scale=3)],
                budget_ms=1.0,
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DifficultyDispatcher([big(), big()], budget_ms=1.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            DifficultyDispatcher([big()], budget_ms=0.0)


class TestPlan:
    def test_infinite_budget_routes_all_to_best(self, device):
        disp = DifficultyDispatcher(
            [big(), small()], budget_ms=float("inf"), tile=16
        )
        plan = disp.plan(np.ones((2, 2)), device)
        assert plan.backend_tiles == {"big": 4, "small": 0}
        assert plan.overflow_tiles == 0
        assert plan.engine_ms["npu"] == pytest.approx(0.003 * 4 * 256)

    def test_hardest_tiles_claim_best_backend_first(self, device):
        # Budget fits exactly one 256-px tile on the big backend.
        disp = DifficultyDispatcher([big(), small()], budget_ms=1.0, tile=16)
        difficulty = np.array([[0.1, 0.9], [0.2, 0.3]])
        plan = disp.plan(difficulty, device)
        assert plan.backend_tiles == {"big": 1, "small": 3}
        grid = plan.assignment.reshape(2, 2)
        assert grid[0, 1] == 0  # the hardest tile got the big model
        assert plan.overflow_tiles == 0

    def test_budget_bounds_every_engine(self, device):
        disp = DifficultyDispatcher([big(), small()], budget_ms=1.0, tile=16)
        plan = disp.plan(np.ones((4, 4)), device)
        for ms in plan.engine_ms.values():
            assert ms <= 1.0 + 1e-9
        assert plan.upscale_ms == max(plan.engine_ms.values())

    def test_overflow_counts_unplaceable_tiles(self, device):
        # One expensive backend, budget fits one tile: the rest overflow
        # onto the fallback (the same backend) and are counted.
        disp = DifficultyDispatcher([big()], budget_ms=1.0, tile=16)
        plan = disp.plan(np.ones((2, 2)), device)
        assert plan.backend_tiles == {"big": 4}
        assert plan.overflow_tiles == 3
        assert plan.engine_ms["npu"] > 1.0

    def test_tile_pixels_override_scales_latency(self, device):
        disp = DifficultyDispatcher(
            [big()], budget_ms=float("inf"), tile=16
        )
        base = disp.plan(np.ones((2, 2)), device)
        modeled = disp.plan(np.ones((2, 2)), device, tile_pixels=1000.0)
        assert modeled.engine_ms["npu"] == pytest.approx(0.003 * 4 * 1000)
        assert base.engine_ms["npu"] == pytest.approx(0.003 * 4 * 256)

    def test_extra_energy_steers_routing(self, device):
        disp = DifficultyDispatcher([big(), small()], budget_ms=1.0, tile=16)
        patch = np.full((32, 32, 3), 0.5)  # uniformly easy
        extra = np.zeros((2, 2))
        extra[1, 1] = 1e6  # heavy codec residual in one tile
        difficulty = tile_difficulty(patch, 16, extra)
        plan = disp.plan(difficulty, device)
        assert plan.assignment.reshape(2, 2)[1, 1] == 0

    def test_meta_payload_is_consistent(self, device):
        disp = DifficultyDispatcher([big(), small()], budget_ms=1.0, tile=16)
        meta = disp.plan(np.ones((2, 2)), device).meta()
        assert meta["tiles_total"] == 4
        assert sum(meta["backend_tiles"].values()) == 4
        assert meta["upscale_ms"] == pytest.approx(max(meta["engine_ms"].values()))


class TestRun:
    def test_single_backend_mosaic_matches_full_filter(self, device, rng):
        # Nearest-neighbour is exact per tile, so a one-member pool must
        # reproduce the full-frame filter through the gather/mosaic path
        # — including ragged right/bottom tiles (22x19 at tile 8).
        disp = DifficultyDispatcher(
            [big(fill=None)], budget_ms=float("inf"), tile=8, halo=2
        )
        patch = rng.uniform(size=(22, 19, 3))
        out, plan = disp.run(patch, device)
        np.testing.assert_allclose(out, _nearest(patch, 2), atol=1e-12)
        assert plan.backend_tiles == {"big": 9}

    def test_routing_is_visible_in_output(self, device, rng):
        # Constant-fill backends paint their tiles: the hard tile must
        # come out at the big model's fill, the rest at the small one's.
        disp = DifficultyDispatcher(
            [big(fill=1.0), small(fill=0.25)], budget_ms=1.0, tile=16, halo=0
        )
        patch = patch_with_hard_tile(rng, hard=(0, 1))
        out, plan = disp.run(patch, device)
        assert out.shape == (64, 64, 3)
        np.testing.assert_array_equal(out[0:32, 32:64], 1.0)
        np.testing.assert_array_equal(out[32:64, 0:32], 0.25)
        assert plan.backend_tiles == {"big": 1, "small": 3}

    def test_run_requires_three_channels(self, device):
        disp = DifficultyDispatcher([big()], budget_ms=1.0)
        with pytest.raises(Exception):
            disp.run(np.zeros((16, 16)), device)
