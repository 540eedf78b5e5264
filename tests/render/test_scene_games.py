"""Scene graph, animation, and the ten game workloads (Table I)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.games import GAME_BUILDERS, GAME_TABLE, all_games, build_game
from repro.render.math3d import translation
from repro.render.mesh import box
from repro.render.scene import Scene
from repro.render.shading import Material

W, H = 96, 64


class TestScene:
    def test_add_and_count(self):
        scene = Scene("t")
        scene.add(box(), Material())
        scene.add(box(), Material(), translation(1, 0, 0))
        assert scene.n_triangles() == 24

    def test_static_transform_applied(self):
        scene = Scene("t", camera=Camera(position=np.array([0.0, 0.0, 5.0])))
        scene.add(box(), Material(base_color=(1, 0, 0), unlit=True), translation(0, 0, 0))
        out = scene.render_frame(0.0, W, H)
        assert (out.depth < 1.0).any()

    def test_animator_changes_frames(self):
        scene = Scene("t", camera=Camera(position=np.array([0.0, 0.0, 5.0])))
        scene.add(
            box(), Material(unlit=True), animator=lambda t: translation(3 * t, 0, 0)
        )
        a = scene.render_frame(0.0, W, H)
        b = scene.render_frame(1.0, W, H)
        assert not np.array_equal(a.depth, b.depth)

    def test_add_after_render_rebuilds_static_draws(self):
        walls = Material(base_color=(0.6, 0.5, 0.4), texture="bricks")
        mover = Material(base_color=(0.2, 0.3, 0.7), texture="stripes")

        def bob(t):
            return translation(0.5 * np.sin(3 * t), 0.2, -1.0)

        def rise(t):
            return translation(-1.2, 0.3 * t, 0.5)

        def scene(extra: bool) -> Scene:
            s = Scene("t", camera=Camera(position=np.array([0.5, 1.0, 6.0])))
            s.add(box(2, 1, 1), walls, translation(-1, 0, -2))
            s.add(box(1, 2, 1), walls, translation(1, 0, -2))
            s.add(box(0.5, 0.5, 0.5), mover, animator=bob)
            s.add(box(1, 1, 1), walls, translation(0, -1, -1))
            if extra:
                # Joins the last static run's material, then one that moves.
                s.add(box(0.7, 0.7, 0.7), walls, translation(1.5, 0.8, 0))
                s.add(box(0.4, 0.9, 0.4), mover, animator=rise)
            return s

        grown = scene(extra=False)
        before = grown.render_frame(0.2, W, H)
        grown.add(box(0.7, 0.7, 0.7), walls, translation(1.5, 0.8, 0))
        grown.add(box(0.4, 0.9, 0.4), mover, animator=rise)
        after = grown.render_frame(0.5, W, H)
        fresh = scene(extra=True).render_frame(0.5, W, H)
        assert after.color.tobytes() == fresh.color.tobytes()
        assert after.depth.tobytes() == fresh.depth.tobytes()
        assert not np.array_equal(
            after.depth, scene(extra=False).render_frame(0.5, W, H).depth
        )
        assert not np.array_equal(before.depth, after.depth)

    def test_camera_animator(self):
        scene = Scene("t", camera_animator=lambda t: Camera(position=np.array([0.0, 0.0, 5.0 + t])))
        assert scene.camera_at(2.0).position[2] == 7.0


class TestGameTable:
    def test_matches_paper_table1(self):
        assert len(GAME_TABLE) == 10
        ids = [g for g, _, _ in GAME_TABLE]
        assert ids == [f"G{i}" for i in range(1, 11)]
        genres = {genre for _, _, genre in GAME_TABLE}
        assert "Racing" in genres and "Stealth" in genres

    def test_builders_cover_table(self):
        assert set(GAME_BUILDERS) == {g for g, _, _ in GAME_TABLE}

    def test_build_game_unknown(self):
        with pytest.raises(ValueError, match="unknown game"):
            build_game("G11")

    def test_all_games(self):
        games = all_games()
        assert [g.game_id for g in games] == [f"G{i}" for i in range(1, 11)]


@pytest.mark.parametrize("game_id", [g for g, _, _ in GAME_TABLE])
class TestEveryWorkload:
    """The structural properties GameStreamSR relies on, per game."""

    _cache: dict = {}

    @pytest.fixture
    def frame(self, game_id):
        if game_id not in self._cache:
            self._cache[game_id] = build_game(game_id).render_frame(3, W, H)
        return self._cache[game_id]

    def test_renders_valid_frame(self, game_id, frame):
        assert frame.color.shape == (H, W, 3)
        assert frame.depth.shape == (H, W)
        assert frame.color.min() >= 0.0 and frame.color.max() <= 1.0
        assert frame.depth.min() >= 0.0 and frame.depth.max() <= 1.0

    def test_has_foreground_content(self, game_id, frame):
        """A meaningful share of pixels shows geometry nearer than far plane."""
        assert (frame.depth < 1.0).mean() > 0.3

    def test_depth_spread(self, game_id, frame):
        """Foreground depths span a range (not a single plane)."""
        fg = frame.depth[frame.depth < 1.0]
        assert fg.max() - fg.min() > 0.05

    def test_motion_between_frames(self, game_id):
        game = build_game(game_id)
        a = game.render_frame(0, W, H)
        b = game.render_frame(6, W, H)
        assert np.abs(a.color - b.color).mean() > 1e-4


class TestWorkloadAPI:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            build_game("G1").render_frame(-1, W, H)

    def test_determinism(self):
        a = build_game("G5").render_frame(4, W, H)
        b = build_game("G5").render_frame(4, W, H)
        np.testing.assert_array_equal(a.color, b.color)
        np.testing.assert_array_equal(a.depth, b.depth)
