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
