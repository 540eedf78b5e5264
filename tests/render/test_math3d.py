"""3-D math primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.render.math3d import (
    compose,
    look_at,
    normalize,
    perspective,
    rotation_y,
    transform_points,
    translation,
)


class TestBasics:
    def test_normalize(self):
        np.testing.assert_allclose(normalize([3.0, 0.0, 4.0]), [0.6, 0.0, 0.8])

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 0.0])

    def test_translation(self):
        out = transform_points(translation(1, 2, 3), np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out[0, :3], [1, 2, 3])

    @pytest.mark.parametrize("rot,axis", [(rotation_y, 1)])
    def test_rotations_preserve_axis(self, rot, axis):
        point = np.zeros((1, 3))
        point[0, axis] = 1.0
        out = transform_points(rot(0.7), point)
        np.testing.assert_allclose(out[0, :3], point[0], atol=1e-12)

    def test_rotation_y_quarter_turn(self):
        out = transform_points(rotation_y(np.pi / 2), np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out[0, :3], [0.0, 0.0, -1.0], atol=1e-12)

    def test_rotations_are_orthonormal(self):
        m = rotation_y(1.1)[:3, :3]
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0)

    def test_compose_order(self):
        # compose(A, B) applies B first: translate then rotate.
        m = compose(rotation_y(np.pi / 2), translation(1, 0, 0))
        out = transform_points(m, np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out[0, :3], [0.0, 0.0, -1.0], atol=1e-12)

    def test_transform_points_shape_check(self):
        with pytest.raises(ValueError):
            transform_points(np.eye(4), np.zeros((3,)))


class TestCameraMath:
    def test_look_at_centers_target(self):
        view = look_at(np.array([0.0, 0.0, 5.0]), np.zeros(3))
        out = transform_points(view, np.array([[0.0, 0.0, 0.0]]))
        # Target lies on the -Z view axis at distance 5.
        np.testing.assert_allclose(out[0, :3], [0.0, 0.0, -5.0], atol=1e-12)

    def test_look_at_preserves_distances(self, rng):
        view = look_at(np.array([1.0, 2.0, 3.0]), np.array([4.0, 0.0, -2.0]))
        pts = rng.normal(size=(10, 3))
        transformed = transform_points(view, pts)[:, :3]
        orig = np.linalg.norm(pts[0] - pts[5])
        new = np.linalg.norm(transformed[0] - transformed[5])
        assert new == pytest.approx(orig)

    def test_perspective_near_far_mapping(self):
        proj = perspective(np.deg2rad(60), 1.0, 1.0, 100.0)
        near = transform_points(proj, np.array([[0.0, 0.0, -1.0]]))
        far = transform_points(proj, np.array([[0.0, 0.0, -100.0]]))
        assert near[0, 2] / near[0, 3] == pytest.approx(-1.0)
        assert far[0, 2] / far[0, 3] == pytest.approx(1.0)

    def test_perspective_w_is_view_distance(self):
        proj = perspective(np.deg2rad(60), 1.6, 0.1, 50.0)
        out = transform_points(proj, np.array([[0.3, -0.2, -7.0]]))
        assert out[0, 3] == pytest.approx(7.0)

    def test_perspective_validation(self):
        with pytest.raises(ValueError):
            perspective(np.deg2rad(60), 1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            perspective(np.deg2rad(60), 1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            perspective(0.0, 1.0, 0.1, 10.0)
