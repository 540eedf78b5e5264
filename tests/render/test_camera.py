"""Camera matrices and pose helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.render.camera import Camera
from repro.render.math3d import transform_points


class TestCamera:
    def test_view_projection_composes(self):
        camera = Camera(position=np.array([0.0, 0.0, 5.0]), target=np.zeros(3))
        vp = camera.view_projection(160, 90)
        manual = camera.projection_matrix(160 / 90) @ camera.view_matrix()
        np.testing.assert_allclose(vp, manual)

    def test_target_projects_to_center(self):
        camera = Camera(position=np.array([2.0, 1.0, 5.0]), target=np.array([0.0, 0.5, -3.0]))
        clip = transform_points(camera.view_projection(100, 100), camera.target[None])
        ndc = clip[0, :2] / clip[0, 3]
        np.testing.assert_allclose(ndc, [0.0, 0.0], atol=1e-12)

    def test_viewport_validation(self):
        with pytest.raises(ValueError):
            Camera().view_projection(0, 100)

    def test_w_equals_view_distance(self):
        """The rasterizer relies on w_clip being the view-axis distance."""
        camera = Camera(position=np.zeros(3), target=np.array([0.0, 0.0, -1.0]))
        clip = transform_points(
            camera.view_projection(100, 100), np.array([[0.3, 0.4, -12.0]])
        )
        assert clip[0, 3] == pytest.approx(12.0)
