"""Perspective camera (the "player's viewpoint" of Sec. III-B)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .math3d import look_at, perspective

__all__ = ["Camera"]


@dataclass
class Camera:
    """A pinhole camera defined by pose and vertical field of view."""

    position: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.6, 5.0]))
    target: np.ndarray = field(default_factory=lambda: np.zeros(3))
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    fov_y: float = np.deg2rad(60.0)
    near: float = 0.1
    far: float = 200.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)

    def view_matrix(self) -> np.ndarray:
        return look_at(self.position, self.target, self.up)

    def projection_matrix(self, aspect: float) -> np.ndarray:
        return perspective(self.fov_y, aspect, self.near, self.far)

    def view_projection(self, width: int, height: int) -> np.ndarray:
        if width < 1 or height < 1:
            raise ValueError(f"invalid viewport {width}x{height}")
        return self.projection_matrix(width / height) @ self.view_matrix()
