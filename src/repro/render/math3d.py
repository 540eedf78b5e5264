"""Minimal 3-D math: vectors, 4x4 transforms, projection matrices.

Conventions: right-handed world space, column-vector matrices (points are
transformed as ``M @ [x, y, z, 1]^T``), OpenGL-style clip space with depth
mapped to [0, 1] after the viewport transform (0 = near plane, 1 = far) —
matching the Z-buffer the paper reads RoI data from (Sec. III-B).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize",
    "translation",
    "rotation_y",
    "look_at",
    "perspective",
    "transform_points",
    "compose",
]


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit-normalize a vector; raises on (near-)zero input."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero-length vector")
    return v / norm


def translation(x: float, y: float, z: float) -> np.ndarray:
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


def rotation_y(angle: float) -> np.ndarray:
    """Rotation about +Y by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    m = np.eye(4)
    m[0, 0] = c
    m[2, 2] = c
    m[0, 2] = s
    m[2, 0] = -s
    return m


def compose(*matrices: np.ndarray) -> np.ndarray:
    """Multiply transforms left-to-right (first argument applied last)."""
    out = np.eye(4)
    for m in matrices:
        out = out @ m
    return out


def look_at(eye: np.ndarray, target: np.ndarray, up=(0.0, 1.0, 0.0)) -> np.ndarray:
    """World->view matrix for a camera at ``eye`` looking at ``target``."""
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = normalize(target - eye)  # camera looks down -Z in view space
    up = np.asarray(up, dtype=np.float64)
    right = normalize(np.cross(forward, up))
    true_up = np.cross(right, forward)
    view = np.eye(4)
    view[0, :3] = right
    view[1, :3] = true_up
    view[2, :3] = -forward
    view[:3, 3] = -view[:3, :3] @ eye
    return view


def perspective(fov_y: float, aspect: float, near: float, far: float) -> np.ndarray:
    """Perspective projection (``fov_y`` radians, ``aspect`` = width/height)."""
    if near <= 0 or far <= near:
        raise ValueError(f"need 0 < near < far, got near={near}, far={far}")
    if not 0 < fov_y < np.pi:
        raise ValueError(f"fov_y must be in (0, pi), got {fov_y}")
    f = 1.0 / np.tan(fov_y / 2.0)
    m = np.zeros((4, 4))
    m[0, 0] = f / aspect
    m[1, 1] = f
    m[2, 2] = (far + near) / (near - far)
    m[2, 3] = 2 * far * near / (near - far)
    m[3, 2] = -1.0
    return m


def transform_points(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 ``matrix`` to (N, 3) ``points``; returns (N, 4) clip coords."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    homo = np.concatenate([points, np.ones((len(points), 1))], axis=1)
    return homo @ matrix.T
