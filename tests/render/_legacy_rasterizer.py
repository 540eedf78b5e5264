"""Frozen pre-batching rasterizer (per-triangle loop), for equivalence tests.

A verbatim copy of ``repro.render.rasterizer`` before the batched
whole-frame pass replaced it; only the package-relative imports were made
absolute. ``test_raster_equivalence.py`` and ``benchmarks/bench_render.py``
render the same scenes through both and require byte-identical color and
depth. Do NOT "modernize" this file: its whole value is that it does not
change with the production code.

Original module docstring follows.

Z-buffered triangle rasterizer — the GPU of our game-streaming server.

Implements the pipeline of paper Fig. 4 in software: vertex processing
(model-view-projection transform), primitive assembly, near-plane clipping,
rasterization with barycentric edge functions, perspective-correct
attribute interpolation, pixel shading, and — crucially for GameStreamSR —
a **depth buffer** output of the same resolution as the color buffer,
exactly what the server-side RoI detector consumes.

Depth convention: the returned ``depth`` buffer holds *linearized* view
distance normalized by the far plane, in [0, 1] with 0 at the camera and
1 at the far plane / background. (Hardware Z-buffers store a nonlinear
quantity; ReShade-style depth shaders — the tool the paper uses to capture
depth — linearize it before use, so we expose the linearized form
directly. It is what Fig. 5's grayscale depth map shows.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.render.camera import Camera
from repro.render.math3d import transform_points
from repro.render.mesh import Mesh
from repro.render.shading import DirectionalLight, Material

__all__ = ["RenderOutput", "render", "sky_gradient"]

#: Triangles whose doubled signed screen-space area is below this are
#: treated as degenerate (edge-on or collapsed) and skipped.
_DEGENERATE_TRIANGLE_AREA = 1e-12


@dataclass(frozen=True)
class RenderOutput:
    """One rendered frame: color framebuffer + depth buffer (Fig. 5)."""

    color: np.ndarray  # (H, W, 3) float in [0, 1]
    depth: np.ndarray  # (H, W) float in [0, 1]; 0 = near, 1 = far/background

    @property
    def resolution(self) -> tuple[int, int]:
        return self.color.shape[0], self.color.shape[1]


def sky_gradient(
    width: int,
    height: int,
    horizon=(0.75, 0.82, 0.92),
    zenith=(0.35, 0.55, 0.85),
) -> np.ndarray:
    """Vertical sky gradient used as the default background."""
    t = np.linspace(0.0, 1.0, height)[:, None, None]
    horizon = np.asarray(horizon, dtype=np.float64)
    zenith = np.asarray(zenith, dtype=np.float64)
    return np.broadcast_to(zenith * (1 - t) + horizon * t, (height, width, 3)).copy()


def _clip_near(
    positions: np.ndarray, uvs: np.ndarray, near_w: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of one triangle against ``w >= near_w``.

    ``positions``: (3, 4) clip coordinates; ``uvs``: (3, 2). Returns the
    clipped polygon as ((K, 4), (K, 2)) with K in {0, 3, 4}.
    """
    out_pos: List[np.ndarray] = []
    out_uv: List[np.ndarray] = []
    for i in range(3):
        current_p, current_uv = positions[i], uvs[i]
        next_p, next_uv = positions[(i + 1) % 3], uvs[(i + 1) % 3]
        current_in = current_p[3] >= near_w
        next_in = next_p[3] >= near_w
        if current_in:
            out_pos.append(current_p)
            out_uv.append(current_uv)
        if current_in != next_in:
            t = (near_w - current_p[3]) / (next_p[3] - current_p[3])
            out_pos.append(current_p + t * (next_p - current_p))
            out_uv.append(current_uv + t * (next_uv - current_uv))
    if len(out_pos) < 3:
        return np.empty((0, 4)), np.empty((0, 2))
    return np.asarray(out_pos), np.asarray(out_uv)


def render(
    objects: Sequence[tuple[Mesh, Material]],
    camera: Camera,
    width: int,
    height: int,
    light: DirectionalLight | None = None,
    background: np.ndarray | tuple[float, float, float] | None = None,
) -> RenderOutput:
    """Render world-space ``(mesh, material)`` pairs to a framebuffer.

    Meshes must already be in world space (apply model transforms first via
    :meth:`Mesh.transformed`).
    """
    if width < 2 or height < 2:
        raise ValueError(f"viewport too small: {width}x{height}")
    light = light or DirectionalLight()

    if background is None:
        color = sky_gradient(width, height)
    elif isinstance(background, np.ndarray) and background.ndim == 3:
        if background.shape != (height, width, 3):
            raise ValueError(
                f"background shape {background.shape} != ({height}, {width}, 3)"
            )
        color = background.astype(np.float64).copy()
    else:
        color = np.broadcast_to(
            np.asarray(background, dtype=np.float64), (height, width, 3)
        ).copy()
    depth = np.ones((height, width), dtype=np.float64)

    mvp = camera.view_projection(width, height)
    for mesh, material in objects:
        _raster_mesh(mesh, material, mvp, camera, light, color, depth)

    return RenderOutput(color=color, depth=depth)


def _raster_triangle(
    positions: np.ndarray,  # (3, 4) clip coords, all w >= near_w
    uv_face: np.ndarray,  # (3, 2)
    normal: np.ndarray,
    material: Material,
    light: DirectionalLight,
    far: float,
    color: np.ndarray,
    depth: np.ndarray,
) -> None:
    height, width = depth.shape
    w_clip = positions[:, 3]
    ndc = positions[:, :3] / w_clip[:, None]
    xs = (ndc[:, 0] + 1.0) * 0.5 * (width - 1)
    ys = (1.0 - ndc[:, 1]) * 0.5 * (height - 1)
    inv_w = 1.0 / w_clip

    min_x = max(int(np.floor(xs.min())), 0)
    max_x = min(int(np.ceil(xs.max())), width - 1)
    min_y = max(int(np.floor(ys.min())), 0)
    max_y = min(int(np.ceil(ys.max())), height - 1)
    if min_x > max_x or min_y > max_y:
        return

    area = (xs[1] - xs[0]) * (ys[2] - ys[0]) - (xs[2] - xs[0]) * (ys[1] - ys[0])
    if abs(area) < _DEGENERATE_TRIANGLE_AREA:
        return
    px, py = np.meshgrid(
        np.arange(min_x, max_x + 1, dtype=np.float64),
        np.arange(min_y, max_y + 1, dtype=np.float64),
        indexing="xy",
    )
    w0 = ((xs[1] - px) * (ys[2] - py) - (xs[2] - px) * (ys[1] - py)) / area
    w1 = ((xs[2] - px) * (ys[0] - py) - (xs[0] - px) * (ys[2] - py)) / area
    w2 = 1.0 - w0 - w1
    inside = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)
    if not inside.any():
        return

    b0, b1, b2 = w0[inside], w1[inside], w2[inside]
    rows = py[inside].astype(np.intp)
    cols = px[inside].astype(np.intp)

    # Perspective-correct interpolation of 1/w gives the true view distance.
    one_over_w = b0 * inv_w[0] + b1 * inv_w[1] + b2 * inv_w[2]
    view_distance = 1.0 / one_over_w
    frag_depth = np.clip(view_distance / far, 0.0, 1.0)

    closer = frag_depth < depth[rows, cols]
    if not closer.any():
        return
    rows, cols = rows[closer], cols[closer]
    b0, b1, b2 = b0[closer], b1[closer], b2[closer]
    one_over_w = one_over_w[closer]
    frag_depth = frag_depth[closer]
    view_distance = view_distance[closer]

    uv = (
        b0[:, None] * uv_face[0] * inv_w[0]
        + b1[:, None] * uv_face[1] * inv_w[1]
        + b2[:, None] * uv_face[2] * inv_w[2]
    ) / one_over_w[:, None]

    shaded = material.shade(uv, normal, view_distance, light)
    depth[rows, cols] = frag_depth
    color[rows, cols] = shaded


def _raster_mesh(
    mesh: Mesh,
    material: Material,
    mvp: np.ndarray,
    camera: Camera,
    light: DirectionalLight,
    color: np.ndarray,
    depth: np.ndarray,
) -> None:
    clip = transform_points(mvp, mesh.vertices)  # (V, 4)
    near_w = camera.near
    normals = mesh.face_normals()

    for f_idx, face in enumerate(mesh.faces):
        positions = clip[face]
        uvs = mesh.uvs[face]
        if (positions[:, 3] < near_w).any():
            if (positions[:, 3] < near_w).all():
                continue
            poly_pos, poly_uv = _clip_near(positions, uvs, near_w)
            # Fan-triangulate the clipped polygon (3 or 4 vertices).
            for k in range(1, len(poly_pos) - 1):
                _raster_triangle(
                    poly_pos[[0, k, k + 1]],
                    poly_uv[[0, k, k + 1]],
                    normals[f_idx],
                    material,
                    light,
                    camera.far,
                    color,
                    depth,
                )
        else:
            _raster_triangle(
                positions,
                uvs,
                normals[f_idx],
                material,
                light,
                camera.far,
                color,
                depth,
            )
