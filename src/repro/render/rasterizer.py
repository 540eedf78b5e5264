"""Z-buffered triangle rasterizer — the GPU of our game-streaming server.

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

A frame is rasterized in one batched pass, not triangle by triangle:
every face of every mesh is gathered at once, candidate pixels are
generated only inside bounding-box tiles that survive an edge test, the
z-buffer is resolved by scatter-min over draw-ordered fragment chunks, and
each visible pixel is shaded once. The result is bit-identical to drawing
the triangles one after another with a strict ``<`` depth test: a pixel
keeps the earliest-drawn fragment among those at its minimum depth,
provided that depth is below the far plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import Camera
from .math3d import transform_points
from .mesh import Mesh
from .shading import DirectionalLight, Material

__all__ = ["DrawCall", "RenderOutput", "render", "render_draw_calls", "sky_gradient"]

#: Triangles whose doubled signed screen-space area is below this are
#: treated as degenerate (edge-on or collapsed) and skipped.
_DEGENERATE_TRIANGLE_AREA = 1e-12

#: A pixel is inside a triangle when all three barycentrics are >= -this.
_INSIDE_TOLERANCE = 1e-9

#: Side, in pixels, of the bounding-box tiles culled against triangle edges.
_TILE = 8

#: A tile is culled only when all of it lies more than this many pixels
#: outside one edge line: far beyond both the inside tolerance and float
#: rounding, so culling never drops a pixel the exact test would keep.
_CULL_MARGIN_PX = 1.0

#: Edges shorter than this many pixels are too ill-conditioned to cull with.
_MIN_CULL_EDGE_PX = 1e-3

#: Candidate fragment slots generated and z-resolved at once, and visible
#: pixels shaded at once. Bounds the per-fragment arrays regardless of
#: frame size and overdraw.
_MAX_CHUNK_FRAGMENTS = 1 << 14


@dataclass(frozen=True)
class RenderOutput:
    """One rendered frame: color framebuffer + depth buffer (Fig. 5)."""

    color: np.ndarray  # (H, W, 3) float in [0, 1]
    depth: np.ndarray  # (H, W) float in [0, 1]; 0 = near, 1 = far/background


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


@dataclass(frozen=True)
class DrawCall:
    """World-space faces of one material, with the per-face tables shading reads.

    ``face_uvs`` and ``normals`` depend on the geometry alone, not on the
    camera, so a caller that draws the same geometry every frame (a
    scene's static objects) builds its draw call once.
    """

    vertices: np.ndarray  # (V, 3) world space
    faces: np.ndarray  # (F, 3)
    face_uvs: np.ndarray  # (F, 3, 2) texture coordinates of each face's corners
    normals: np.ndarray  # (F, 3) unit face normals
    material: Material

    @classmethod
    def of(cls, mesh: Mesh, material: Material) -> "DrawCall":
        return cls(
            mesh.vertices,
            mesh.faces,
            mesh.uvs[mesh.faces],
            mesh.face_normals(),
            material,
        )


@dataclass(frozen=True)
class _Triangles:
    """Screen-space triangles of one frame, in draw order.

    Per-vertex arrays are vertex-major, (3, T), so gathering one vertex's
    values for many fragments reads contiguous rows. ``face`` indexes the
    frame-wide face tables (normals, material group) a triangle came from.
    """

    xs: np.ndarray  # (3, T) viewport x of each vertex
    ys: np.ndarray  # (3, T) viewport y
    inv_w: np.ndarray  # (3, T) 1 / w_clip
    us: np.ndarray  # (3, T) texture u
    vs: np.ndarray  # (3, T) texture v
    area: np.ndarray  # (T,) doubled signed area
    bbox: np.ndarray  # (T, 4) on-screen [min_x, max_x, min_y, max_y]
    face: np.ndarray  # (T,)

    def __len__(self) -> int:
        return len(self.area)


def _edge(xa, ya, xb, yb, px, py):
    """Edge function of the directed edge a->b at pixel (px, py)."""
    return (xa - px) * (yb - py) - (xb - px) * (ya - py)


def _clip_near(
    positions: np.ndarray, uvs: np.ndarray, near_w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of S straddling triangles against ``w >= near_w``.

    ``positions``: (S, 3, 4) clip coordinates with one or two vertices
    behind the plane; ``uvs``: (S, 3, 2). Returns the clipped polygons as
    (S, 4, 4) positions, (S, 4, 2) uvs and an (S,) mask of those that are
    quads (the others are triangles in their first three slots).
    """
    n = len(positions)
    inside = positions[:, :, 3] >= near_w
    slot_pos = np.zeros((n, 6, 4))
    slot_uv = np.zeros((n, 6, 2))
    valid = np.zeros((n, 6), dtype=bool)
    for i in range(3):
        j = (i + 1) % 3
        cur_p, next_p = positions[:, i], positions[:, j]
        cur_uv, next_uv = uvs[:, i], uvs[:, j]
        slot_pos[:, 2 * i] = cur_p
        slot_uv[:, 2 * i] = cur_uv
        valid[:, 2 * i] = inside[:, i]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((near_w - cur_p[:, 3]) / (next_p[:, 3] - cur_p[:, 3]))[:, None]
            slot_pos[:, 2 * i + 1] = cur_p + t * (next_p - cur_p)
            slot_uv[:, 2 * i + 1] = cur_uv + t * (next_uv - cur_uv)
        valid[:, 2 * i + 1] = inside[:, i] != inside[:, j]
    # Compact the emitted vertices, keeping their order.
    order = np.argsort(~valid, axis=1, kind="stable")[:, :4, None]
    poly_pos = np.take_along_axis(slot_pos, order, axis=1)
    poly_uv = np.take_along_axis(slot_uv, order, axis=1)
    return poly_pos, poly_uv, valid.sum(axis=1) == 4


def _assemble(
    clip: np.ndarray, uvs: np.ndarray, near_w: float, width: int, height: int
) -> _Triangles:
    """Near-clip, project and bound every face; drop what covers no pixel.

    ``clip``: (F, 3, 4) clip coordinates of the frame's faces in draw
    order; ``uvs``: (F, 3, 2). A face clipped to a quad becomes two
    triangles (fan 0-1-2, then 0-2-3) drawn consecutively in its slot.
    """
    behind = (clip[:, :, 3] < near_w).sum(axis=1)
    whole = np.flatnonzero(behind == 0)
    straddle = np.flatnonzero((behind > 0) & (behind < 3))
    poly_pos, poly_uv, quad = _clip_near(clip[straddle], uvs[straddle], near_w)
    second_fan = [0, 2, 3]
    positions = np.concatenate(
        [clip[whole], poly_pos[:, :3], poly_pos[quad][:, second_fan]]
    )
    uv = np.concatenate([uvs[whole], poly_uv[:, :3], poly_uv[quad][:, second_fan]])
    # Draw order: by face, then by fan position within a clipped face.
    key = np.concatenate([2 * whole, 2 * straddle, 2 * straddle[quad] + 1])
    order = np.argsort(key)
    positions, uv, face = positions[order], uv[order], key[order] // 2

    w_clip = positions[:, :, 3]
    ndc = positions[:, :, :3] / w_clip[:, :, None]
    xs = (ndc[:, :, 0] + 1.0) * 0.5 * (width - 1)
    ys = (1.0 - ndc[:, :, 1]) * 0.5 * (height - 1)
    inv_w = 1.0 / w_clip

    min_x = np.maximum(np.floor(xs.min(axis=1)), 0)
    max_x = np.minimum(np.ceil(xs.max(axis=1)), width - 1)
    min_y = np.maximum(np.floor(ys.min(axis=1)), 0)
    max_y = np.minimum(np.ceil(ys.max(axis=1)), height - 1)
    area = (xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0]) - (xs[:, 2] - xs[:, 0]) * (
        ys[:, 1] - ys[:, 0]
    )
    keep = (
        (min_x <= max_x)
        & (min_y <= max_y)
        & ~(np.abs(area) < _DEGENERATE_TRIANGLE_AREA)
    )
    bbox = np.stack([min_x, max_x, min_y, max_y], axis=1)[keep].astype(np.intp)
    return _Triangles(
        xs=xs[keep].T.copy(),
        ys=ys[keep].T.copy(),
        inv_w=inv_w[keep].T.copy(),
        us=uv[keep, :, 0].T.copy(),
        vs=uv[keep, :, 1].T.copy(),
        area=area[keep],
        bbox=bbox,
        face=face[keep],
    )


def _tiles(tris: _Triangles) -> tuple[np.ndarray, np.ndarray]:
    """Bounding-box tiles that may hold an inside pixel, in draw order.

    Returns the owning triangle of each surviving tile and its (K, 4)
    inclusive pixel rectangle [x0, x1, y0, y1].
    """
    min_x, max_x, min_y, max_y = tris.bbox.T
    nx = (max_x - min_x) // _TILE + 1
    counts = nx * ((max_y - min_y) // _TILE + 1)
    tri = np.repeat(np.arange(len(tris)), counts)
    k = np.arange(len(tri)) - np.repeat(np.cumsum(counts) - counts, counts)
    x0 = min_x[tri] + (k % nx[tri]) * _TILE
    y0 = min_y[tri] + (k // nx[tri]) * _TILE
    x1 = np.minimum(x0 + _TILE - 1, max_x[tri])
    y1 = np.minimum(y0 + _TILE - 1, max_y[tri])

    xs, ys = tris.xs[:, tri], tris.ys[:, tri]
    orient = np.sign(tris.area)[tri]
    keep = np.ones(len(tri), dtype=bool)
    for a, b in ((1, 2), (2, 0), (0, 1)):
        length = np.hypot(xs[b] - xs[a], ys[b] - ys[a])
        # Affine in the pixel, so its maximum over a tile is at the corner
        # its gradient, orient * (ya - yb, xb - xa), points to.
        corner_x = np.where(orient * (ys[a] - ys[b]) > 0, x1, x0).astype(np.float64)
        corner_y = np.where(orient * (xs[b] - xs[a]) > 0, y1, y0).astype(np.float64)
        reach = orient * _edge(xs[a], ys[a], xs[b], ys[b], corner_x, corner_y)
        keep &= (length < _MIN_CULL_EDGE_PX) | (reach >= -_CULL_MARGIN_PX * length)
    return tri[keep], np.stack([x0, x1, y0, y1], axis=1)[keep]


def _barycentrics(tris: _Triangles, tri: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Barycentric weights of pixels (px, py) in triangles ``tri``.

    ``tri``, ``px`` and ``py`` broadcast together.
    """
    x, y = px.astype(np.float64), py.astype(np.float64)
    x0, x1, x2 = np.take(tris.xs, tri, axis=1)
    y0, y1, y2 = np.take(tris.ys, tri, axis=1)
    area = tris.area[tri]
    w0 = _edge(x1, y1, x2, y2, x, y) / area
    w1 = _edge(x2, y2, x0, y0, x, y) / area
    return w0, w1, 1.0 - w0 - w1


def _one_over_w(tris: _Triangles, tri: np.ndarray, b0, b1, b2) -> np.ndarray:
    """Perspective-correct interpolation of 1/w (gives the true view distance)."""
    inv_w0, inv_w1, inv_w2 = np.take(tris.inv_w, tri, axis=1)
    return b0 * inv_w0 + b1 * inv_w1 + b2 * inv_w2


def _resolve(tris: _Triangles, far: float, depth: np.ndarray) -> np.ndarray:
    """Z-test every fragment; return the triangle that owns each pixel.

    Fills ``depth`` (H, W) in place and returns an (H*W,) array with the
    index of each pixel's winning triangle, or ``len(tris)`` where none.
    Fragments are generated and resolved in draw-order chunks of whole
    tiles against the running depth buffer. Within a chunk the new depth
    is a scatter-min, and exact depth ties go to the earliest-drawn
    triangle, which is what the sequential strict ``<`` test keeps.
    """
    width = depth.shape[1]
    zbuf = depth.reshape(-1)
    none = len(tris)
    owner = np.full(zbuf.size, none, dtype=np.intp)
    tile_tri, rects = _tiles(tris)
    step = max(1, _MAX_CHUNK_FRAGMENTS // _TILE**2)
    offset = np.arange(_TILE)[:, None]
    for start in range(0, len(tile_tri), step):
        # Each tile is a (_TILE, _TILE) block of candidate pixels; its
        # triangle's values broadcast over the block, and the x (y) terms
        # of the edge functions are computed once per column (row). The
        # tiles run along the last axis, so every elementwise loop is as
        # long as the chunk; fragment order within a chunk does not
        # change what the scatter-min keeps.
        tri = tile_tri[start : start + step]
        x0, x1, y0, y1 = rects[start : start + step].T
        px, py = x0 + offset, (y0 + offset)[:, None]
        b0, b1, b2 = _barycentrics(tris, tri, px, py)
        inside = np.flatnonzero(
            (px <= x1)
            & (py <= y1)
            & (b0 >= -_INSIDE_TOLERANCE)
            & (b1 >= -_INSIDE_TOLERANCE)
            & (b2 >= -_INSIDE_TOLERANCE)
        )
        # Flat index (dy * _TILE + dx) * tiles + tile of each inside pixel.
        slot, tile = np.divmod(inside, len(tri))
        dy, dx = np.divmod(slot, _TILE)
        tri = tri[tile]
        one_over_w = _one_over_w(
            tris, tri, *(b.reshape(-1)[inside] for b in (b0, b1, b2))
        )
        frag_depth = np.clip((1.0 / one_over_w) / far, 0.0, 1.0)
        pixel = (y0[tile] + dy) * width + x0[tile] + dx

        closer = frag_depth < zbuf[pixel]
        tri, pixel, frag_depth = tri[closer], pixel[closer], frag_depth[closer]
        np.minimum.at(zbuf, pixel, frag_depth)
        won = frag_depth == zbuf[pixel]
        tri, pixel = tri[won], pixel[won]
        owner[pixel] = none
        np.minimum.at(owner, pixel, tri)
    return owner


def _interpolate(tris: _Triangles, tri: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Perspective-correct (N, 2) uv and (N,) view distance at pixels."""
    b0, b1, b2 = _barycentrics(tris, tri, px, py)
    one_over_w = _one_over_w(tris, tri, b0, b1, b2)
    inv_w0, inv_w1, inv_w2 = np.take(tris.inv_w, tri, axis=1)
    uv = np.empty((len(tri), 2))
    for k, coord in enumerate((tris.us, tris.vs)):
        c0, c1, c2 = np.take(coord, tri, axis=1)
        uv[:, k] = (b0 * c0 * inv_w0 + b1 * c1 * inv_w1 + b2 * c2 * inv_w2) / one_over_w
    return uv, 1.0 / one_over_w


def _shade_visible(
    material: Material,
    uv: np.ndarray,
    view_distance: np.ndarray,
    face_ids: np.ndarray,
    normals: np.ndarray,
    light: DirectionalLight,
) -> np.ndarray:
    """:meth:`Material.shade` of fragments from many faces in one call.

    ``face_ids`` (N,) index ``normals`` (F, 3). Bit-identical to shading
    each face's fragments on their own: the texture work is elementwise
    and the Lambert factor is the same scalar dot, once per distinct face.
    """
    color = material.albedo(uv, view_distance)
    if not material.unlit:
        faces = np.flatnonzero(np.bincount(face_ids, minlength=len(normals)))
        slot = np.empty(len(normals), dtype=np.intp)
        slot[faces] = np.arange(len(faces))
        color = color * light.shade_terms(normals[faces])[slot[face_ids], None]
    return np.clip(color, 0.0, 1.0)


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
    :meth:`Mesh.transformed`). Objects draw in order and faces in mesh
    order; where two fragments tie exactly in depth the earlier one wins.
    """
    return render_draw_calls(
        [DrawCall.of(mesh, material) for mesh, material in objects],
        camera,
        width,
        height,
        light=light,
        background=background,
    )


def render_draw_calls(
    calls: Sequence[DrawCall],
    camera: Camera,
    width: int,
    height: int,
    light: DirectionalLight | None = None,
    background: np.ndarray | tuple[float, float, float] | None = None,
) -> RenderOutput:
    """:func:`render` of draw calls whose per-face tables are already built."""
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
    if not calls:
        return RenderOutput(color=color, depth=depth)

    # Gather every face of every draw call in order, tagged by material.
    mvp = camera.view_projection(width, height)
    materials: dict[int, tuple[int, Material]] = {}
    clip, uvs, groups = [], [], []
    for call in calls:
        clip.append(transform_points(mvp, call.vertices)[call.faces])
        uvs.append(call.face_uvs)
        group, _ = materials.setdefault(
            id(call.material), (len(materials), call.material)
        )
        groups.append(np.full(len(call.faces), group))
    normals = np.concatenate([call.normals for call in calls])

    tris = _assemble(
        np.concatenate(clip), np.concatenate(uvs), camera.near, width, height
    )
    owner = _resolve(tris, camera.far, depth)

    # Shade each visible pixel once. Sorting the pixels by material makes
    # each material's share one contiguous run, shaded in bounded blocks.
    pixel = np.flatnonzero(owner < len(tris))
    pixel_group = np.concatenate(groups)[tris.face[owner[pixel]]]
    pixel = pixel[np.argsort(pixel_group, kind="stable")]
    counts = np.bincount(pixel_group, minlength=len(materials))
    stops = np.cumsum(counts)
    flat_color = color.reshape(-1, 3)
    for group, material in materials.values():
        stop = stops[group]
        for start in range(stop - counts[group], stop, _MAX_CHUNK_FRAGMENTS):
            block = pixel[start : min(start + _MAX_CHUNK_FRAGMENTS, stop)]
            tri = owner[block]
            py, px = np.divmod(block, width)
            uv, view_distance = _interpolate(tris, tri, px, py)
            flat_color[block] = _shade_visible(
                material, uv, view_distance, tris.face[tri], normals, light
            )
    return RenderOutput(color=color, depth=depth)
