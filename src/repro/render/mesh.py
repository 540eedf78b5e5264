"""Triangle meshes and primitive generators.

A :class:`Mesh` stores vertices, triangle indices, and per-vertex UV
coordinates (used by the procedural textures in :mod:`repro.render.shading`).
Primitives cover everything the ten synthetic game scenes need: boxes,
ground planes, UV spheres, cylinders, cones, and heightmap terrain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .math3d import transform_points

__all__ = [
    "Mesh",
    "face_normals",
    "box",
    "plane",
    "sphere",
    "cylinder",
    "cone",
    "terrain",
]


def face_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """(F, 3) unit normals of ``faces`` (degenerate faces get a +Y normal)."""
    tri = vertices[faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    bad = lengths[:, 0] < 1e-12
    normals[bad] = (0.0, 1.0, 0.0)
    lengths[bad] = 1.0
    return normals / lengths


@dataclass
class Mesh:
    """Indexed triangle mesh with per-vertex UVs."""

    vertices: np.ndarray  # (V, 3) float
    faces: np.ndarray  # (F, 3) int
    uvs: np.ndarray  # (V, 2) float

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.intp)
        self.uvs = np.asarray(self.uvs, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {self.faces.shape}")
        if self.uvs.shape != (len(self.vertices), 2):
            raise ValueError(
                f"uvs must be (V, 2) = ({len(self.vertices)}, 2), got {self.uvs.shape}"
            )
        if len(self.faces) and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise ValueError("face indices out of range")

    @property
    def n_triangles(self) -> int:
        return len(self.faces)

    def transformed(self, matrix: np.ndarray) -> "Mesh":
        """A copy with vertices transformed by a 4x4 ``matrix``."""
        verts = transform_points(matrix, self.vertices)[:, :3]
        return Mesh(verts, self.faces.copy(), self.uvs.copy())

    def merged_with(self, other: "Mesh") -> "Mesh":
        """Concatenate two meshes into one."""
        offset = len(self.vertices)
        return Mesh(
            np.concatenate([self.vertices, other.vertices]),
            np.concatenate([self.faces, other.faces + offset]),
            np.concatenate([self.uvs, other.uvs]),
        )

    def face_normals(self) -> np.ndarray:
        """(F, 3) unit normals (degenerate faces get a +Y normal)."""
        return face_normals(self.vertices, self.faces)


def box(sx: float = 1.0, sy: float = 1.0, sz: float = 1.0) -> Mesh:
    """Axis-aligned box centred at the origin with the given extents."""
    hx, hy, hz = sx / 2, sy / 2, sz / 2
    # Each face gets its own 4 vertices so UVs are per-face.
    face_defs = [
        # (corner, edge_u, edge_v) per face
        ((-hx, -hy, hz), (sx, 0, 0), (0, sy, 0)),  # +Z
        ((hx, -hy, -hz), (-sx, 0, 0), (0, sy, 0)),  # -Z
        ((hx, -hy, hz), (0, 0, -sz), (0, sy, 0)),  # +X
        ((-hx, -hy, -hz), (0, 0, sz), (0, sy, 0)),  # -X
        ((-hx, hy, hz), (sx, 0, 0), (0, 0, -sz)),  # +Y
        ((-hx, -hy, -hz), (sx, 0, 0), (0, 0, sz)),  # -Y
    ]
    verts, faces, uvs = [], [], []
    for corner, eu, ev in face_defs:
        base = len(verts)
        c = np.array(corner)
        eu = np.array(eu)
        ev = np.array(ev)
        verts.extend([c, c + eu, c + eu + ev, c + ev])
        uvs.extend([(0, 0), (1, 0), (1, 1), (0, 1)])
        faces.extend([(base, base + 1, base + 2), (base, base + 2, base + 3)])
    return Mesh(np.array(verts), np.array(faces), np.array(uvs, dtype=np.float64))


def plane(size_x: float = 1.0, size_z: float = 1.0, divisions: int = 1) -> Mesh:
    """Horizontal (XZ) plane at y=0, subdivided ``divisions`` times per axis."""
    if divisions < 1:
        raise ValueError(f"divisions must be >= 1, got {divisions}")
    n = divisions + 1
    xs = np.linspace(-size_x / 2, size_x / 2, n)
    zs = np.linspace(-size_z / 2, size_z / 2, n)
    gx, gz = np.meshgrid(xs, zs, indexing="xy")
    verts = np.stack([gx.ravel(), np.zeros(n * n), gz.ravel()], axis=1)
    us, vs = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n), indexing="xy")
    uvs = np.stack([us.ravel(), vs.ravel()], axis=1)
    faces = []
    for row in range(divisions):
        for col in range(divisions):
            i = row * n + col
            faces.append((i, i + 1, i + n + 1))
            faces.append((i, i + n + 1, i + n))
    return Mesh(verts, np.array(faces), uvs)


def sphere(radius: float = 1.0, segments: int = 12, rings: int = 8) -> Mesh:
    """UV sphere centred at the origin."""
    if segments < 3 or rings < 2:
        raise ValueError("sphere needs >= 3 segments and >= 2 rings")
    verts, uvs = [], []
    for ring in range(rings + 1):
        phi = np.pi * ring / rings
        for seg in range(segments + 1):
            theta = 2 * np.pi * seg / segments
            verts.append(
                (
                    radius * np.sin(phi) * np.cos(theta),
                    radius * np.cos(phi),
                    radius * np.sin(phi) * np.sin(theta),
                )
            )
            uvs.append((seg / segments, ring / rings))
    faces = []
    stride = segments + 1
    for ring in range(rings):
        for seg in range(segments):
            a = ring * stride + seg
            b = a + stride
            faces.append((a, b, a + 1))
            faces.append((a + 1, b, b + 1))
    return Mesh(np.array(verts), np.array(faces), np.array(uvs))


def cylinder(radius: float = 0.5, height: float = 1.0, segments: int = 10) -> Mesh:
    """Closed cylinder along +Y, base at y=0."""
    if segments < 3:
        raise ValueError("cylinder needs >= 3 segments")
    verts, uvs, faces = [], [], []
    for level, y in enumerate((0.0, height)):
        for seg in range(segments + 1):
            theta = 2 * np.pi * seg / segments
            verts.append((radius * np.cos(theta), y, radius * np.sin(theta)))
            uvs.append((seg / segments, float(level)))
    stride = segments + 1
    for seg in range(segments):
        a, b = seg, seg + stride
        faces.append((a, a + 1, b + 1))
        faces.append((a, b + 1, b))
    # Caps.
    for level, y in enumerate((0.0, height)):
        centre = len(verts)
        verts.append((0.0, y, 0.0))
        uvs.append((0.5, 0.5))
        base = level * stride
        for seg in range(segments):
            tri = (centre, base + seg, base + seg + 1)
            faces.append(tri if level == 0 else tri[::-1])
    return Mesh(np.array(verts), np.array(faces), np.array(uvs))


def cone(radius: float = 0.5, height: float = 1.0, segments: int = 10) -> Mesh:
    """Cone along +Y with apex at ``height``, base at y=0."""
    if segments < 3:
        raise ValueError("cone needs >= 3 segments")
    verts, uvs, faces = [], [], []
    for seg in range(segments + 1):
        theta = 2 * np.pi * seg / segments
        verts.append((radius * np.cos(theta), 0.0, radius * np.sin(theta)))
        uvs.append((seg / segments, 0.0))
    apex = len(verts)
    verts.append((0.0, height, 0.0))
    uvs.append((0.5, 1.0))
    centre = len(verts)
    verts.append((0.0, 0.0, 0.0))
    uvs.append((0.5, 0.5))
    for seg in range(segments):
        faces.append((seg, apex, seg + 1))
        faces.append((centre, seg, seg + 1))
    return Mesh(np.array(verts), np.array(faces), np.array(uvs))


def terrain(
    size: float,
    divisions: int,
    height_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Mesh:
    """Heightmapped XZ grid; ``height_fn(x, z)`` returns vertex heights."""
    base = plane(size, size, divisions)
    xs = base.vertices[:, 0]
    zs = base.vertices[:, 2]
    heights = np.asarray(height_fn(xs, zs), dtype=np.float64)
    if heights.shape != xs.shape:
        raise ValueError(
            f"height_fn returned shape {heights.shape}, expected {xs.shape}"
        )
    verts = base.vertices.copy()
    verts[:, 1] = heights
    return Mesh(verts, base.faces, base.uvs)
