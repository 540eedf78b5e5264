"""Scene graph with animation — the "game engine" state evaluator.

In the paper's pipeline (Fig. 1a, step-1) the game engine evaluates the
next world state from user input, then issues draw calls. Here a
:class:`Scene` owns static and animated objects plus a camera path; calling
:meth:`Scene.render_frame` with a time (or frame index) plays that role and
returns a (color, depth) pair from the rasterizer.

Only what moves is rebuilt per frame. On its first render a scene merges
each run of consecutive static objects that share a material into one
world-space draw call, with its face normals and per-face UVs, and keeps
that draw list; each frame then transforms and computes normals for its
animated objects alone. :meth:`Scene.add` drops the list so the next
render rebuilds it; a scene is otherwise not edited while it is rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby
from typing import Callable, List, Optional, Union

import numpy as np

from .camera import Camera
from .math3d import transform_points
from .mesh import Mesh, face_normals
from .rasterizer import DrawCall, RenderOutput, render_draw_calls
from .shading import DirectionalLight, Material

__all__ = ["SceneObject", "Scene", "TransformFn", "CameraFn"]

TransformFn = Callable[[float], np.ndarray]
CameraFn = Callable[[float], Camera]


@dataclass
class SceneObject:
    """A mesh + material, optionally animated by a time->matrix function."""

    mesh: Mesh
    material: Material
    transform: Optional[np.ndarray] = None
    animator: Optional[TransformFn] = None

    def world_mesh(self, t: float) -> Mesh:
        matrix = self.animator(t) if self.animator is not None else self.transform
        if matrix is None:
            return self.mesh
        return self.mesh.transformed(matrix)


@dataclass(frozen=True)
class _AnimatedDraw:
    """An animated object with the per-face UVs its transform leaves unchanged."""

    obj: SceneObject
    face_uvs: np.ndarray

    def at(self, t: float) -> DrawCall:
        mesh = self.obj.mesh
        vertices = transform_points(self.obj.animator(t), mesh.vertices)[:, :3]
        return DrawCall(
            vertices,
            mesh.faces,
            self.face_uvs,
            face_normals(vertices, mesh.faces),
            self.obj.material,
        )


def _draw_list(objects: List[SceneObject]) -> List[Union[DrawCall, _AnimatedDraw]]:
    """Static runs merged into prebuilt draw calls, animated objects kept, in order."""
    draws: List[Union[DrawCall, _AnimatedDraw]] = []
    for static, group in groupby(objects, key=lambda obj: obj.animator is None):
        if not static:
            draws.extend(
                _AnimatedDraw(obj, obj.mesh.uvs[obj.mesh.faces]) for obj in group
            )
            continue
        for _, run in groupby(group, key=lambda obj: id(obj.material)):
            run = list(run)
            # A static object's world mesh does not depend on the time.
            mesh = reduce(Mesh.merged_with, [obj.world_mesh(0.0) for obj in run])
            draws.append(DrawCall.of(mesh, run[0].material))
    return draws


@dataclass
class Scene:
    """A renderable, animatable world."""

    name: str
    objects: List[SceneObject] = field(default_factory=list)
    light: DirectionalLight = field(default_factory=DirectionalLight)
    camera: Camera = field(default_factory=Camera)
    camera_animator: Optional[CameraFn] = None
    background: Optional[np.ndarray | tuple] = None
    _draws: Optional[List[Union[DrawCall, _AnimatedDraw]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(
        self,
        mesh: Mesh,
        material: Material,
        transform: Optional[np.ndarray] = None,
        animator: Optional[TransformFn] = None,
    ) -> "Scene":
        self.objects.append(SceneObject(mesh, material, transform, animator))
        self._draws = None
        return self

    def camera_at(self, t: float) -> Camera:
        return self.camera_animator(t) if self.camera_animator else self.camera

    def n_triangles(self) -> int:
        return sum(obj.mesh.n_triangles for obj in self.objects)

    def render_frame(self, t: float, width: int, height: int) -> RenderOutput:
        """Render the scene state at time ``t`` (seconds)."""
        if self._draws is None:
            self._draws = _draw_list(self.objects)
        calls = [
            draw.at(t) if isinstance(draw, _AnimatedDraw) else draw
            for draw in self._draws
        ]
        return render_draw_calls(
            calls,
            self.camera_at(t),
            width,
            height,
            light=self.light,
            background=self.background,
        )
