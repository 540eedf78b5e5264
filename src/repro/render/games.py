"""Ten synthetic game workloads (paper Table I substitutes).

Each builder returns a :class:`GameWorkload` — a named, genre-matched
animated scene standing in for the commercial title the paper streams
(G1 Metro Exodus ... G10 Forza Horizon 5). The scenes are designed to
exercise the properties GameStreamSR depends on:

* a textured foreground subject near the screen centre (player focus),
* distant low-detail background (mipmap LOD),
* a foreground/background valley in the depth histogram, and
* frame-to-frame camera/object motion for the codec's motion estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .camera import Camera
from .math3d import compose, rotation_y, translation
from .mesh import Mesh, box, cone, cylinder, plane, sphere, terrain
from .rasterizer import RenderOutput
from .scene import Scene
from .shading import DirectionalLight, Material

__all__ = ["GameWorkload", "build_game", "all_games", "GAME_BUILDERS", "GAME_TABLE"]

#: Paper Table I: (id, title, genre).
GAME_TABLE: List[tuple[str, str, str]] = [
    ("G1", "Metro Exodus", "First Person Shooter"),
    ("G2", "Far Cry 5", "Third Person Shooter"),
    ("G3", "Witcher 3", "Role playing"),
    ("G4", "Red Dead Redemption 2", "Action"),
    ("G5", "Grand Theft Auto V", "Adventure"),
    ("G6", "God of War", "Action-adventure"),
    ("G7", "Shadow of the Tomb Raider", "Survival"),
    ("G8", "A Plague Tale: Requiem", "Stealth"),
    ("G9", "Farming Simulator 22", "Simulation"),
    ("G10", "Forza Horizon 5", "Racing"),
]


@dataclass
class GameWorkload:
    """A synthetic stand-in for one of the paper's game benchmarks."""

    game_id: str
    title: str
    genre: str
    scene: Scene
    camera_speed: float = 1.0  # world units per second of forward motion

    def render_frame(self, frame_index: int, width: int, height: int, fps: float = 60.0) -> RenderOutput:
        """Render frame ``frame_index`` of a ``fps`` stream."""
        if frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {frame_index}")
        return self.scene.render_frame(frame_index / fps, width, height)

# ----------------------------------------------------------------------
# shared mesh assemblies


def _tree(height: float = 3.0) -> Mesh:
    trunk = cylinder(0.12 * height / 3, height * 0.4, segments=6)
    crown = cone(height * 0.35, height * 0.7, segments=7).transformed(
        translation(0, height * 0.35, 0)
    )
    return trunk.merged_with(crown)


def _house(width: float = 3.0, depth: float = 3.0, wall_h: float = 2.2) -> Mesh:
    body = box(width, wall_h, depth).transformed(translation(0, wall_h / 2, 0))
    roof = cone(max(width, depth) * 0.75, wall_h * 0.7, segments=4).transformed(
        translation(0, wall_h, 0)
    )
    return body.merged_with(roof)


def _figure(height: float = 1.8) -> Mesh:
    """A humanoid: torso cylinder + head sphere."""
    torso = cylinder(height * 0.16, height * 0.75, segments=8)
    head = sphere(height * 0.14, segments=8, rings=6).transformed(
        translation(0, height * 0.88, 0)
    )
    return torso.merged_with(head)


def _vehicle(length: float = 2.2) -> Mesh:
    body = box(length, length * 0.3, length * 0.45).transformed(
        translation(0, length * 0.22, 0)
    )
    cabin = box(length * 0.5, length * 0.22, length * 0.4).transformed(
        translation(-length * 0.05, length * 0.48, 0)
    )
    return body.merged_with(cabin)


def _rolling_hills(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return 0.6 * np.sin(x * 0.15) * np.cos(z * 0.12) - 0.2


def _forward_camera(
    start: np.ndarray, direction: np.ndarray, speed: float, look_ahead: float = 8.0,
    bob: float = 0.0, fov_deg: float = 60.0,
) -> Callable[[float], Camera]:
    start = np.asarray(start, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)

    def animate(t: float) -> Camera:
        pos = start + direction * speed * t
        if bob:
            pos = pos + np.array([0.0, bob * np.sin(t * 6.0), 0.0])
        return Camera(
            position=pos,
            target=pos + direction * look_ahead,
            fov_y=np.deg2rad(fov_deg),
        )

    return animate


# ----------------------------------------------------------------------
# the ten scenes


def _g1_metro() -> Scene:
    """FPS corridor: tunnel walls, pillars, an enemy figure ahead."""
    scene = Scene("metro_exodus", light=DirectionalLight((-0.2, -1.0, -0.4), 0.9, 0.3))
    wall_mat = Material((0.45, 0.4, 0.36), "bricks", texture_scale=6, detail_strength=0.8, lod_distance=14)
    floor_mat = Material((0.3, 0.3, 0.32), "checker", texture_scale=10, detail_strength=0.4, lod_distance=12)
    enemy_mat = Material((0.55, 0.2, 0.15), "noise", texture_scale=8, detail_strength=0.9, lod_distance=30)
    scene.add(plane(8, 80), floor_mat, translation(0, 0, -30))
    for side in (-1, 1):
        wall = box(0.4, 5, 80).transformed(translation(side * 4, 2.5, -30))
        scene.add(wall, wall_mat)
        for z in range(-60, 10, 10):
            scene.add(cylinder(0.3, 4.5, 8), wall_mat, translation(side * 3.2, 0, z))
    # Enemy ahead of the camera, walking toward it.
    scene.add(
        _figure(1.8),
        enemy_mat,
        animator=lambda t: translation(0.4 * np.sin(t * 2), 0, -14 + 1.5 * t),
    )
    scene.camera_animator = _forward_camera([0, 1.7, 4], [0, 0, -1], speed=1.2, bob=0.03)
    return scene


def _g2_farcry() -> Scene:
    """Third-person: player capsule centre-near, forest around."""
    scene = Scene("far_cry_5")
    ground = terrain(90, 16, _rolling_hills)
    scene.add(ground, Material((0.34, 0.48, 0.24), "grass", texture_scale=22, detail_strength=0.7, lod_distance=10))
    tree_mat = Material((0.25, 0.42, 0.2), "noise", texture_scale=9, detail_strength=0.8, lod_distance=18)
    rng = np.random.default_rng(2)
    for _ in range(14):
        x, z = rng.uniform(-30, 30), rng.uniform(-45, -8)
        if abs(x) < 3:
            x += np.sign(x or 1) * 4
        scene.add(_tree(rng.uniform(2.5, 4.5)), tree_mat, translation(x, 0, z))
    player_mat = Material((0.7, 0.5, 0.25), "stripes", texture_scale=6, detail_strength=0.8, lod_distance=40)
    scene.add(
        _figure(1.8), player_mat,
        animator=lambda t: compose(translation(0, 0.2, -6 - 1.8 * t), rotation_y(0.3 * np.sin(t))),
    )
    scene.camera_animator = _forward_camera([0, 2.6, 0], [0, -0.12, -1], speed=1.8)
    return scene


def _g3_witcher() -> Scene:
    """RPG village: houses, a well, the witcher centre-frame."""
    scene = Scene("witcher_3")
    scene.add(plane(70, 70, 2), Material((0.42, 0.4, 0.28), "grass", texture_scale=18, detail_strength=0.55, lod_distance=11))
    house_mat = Material((0.55, 0.42, 0.3), "bricks", texture_scale=5, detail_strength=0.85, lod_distance=16)
    for x, z, yaw in [(-8, -16, 0.3), (7, -20, -0.4), (-5, -30, 0.9), (10, -33, 0.2), (0, -42, 0.0)]:
        scene.add(_house(4, 4, 2.6), house_mat, compose(translation(x, 0, z), rotation_y(yaw)))
    well = cylinder(0.9, 1.1, 10)
    scene.add(well, Material((0.5, 0.5, 0.52), "marble", texture_scale=4, detail_strength=0.7, lod_distance=20), translation(3.5, 0, -10))
    hero_mat = Material((0.75, 0.72, 0.68), "marble", texture_scale=7, detail_strength=0.9, lod_distance=45)
    scene.add(
        _figure(1.85), hero_mat,
        animator=lambda t: compose(translation(0.6 * np.sin(t * 0.8), 0, -7 - 1.2 * t), rotation_y(t * 0.5)),
    )
    scene.camera_animator = _forward_camera([0, 2.2, 0], [0, -0.1, -1], speed=1.2, bob=0.02)
    return scene


def _g4_rdr2() -> Scene:
    """Western plains: rider centre, mesas far, cacti mid."""
    scene = Scene("red_dead_2", light=DirectionalLight((-0.5, -0.8, -0.2), 1.05, 0.38))
    scene.add(terrain(120, 14, lambda x, z: 0.4 * np.sin(x * 0.08) - 0.1), Material((0.62, 0.5, 0.32), "noise", texture_scale=16, detail_strength=0.6, lod_distance=10))
    mesa_mat = Material((0.58, 0.38, 0.28), "stripes", texture_scale=3, detail_strength=0.5, lod_distance=25)
    for x, z, s in [(-25, -55, 9), (18, -60, 12), (40, -50, 8)]:
        scene.add(box(s, s * 0.55, s * 0.8), mesa_mat, translation(x, s * 0.27, z))
    cactus_mat = Material((0.3, 0.5, 0.25), "noise", texture_scale=10, detail_strength=0.7, lod_distance=15)
    for x, z in [(-6, -14), (8, -22), (-12, -28), (5, -9)]:
        scene.add(cylinder(0.25, 2.2, 6), cactus_mat, translation(x, 0, z))
    horse = _vehicle(2.4).merged_with(_figure(1.4).transformed(translation(0, 0.9, 0)))
    scene.add(
        horse,
        Material((0.4, 0.26, 0.18), "noise", texture_scale=9, detail_strength=0.85, lod_distance=40),
        animator=lambda t: translation(0.3 * np.sin(t), 0.15, -8 - 2.5 * t),
    )
    scene.camera_animator = _forward_camera([0, 2.4, 0], [0, -0.1, -1], speed=2.5)
    return scene


def _g5_gta() -> Scene:
    """City chase: building canyon, hero car centre-near."""
    scene = Scene("gta_v")
    scene.add(plane(16, 140), Material((0.25, 0.25, 0.27), "stripes", texture_scale=30, detail_strength=0.35, lod_distance=14), translation(0, 0, -55))
    bld_mat = Material((0.5, 0.52, 0.58), "bricks", texture_scale=8, detail_strength=0.75, lod_distance=18)
    rng = np.random.default_rng(5)
    for side in (-1, 1):
        for z in range(-110, 0, 14):
            h = rng.uniform(8, 22)
            scene.add(box(8, h, 10), bld_mat, translation(side * 10.5, h / 2, z))
    car_mat = Material((0.75, 0.15, 0.12), "marble", texture_scale=5, detail_strength=0.8, lod_distance=35)
    scene.add(
        _vehicle(2.6), car_mat,
        animator=lambda t: translation(1.1 * np.sin(t * 1.4), 0, -9 - 3.5 * t),
    )
    traffic_mat = Material((0.2, 0.3, 0.6), "noise", texture_scale=5, detail_strength=0.6, lod_distance=25)
    scene.add(_vehicle(2.4), traffic_mat, animator=lambda t: translation(-2.8, 0, -26 - 2.0 * t))
    scene.camera_animator = _forward_camera([0, 2.8, 0], [0, -0.13, -1], speed=3.5, fov_deg=65)
    return scene


def _g6_gow() -> Scene:
    """Temple interior: pillar rows, statue, Kratos centre."""
    scene = Scene("god_of_war", light=DirectionalLight((-0.3, -1.0, -0.1), 0.85, 0.33))
    scene.add(plane(30, 90), Material((0.5, 0.48, 0.45), "marble", texture_scale=8, detail_strength=0.7, lod_distance=13), translation(0, 0, -35))
    pillar_mat = Material((0.6, 0.58, 0.5), "marble", texture_scale=4, detail_strength=0.8, lod_distance=16)
    for side in (-1, 1):
        for z in range(-70, 0, 9):
            scene.add(cylinder(0.8, 9, 9), pillar_mat, translation(side * 7, 0, z))
    statue = sphere(2.2, 10, 7).merged_with(box(3.5, 1.2, 3.5).transformed(translation(0, -2.6, 0)))
    scene.add(statue, pillar_mat, translation(0, 4.2, -45))
    hero_mat = Material((0.72, 0.6, 0.5), "noise", texture_scale=10, detail_strength=0.9, lod_distance=40)
    scene.add(
        _figure(1.9), hero_mat,
        animator=lambda t: compose(translation(0.3 * np.sin(t * 1.1), 0, -6.5 - 1.4 * t), rotation_y(0.2 * np.sin(t * 2))),
    )
    scene.camera_animator = _forward_camera([0, 2.3, 0], [0, -0.08, -1], speed=1.4, bob=0.02)
    return scene


def _g7_tomb_raider() -> Scene:
    """Jungle ruins: overgrown terrain, broken walls, Lara centre."""
    scene = Scene("tomb_raider")
    scene.add(terrain(70, 16, lambda x, z: 0.5 * np.sin(x * 0.2) * np.sin(z * 0.17)), Material((0.28, 0.42, 0.22), "grass", texture_scale=24, detail_strength=0.75, lod_distance=9))
    ruin_mat = Material((0.5, 0.5, 0.42), "bricks", texture_scale=6, detail_strength=0.8, lod_distance=14)
    for x, z, yaw in [(-5, -13, 0.4), (6, -18, -0.7), (-9, -26, 1.1), (2, -34, 0.1)]:
        scene.add(box(4, 3, 0.8), ruin_mat, compose(translation(x, 1.2, z), rotation_y(yaw)))
    jungle_mat = Material((0.22, 0.38, 0.18), "noise", texture_scale=12, detail_strength=0.85, lod_distance=12)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, z = rng.uniform(-25, 25), rng.uniform(-40, -10)
        if abs(x) < 2.5:
            x += 5
        scene.add(_tree(rng.uniform(3, 5)), jungle_mat, translation(x, 0, z))
    lara_mat = Material((0.45, 0.6, 0.65), "stripes", texture_scale=8, detail_strength=0.85, lod_distance=42)
    scene.add(
        _figure(1.75), lara_mat,
        animator=lambda t: translation(0.5 * np.sin(t * 1.3), 0.3, -6 - 1.5 * t),
    )
    scene.camera_animator = _forward_camera([0, 2.4, 0], [0, -0.12, -1], speed=1.5, bob=0.03)
    return scene


def _g8_plague_tale() -> Scene:
    """Night stealth: dim courtyard, crates, torch-lit figure."""
    scene = Scene(
        "plague_tale",
        light=DirectionalLight((-0.1, -1.0, -0.2), 0.45, 0.22),
        background=(0.08, 0.08, 0.14),
    )
    scene.add(plane(50, 70), Material((0.2, 0.2, 0.23), "checker", texture_scale=14, detail_strength=0.35, lod_distance=10), translation(0, 0, -25))
    crate_mat = Material((0.4, 0.3, 0.2), "bricks", texture_scale=4, detail_strength=0.7, lod_distance=14)
    for x, z in [(-4, -10), (4.5, -13), (-6, -18), (2, -22), (-2, -27)]:
        scene.add(box(1.6, 1.6, 1.6), crate_mat, translation(x, 0.8, z))
    wall_mat = Material((0.3, 0.28, 0.3), "bricks", texture_scale=7, detail_strength=0.6, lod_distance=13)
    for side in (-1, 1):
        scene.add(box(0.6, 4.5, 60), wall_mat, translation(side * 9, 2.2, -25))
    torch_mat = Material((0.95, 0.65, 0.25), "noise", texture_scale=6, detail_strength=0.9, lod_distance=30, unlit=True)
    scene.add(box(0.3, 0.5, 0.3), torch_mat, animator=lambda t: translation(1.8, 1.4 + 0.05 * np.sin(t * 9), -9 - 1.0 * t))
    hero_mat = Material((0.5, 0.45, 0.55), "noise", texture_scale=9, detail_strength=0.85, lod_distance=38)
    scene.add(
        _figure(1.6), hero_mat,
        animator=lambda t: translation(0.4 * np.sin(t * 0.9), 0, -7 - 1.0 * t),
    )
    scene.camera_animator = _forward_camera([0, 2.0, 0], [0, -0.1, -1], speed=1.0, bob=0.015)
    return scene


def _g9_farming() -> Scene:
    """Farm: crop rows, tractor centre, barn far."""
    scene = Scene("farming_sim")
    scene.add(plane(100, 100, 2), Material((0.45, 0.38, 0.22), "stripes", texture_scale=40, detail_strength=0.55, lod_distance=11))
    crop_mat = Material((0.4, 0.55, 0.2), "grass", texture_scale=20, detail_strength=0.8, lod_distance=12)
    for z in range(-45, -5, 5):
        scene.add(box(30, 0.7, 1.2), crop_mat, translation(0, 0.35, z))
    barn_mat = Material((0.6, 0.25, 0.2), "bricks", texture_scale=6, detail_strength=0.6, lod_distance=20)
    scene.add(_house(8, 6, 4), barn_mat, translation(-12, 0, -50))
    tractor_mat = Material((0.2, 0.6, 0.25), "checker", texture_scale=6, detail_strength=0.8, lod_distance=35)
    scene.add(
        _vehicle(3.0), tractor_mat,
        animator=lambda t: translation(0.0, 0.3, -10 - 1.6 * t),
    )
    scene.camera_animator = _forward_camera([0, 3.2, 0], [0, -0.16, -1], speed=1.6)
    return scene


def _g10_forza() -> Scene:
    """Racing: striped track, rival cars ahead, barriers, fast camera."""
    scene = Scene("forza_5")
    scene.add(plane(14, 200), Material((0.22, 0.22, 0.24), "stripes", texture_scale=50, detail_strength=0.5, lod_distance=16), translation(0, 0, -80))
    scene.add(plane(120, 200), Material((0.35, 0.5, 0.28), "grass", texture_scale=30, detail_strength=0.5, lod_distance=10), translation(0, -0.05, -80))
    barrier_mat = Material((0.8, 0.25, 0.2), "checker", texture_scale=12, detail_strength=0.9, lod_distance=20)
    for side in (-1, 1):
        scene.add(box(0.4, 1.0, 180), barrier_mat, translation(side * 7.2, 0.5, -80))
    rival_mat = Material((0.85, 0.75, 0.1), "marble", texture_scale=4, detail_strength=0.85, lod_distance=30)
    scene.add(_vehicle(2.6), rival_mat, animator=lambda t: translation(1.5 * np.sin(t * 2.2), 0, -11 - 6.0 * t))
    scene.add(_vehicle(2.4), Material((0.15, 0.35, 0.7), "noise", texture_scale=5, detail_strength=0.7, lod_distance=25), animator=lambda t: translation(-2.2, 0, -20 - 5.2 * t))
    scene.camera_animator = _forward_camera([0, 1.5, 0], [0, -0.05, -1], speed=6.0, fov_deg=70)
    return scene


GAME_BUILDERS: Dict[str, Callable[[], Scene]] = {
    "G1": _g1_metro,
    "G2": _g2_farcry,
    "G3": _g3_witcher,
    "G4": _g4_rdr2,
    "G5": _g5_gta,
    "G6": _g6_gow,
    "G7": _g7_tomb_raider,
    "G8": _g8_plague_tale,
    "G9": _g9_farming,
    "G10": _g10_forza,
}

_SPEEDS = {"G1": 1.2, "G2": 1.8, "G3": 1.2, "G4": 2.5, "G5": 3.5, "G6": 1.4, "G7": 1.5, "G8": 1.0, "G9": 1.6, "G10": 6.0}


def build_game(game_id: str) -> GameWorkload:
    """Build one of the ten workloads by id (``"G1"`` ... ``"G10"``)."""
    try:
        builder = GAME_BUILDERS[game_id]
    except KeyError:
        raise ValueError(
            f"unknown game id {game_id!r}; choose from {sorted(GAME_BUILDERS)}"
        ) from None
    entry = next(row for row in GAME_TABLE if row[0] == game_id)
    return GameWorkload(
        game_id=game_id,
        title=entry[1],
        genre=entry[2],
        scene=builder(),
        camera_speed=_SPEEDS[game_id],
    )


def all_games() -> List[GameWorkload]:
    """All ten workloads in Table I order."""
    return [build_game(game_id) for game_id, _, _ in GAME_TABLE]
