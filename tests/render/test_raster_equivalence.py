"""Batched rasterizer == frozen per-triangle rasterizer, bit for bit.

The batched whole-frame pass in :mod:`repro.render.rasterizer` must
reproduce the per-triangle loop it replaced (frozen verbatim in
``_legacy_rasterizer.py``) exactly: same color bytes, same depth bytes, on
every game scene and on adversarial random triangle soups. The golden
digests pin the per-triangle output itself, so a change that moved both
paths together would still fail here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.render import rasterizer
from repro.render.camera import Camera
from repro.render.games import GAME_TABLE, build_game
from repro.render.mesh import Mesh
from repro.render.shading import DirectionalLight, Material

from . import _legacy_rasterizer as legacy

GEOMETRIES = [(112, 64), (448, 256)]
FRAMES = (0, 7, 29)
GAME_IDS = [row[0] for row in GAME_TABLE]

#: sha256(color.tobytes() + depth.tobytes()) of the per-triangle rasterizer.
GOLDEN = {
    ("G1", 112, 64, 0): "a5e88b548f69aec538528d6a01dcbf49a70fd8388d8a06e3ca9ac12f004d7b11",
    ("G1", 112, 64, 7): "59b47f56f54a9007ced4e52e1f9ab899c7c60a232dac0bd6483d5c5b0676a00c",
    ("G1", 112, 64, 29): "6de3c7a1db1661a1503bfeb9f9b1d57d88a7de47d3a478f74291101688ea0da8",
    ("G2", 112, 64, 0): "89e39a58cd6af211d608b2e4cbc3131428c2813f895220162493cbd5e69af7ef",
    ("G2", 112, 64, 7): "a387d958ac5d4da7e89c9de1c44eb3a28be055063d49a615dfdfb6d2d369962b",
    ("G2", 112, 64, 29): "2ab0199a84221e7aaf35d647c95fcaaab9eefb2cb2a93c6a3474f7be4c6e5621",
    ("G3", 112, 64, 0): "a7924f3b8ffac3b0e16c9499efaa040d292ecf1ffd3293cf141e0e0ef68a597c",
    ("G3", 112, 64, 7): "57e021f87b05652c00446e2cce4b47e95ba1b487645bde43847e02bc4719b8de",
    ("G3", 112, 64, 29): "ae34ef93931a6be5e5384980a08d5f268faef6d27294f8764dfe8edf18cd300a",
    ("G4", 112, 64, 0): "372b364c0b5bee54539106f8bf78df555940b233641daa8c0059ce091bfdbba5",
    ("G4", 112, 64, 7): "f9fe380b1bfd7a704ed053d93e5a14ece4cbd788e7c3741dda1d21fa54aa8b8d",
    ("G4", 112, 64, 29): "9270515b29722fde8f58bae2aa4ded00e12d13c581ce2a0120bc9d748c93c868",
    ("G5", 112, 64, 0): "802480416841b64929f7d531da44ed0e3b005133fe63c86eed20ceba45728417",
    ("G5", 112, 64, 7): "17fd88d46286cd2329a5d04dc5c1b7a57ad8e86343a1e76c622f0d7520dd14d2",
    ("G5", 112, 64, 29): "52d2b31d822c0ed4dd61a0b277905a99f203dbcf2aaa4a625143a2b63d1c61c0",
    ("G6", 112, 64, 0): "972df908e512ad9a3234c2717227e12d82f7987929e1ec150e0fb56ffb611624",
    ("G6", 112, 64, 7): "8acb09a63d36e84ca1f2554f41118ce7a7e75c91e9b5218d22712a7c14b61f12",
    ("G6", 112, 64, 29): "1eb1f48ea550244ff7d64d724ae8985ab16337b67cbd074e6c38c66f8ceecc56",
    ("G7", 112, 64, 0): "c3016f80dfdfaf93d22243628d0258eae7e13f617091c4d54c1e7638d0346d79",
    ("G7", 112, 64, 7): "eadb393e5902a610ffd749214146ee83056ef5b4e16bd57223fa8a7e9265345c",
    ("G7", 112, 64, 29): "2ed9154b2e7c820929a1db946a5cf292675dd943e08fc963a0991b8e637abcad",
    ("G8", 112, 64, 0): "ae71423182ff69d5318b68558d540c5b80a2cae2d84c8c930fe8b21fb6e0c64b",
    ("G8", 112, 64, 7): "27915305c82536a7ceb3f17f6987bb49360d1fe5c38d0d3ff39030b71795d951",
    ("G8", 112, 64, 29): "3ad3a90379803ca2b9483a64b99b571ff6b6c0cbbe083aab730d507d2303c773",
    ("G9", 112, 64, 0): "e8223d584b835d0f2c8aa747139e8ca7b50b597c4a9e17f4436bf87ceea4fb23",
    ("G9", 112, 64, 7): "09c56bc8fcfefb9a7ff036d1c0c9d49ba92dc7ed7c1a04ec41c33ee1a9487caa",
    ("G9", 112, 64, 29): "915ea2aacf462257361c8ff9236cbce49227294845fa5eb65e84deb4f33a64be",
    ("G10", 112, 64, 0): "1cd3362355c2285d211305925c2e2381fc059e7d41e225a872942f01bd3c6e17",
    ("G10", 112, 64, 7): "e70d0c2a52cd9ea8b67cab07b750ab53e18e75f5442fda99b248080b9e05a590",
    ("G10", 112, 64, 29): "9e93d7b32afdd7ad6c0bea7d95095a9580330bb7fbc3413586ab653f25bd39ce",
    ("G1", 448, 256, 0): "965c7c7cbd9f03aafce44e018ccea53d9347b1ddc374f5fbfdff4de95fef8162",
    ("G1", 448, 256, 7): "87512d0c013cb1bff18e8f0e74402e38491a25a8dbaf2c9e9712d9ee7883c4e0",
    ("G1", 448, 256, 29): "c2cc8d7830e1c789c895ac3f3a55f351ccbb60d43128207ab308bcde0d1bb8a6",
    ("G2", 448, 256, 0): "0921ae6a59c33ea8877d41417c98e9366f8334c567e1754708ce27f0c10927ea",
    ("G2", 448, 256, 7): "f74fbf174cf67b2196340fa00a6a4fbf5f610ab9fa35243260f7590903c16421",
    ("G2", 448, 256, 29): "82c9dd786f1037e643e1a66171c36a5307a6d7fbe9c885968a5a5aa9c4822be8",
    ("G3", 448, 256, 0): "f7d3998a2ee94034e13f68499088bb8ce9a33f5887513327858054a0eef4a4ad",
    ("G3", 448, 256, 7): "424b52152133f58423cc0addebdc674a30ac615464620567e9228b1bcae61a04",
    ("G3", 448, 256, 29): "67a05cf5ec8f4b7392981f691e9b8d431b34927611b4582c374a62e0275b0c35",
    ("G4", 448, 256, 0): "062e95e6a6b7ee964164c0b0f2f5db45955dd531b4114e76921b184bb2c2835d",
    ("G4", 448, 256, 7): "6c031e0aeb285b03c431328f2e8e9bf13b28a848a7446905d1fc07333ea44326",
    ("G4", 448, 256, 29): "63495025b5952b95130f598025500cac3cdcb40f3c7ac0bcf098b9b8ffa33f1b",
    ("G5", 448, 256, 0): "a32e76e09421a3c365678f765c37ec75ee37ebe83acc758125ce8cedea37e738",
    ("G5", 448, 256, 7): "a0f0c6166cdf0d92f26c5131b2956eea3c27aff63f079b366bfb58c3fd68d532",
    ("G5", 448, 256, 29): "5bd37940657ff7a896cb1496bd3c691bd3f2cbbf2013fe5b1f698b08d6fb9124",
    ("G6", 448, 256, 0): "d37d2720a1a23b2a7376643626a5a109bb4c995e9e1f1e8f55402cd5d04f76bc",
    ("G6", 448, 256, 7): "5a932816a1ffc9b26ef3a886f014f32b809d42c0c7a5016b49c57a8fbdea60a1",
    ("G6", 448, 256, 29): "fee2a8f1cbb5a25ae2397d69d7475f42c620bf92413a89f9b9a3a3b94933eb9b",
    ("G7", 448, 256, 0): "6c41c089ebc50276870126ff2aaa5b2538c2bd1e87be9d856cff3be68d32aa9c",
    ("G7", 448, 256, 7): "315e9236c3d70da11d3d9404b49259cc035aba73446718355c4280ab0be68385",
    ("G7", 448, 256, 29): "eb37e4c252b9d8d9ae54f823e12a9a1f3ce64eaed0acbadcbb29c5216bd57512",
    ("G8", 448, 256, 0): "b7bb709d8be673f4c665b12af39d1199df66d9c7708e0684945695a094a8aea3",
    ("G8", 448, 256, 7): "3ecc893658c276cd71ebddb75ca5b13128d3164d2173c3af60578be1b8d0649c",
    ("G8", 448, 256, 29): "f32c73401e3bc45cecdb8064ad76bad7ee133ec852e65192461e0ac266369522",
    ("G9", 448, 256, 0): "29a5babb836993f6960d680aaaa2df76a6036f2bbc208c5c47126b7e74206f5b",
    ("G9", 448, 256, 7): "0026604fd6e3c12660b1fac631619600d719b6cc86ce072abfbdce41790e40b2",
    ("G9", 448, 256, 29): "5f69392f97238dd76a2afd476669972e7f8d109d374fba29f140da7aca27f81b",
    ("G10", 448, 256, 0): "c1c53d3fc6e2aa993cf669bab568bbdb8d4d19b15369cb8c24c9222476b7e410",
    ("G10", 448, 256, 7): "8f14e645787490b88adb9679e9bf8d7db44ca2669faeb5a55cdafe1a8161bcdd",
    ("G10", 448, 256, 29): "6323fc3be1d14a57df0cfeec573c041f2762e316e71dc97f974bbb3d2b0afbfa",
}


def _digest(out) -> str:
    return hashlib.sha256(out.color.tobytes() + out.depth.tobytes()).hexdigest()


def _assert_identical(new, old) -> None:
    assert new.color.dtype == old.color.dtype and new.depth.dtype == old.depth.dtype
    assert new.color.tobytes() == old.color.tobytes()
    assert new.depth.tobytes() == old.depth.tobytes()


def _render_both(objects, camera, width, height, **kwargs):
    return (
        rasterizer.render(objects, camera, width, height, **kwargs),
        legacy.render(objects, camera, width, height, **kwargs),
    )


def _game_world(game_id: str, frame: int):
    scene = build_game(game_id).scene
    t = frame / 60.0
    world = [(obj.world_mesh(t), obj.material) for obj in scene.objects]
    return world, scene


@pytest.mark.parametrize("width,height", GEOMETRIES)
@pytest.mark.parametrize("game_id", GAME_IDS)
def test_games_match_legacy_and_golden(game_id, width, height):
    for frame in FRAMES:
        world, scene = _game_world(game_id, frame)
        new, old = _render_both(
            world,
            scene.camera_at(frame / 60.0),
            width,
            height,
            light=scene.light,
            background=scene.background,
        )
        _assert_identical(new, old)
        assert _digest(new) == GOLDEN[(game_id, width, height, frame)]


@pytest.mark.parametrize("width,height", GEOMETRIES)
@pytest.mark.parametrize("game_id", GAME_IDS)
def test_scene_render_frame_matches_golden(game_id, width, height):
    """The scene path (static draw list built once, animated objects per
    frame) renders the golden bytes, through one instance out of order."""
    game = build_game(game_id)
    for frame in (29, 0, 7):
        out = game.render_frame(frame, width, height)
        assert _digest(out) == GOLDEN[(game_id, width, height, frame)]


# -- random triangle soups ----------------------------------------------------

CAMERA = Camera(position=np.zeros(3), target=np.array([0.0, 0.0, -1.0]), far=60.0)

MATERIALS = [
    Material(base_color=(0.9, 0.2, 0.2), unlit=True),
    Material(base_color=(0.3, 0.7, 0.4), texture="checker", detail_strength=0.8),
    Material(base_color=(0.6, 0.6, 0.9), texture="marble", lod_distance=8.0),
    Material(base_color=(0.8, 0.7, 0.5), texture="bricks", detail_tint=(1.0, 0.6, 0.3)),
    Material(base_color=(0.4, 0.5, 0.3), texture="grass", unlit=True),
]


def _tri_mesh(verts, rng) -> Mesh:
    verts = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    n = len(verts) // 3
    return Mesh(verts, np.arange(3 * n).reshape(n, 3), rng.uniform(-2, 2, (3 * n, 2)))


def _soup(seed: int, straddlers: int = 12) -> list:
    """Random triangles hitting every special case of the per-triangle path."""
    rng = np.random.default_rng(seed)
    groups = []
    # Ordinary overlapping triangles inside the frustum.
    groups.append(rng.uniform([-8, -5, -40], [8, 5, -1], (40, 3, 3)))
    # Near-plane straddlers: one vertex behind the camera ...
    one_behind = rng.uniform([-4, -3, -12], [4, 3, -0.5], (straddlers, 3, 3))
    one_behind[:, 0, 2] = rng.uniform(0.05, 3.0, straddlers)
    groups.append(one_behind)
    # ... and two vertices behind.
    two_behind = rng.uniform([-4, -3, -12], [4, 3, -0.5], (straddlers, 3, 3))
    two_behind[:, 1:, 2] = rng.uniform(0.05, 3.0, (straddlers, 2))
    groups.append(two_behind)
    # Fully behind the camera.
    groups.append(rng.uniform([-3, -3, 0.5], [3, 3, 4], (4, 3, 3)))
    # Degenerate: collinear and collapsed triangles.
    a, b = rng.uniform([-3, -2, -10], [3, 2, -2], (2, 6, 3))
    collinear = np.stack([a, 0.5 * (a + b), b], axis=1)
    collapsed = np.repeat(a[:, None], 3, axis=1)
    groups.extend([collinear, collapsed])
    # Off-screen and partially off-screen.
    off = rng.uniform([-8, -5, -20], [8, 5, -3], (10, 3, 3))
    off[:5, :, 0] += 60.0
    off[5:, 0, 1] -= 40.0
    groups.append(off)
    # Beyond the far plane.
    groups.append(rng.uniform([-30, -20, -90], [30, 20, -70], (3, 3, 3)))

    objects = []
    for i, tris in enumerate(groups):
        objects.append((_tri_mesh(tris, rng), MATERIALS[i % len(MATERIALS)]))
    rng.shuffle(objects)
    return objects


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width,height", [(64, 48), (160, 96)])
def test_random_soups_match_legacy(seed, width, height):
    light = DirectionalLight(direction=(0.3, -1.0, -0.6), ambient=0.2)
    new, old = _render_both(_soup(seed), CAMERA, width, height, light=light)
    _assert_identical(new, old)


def test_ndarray_background_matches_legacy():
    rng = np.random.default_rng(7)
    background = rng.uniform(0, 1, (48, 64, 3)).astype(np.float32)
    objects = _soup(11, straddlers=1)
    new, old = _render_both(objects, CAMERA, 64, 48, background=background)
    _assert_identical(new, old)
    assert 0.2 < (new.depth == 1.0).mean() < 0.8


def _quad(z: float, size: float) -> Mesh:
    h = size / 2
    verts = np.array([[-h, -h, z], [h, -h, z], [h, h, z], [-h, h, z]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    uvs = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.float64)
    return Mesh(verts, faces, uvs)


def test_coplanar_overlap_first_drawn_wins():
    """Exactly equal depths: the earliest-drawn fragment keeps the pixel."""
    red = Material(base_color=(1.0, 0.0, 0.0), unlit=True)
    blue = Material(base_color=(0.0, 0.0, 1.0), unlit=True)
    a, b = (_quad(-6.0, 4.0), red), (_quad(-6.0, 4.0), blue)
    forward = _render_both([a, b], CAMERA, 80, 60)
    backward = _render_both([b, a], CAMERA, 80, 60)
    _assert_identical(*forward)
    _assert_identical(*backward)
    covered = forward[0].depth < 1.0
    assert covered.sum() > 100
    assert (forward[0].color[covered] == [1.0, 0.0, 0.0]).all()
    assert (backward[0].color[covered] == [0.0, 0.0, 1.0]).all()
    np.testing.assert_array_equal(forward[0].depth, backward[0].depth)


# -- bounded fragment memory ----------------------------------------------------


def test_tiny_fragment_chunks_match_legacy(monkeypatch):
    monkeypatch.setattr(rasterizer, "_MAX_CHUNK_FRAGMENTS", 300)
    for game_id in ("G2", "G7"):
        world, scene = _game_world(game_id, 7)
        new, old = _render_both(
            world,
            scene.camera_at(7 / 60.0),
            112,
            64,
            light=scene.light,
            background=scene.background,
        )
        _assert_identical(new, old)
    _assert_identical(*_render_both(_soup(3), CAMERA, 64, 48))


# -- per-face Lambert term --------------------------------------------------------


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_batched_shading_matches_material_shade(game_id):
    """Grouped shading reproduces ``Material.shade`` face by face, exactly."""
    rng = np.random.default_rng(int(game_id[1:]))
    world, scene = _game_world(game_id, 0)
    light = scene.light
    to_light = -light.unit_direction()
    for mesh, material in world:
        normals = mesh.face_normals()
        # The Lambert factor is the scalar BLAS dot of each face on its own.
        scalar = [
            light.ambient
            + light.intensity * max(0.0, float(to_light @ n)) * (1 - light.ambient)
            for n in normals
        ]
        assert light.shade_terms(normals).tobytes() == np.array(scalar).tobytes()
        face_ids = rng.integers(0, len(normals), 200)
        uv = rng.uniform(-3, 3, (200, 2))
        view_distance = rng.uniform(0.1, 150.0, 200)
        batched = rasterizer._shade_visible(
            material, uv, view_distance, face_ids, normals, light
        )
        for f in np.unique(face_ids):
            sel = face_ids == f
            expected = material.shade(uv[sel], normals[f], view_distance[sel], light)
            assert batched[sel].tobytes() == expected.tobytes()
