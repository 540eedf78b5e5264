"""Materials, procedural textures, Lambert lighting, and distance LOD.

The paper's RoI argument rests on a rendering property (Sec. III-B): thanks
to mipmapping, *near* objects are rendered with far more texture detail than
*far* ones, so depth predicts where the recoverable high-frequency detail
lives. :class:`Material` reproduces that: each surface combines a base
albedo with a procedural detail texture whose contribution is attenuated
with view distance exactly like a mip-chain fading out high frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Material",
    "DirectionalLight",
    "checker",
    "stripes",
    "bricks",
    "value_noise",
    "marble",
    "grass_detail",
    "TEXTURES",
    "TextureFn",
]

TextureFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _lattice(
    i: np.ndarray, multiplier: int, offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Hash terms ``i * multiplier + offset`` and ``(i + 1) * multiplier + offset``.

    uint64 arithmetic wraps mod 2**64 exactly, so the second term is the
    first plus ``multiplier``.
    """
    lo = i.astype(np.int64).view(np.uint64) * np.uint64(multiplier)
    if offset:
        lo += np.uint64(offset)
    return lo, lo + np.uint64(multiplier)


def _hash01(h: np.ndarray) -> np.ndarray:
    """Deterministic hash into [0, 1) of a lattice point's summed terms.

    Mixes ``h`` (uint64) in place.
    """
    h ^= h >> np.uint64(13)
    h *= np.uint64(1274126177)
    h ^= h >> np.uint64(16)
    h &= np.uint64(0x7FFFFFFF)
    return h / np.float64(0x7FFFFFFF)


def value_noise(u: np.ndarray, v: np.ndarray, seed: int = 0) -> np.ndarray:
    """Smooth value noise in [0, 1] over the (u, v) lattice."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    iu, iv = np.floor(u), np.floor(v)
    fu, fv = u - iu, v - iv
    # Smoothstep interpolation weights.
    wu = fu * fu * (3 - 2 * fu)
    wv = fv * fv * (3 - 2 * fv)
    # The four corners share two hash terms per axis; the seed's term
    # rides on the v axis.
    seed_term = (seed % (1 << 32)) * 1442695040888963407 % (1 << 64)
    # uint64 wraparound is the hash; numpy warns of it on scalars only.
    with np.errstate(over="ignore"):
        hu0, hu1 = _lattice(iu, 374761393)
        hv0, hv1 = _lattice(iv, 668265263, seed_term)
        n00 = _hash01(hu0 + hv0)
        n10 = _hash01(hu1 + hv0)
        n01 = _hash01(hu0 + hv1)
        n11 = _hash01(hu1 + hv1)
    mu = 1 - wu
    top = n00 * mu + n10 * wu
    bot = n01 * mu + n11 * wu
    return top * (1 - wv) + bot * wv


def _fbm(u: np.ndarray, v: np.ndarray, octaves: int = 3, seed: int = 0) -> np.ndarray:
    """Fractional Brownian motion: octave-summed value noise in [0, 1]."""
    total = np.zeros_like(np.asarray(u, dtype=np.float64))
    amplitude, norm = 1.0, 0.0
    for octave in range(octaves):
        total += amplitude * value_noise(
            np.asarray(u) * 2**octave, np.asarray(v) * 2**octave, seed + octave
        )
        norm += amplitude
        amplitude *= 0.5
    return total / norm


def checker(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Binary checkerboard in {0, 1}."""
    return ((np.floor(u) + np.floor(v)) % 2).astype(np.float64)


def stripes(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Soft vertical stripes in [0, 1]."""
    del v
    return 0.5 + 0.5 * np.sin(2 * np.pi * np.asarray(u, dtype=np.float64))


def bricks(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Brick pattern: mortar lines score 0, brick faces ~1 with noise."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    row = np.floor(v)
    u_shifted = u + 0.5 * (row % 2)
    fu = u_shifted - np.floor(u_shifted)
    fv = v - row
    mortar = (fu < 0.05) | (fv < 0.1)
    face = 0.8 + 0.2 * value_noise(u_shifted * 7, v * 7, seed=3)
    return np.where(mortar, 0.15, face)


def marble(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Marble veins: sine distorted by fbm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    turbulence = _fbm(u * 2, v * 2, octaves=3, seed=11)
    return 0.5 + 0.5 * np.sin(2 * np.pi * (u + 2.0 * turbulence))


def grass_detail(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """High-frequency grass/foliage speckle."""
    return _fbm(np.asarray(u) * 6, np.asarray(v) * 6, octaves=3, seed=7)


TEXTURES: dict[str, TextureFn] = {
    "checker": checker,
    "stripes": stripes,
    "bricks": bricks,
    "marble": marble,
    "grass": grass_detail,
    "noise": lambda u, v: _fbm(u, v, octaves=3, seed=0),
}


@dataclass(frozen=True)
class DirectionalLight:
    """Single directional light with an ambient floor."""

    direction: tuple[float, float, float] = (-0.4, -1.0, -0.3)
    intensity: float = 1.0
    ambient: float = 0.35

    def unit_direction(self) -> np.ndarray:
        d = np.asarray(self.direction, dtype=np.float64)
        return d / np.linalg.norm(d)

    def shade_terms(self, normals: np.ndarray) -> np.ndarray:
        """(K,) Lambert factors (ambient floor + diffuse) of (K, 3) face normals.

        Each dot product is the scalar ``float(to_light @ n)`` of one face
        (a BLAS ``ddot``): a matrix-vector product or an explicit
        ``n0*d0 + n1*d1 + n2*d2`` rounds differently on some faces, and a
        face's color must not depend on which other faces are lit with it.
        """
        to_light = -self.unit_direction()
        return np.array(
            [
                self.ambient
                + self.intensity * max(0.0, float(to_light @ n)) * (1 - self.ambient)
                for n in normals
            ],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class Material:
    """Surface appearance: albedo, tinted procedural detail, LOD behaviour.

    ``lod_distance`` is the view distance at which the detail texture's
    contribution has fallen to half — the mipmap emulation that gives game
    frames their depth/detail correlation.
    """

    base_color: tuple[float, float, float] = (0.7, 0.7, 0.7)
    texture: str | TextureFn | None = None
    texture_scale: float = 4.0
    detail_strength: float = 0.5
    detail_tint: tuple[float, float, float] = (1.0, 1.0, 1.0)
    lod_distance: float = 25.0
    unlit: bool = False

    def _texture_fn(self) -> TextureFn | None:
        if self.texture is None:
            return None
        if callable(self.texture):
            return self.texture
        try:
            return TEXTURES[self.texture]
        except KeyError:
            raise ValueError(
                f"unknown texture {self.texture!r}; choose from {sorted(TEXTURES)}"
            ) from None

    def albedo(self, uv: np.ndarray, view_distance: np.ndarray) -> np.ndarray:
        """Unlit, unclipped (N, 3) colors of ``N`` fragments.

        The base color modulated by the detail texture, whose contribution
        fades with ``view_distance`` (N,) like a mip chain.
        """
        uv = np.asarray(uv, dtype=np.float64)
        n = len(uv)
        color = np.broadcast_to(
            np.asarray(self.base_color, dtype=np.float64), (n, 3)
        ).copy()

        texture_fn = self._texture_fn()
        if texture_fn is not None and self.detail_strength > 0:
            pattern = texture_fn(
                uv[:, 0] * self.texture_scale, uv[:, 1] * self.texture_scale
            )
            # Mipmap-style LOD: detail contribution halves at lod_distance.
            lod = 1.0 / (1.0 + np.asarray(view_distance) / self.lod_distance)
            modulation = (pattern - 0.5)[:, None] * self.detail_strength
            tint = np.asarray(self.detail_tint, dtype=np.float64)
            color = color * (1.0 + modulation * lod[:, None] * 2.0 * tint)
        return color

    def shade(
        self,
        uv: np.ndarray,
        normal: np.ndarray,
        view_distance: np.ndarray,
        light: DirectionalLight,
    ) -> np.ndarray:
        """Shade ``N`` fragments of one face; returns (N, 3) colors in [0, 1].

        ``uv``: (N, 2) texture coordinates; ``normal``: (3,) face normal;
        ``view_distance``: (N,) distance from the camera in world units.
        """
        color = self.albedo(uv, view_distance)
        if not self.unlit:
            normals = np.asarray(normal, dtype=np.float64)[None]
            color = color * light.shade_terms(normals)[0]
        return np.clip(color, 0.0, 1.0)
