"""Dependency-free image export (PPM/PGM) for rendered frames.

Lets users dump framebuffers and depth maps to disk without pillow or
matplotlib; every image viewer (and ImageMagick) reads the netpbm
formats.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

__all__ = ["save_ppm", "save_pgm"]


def _to_u8(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    return np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)


def save_ppm(image: np.ndarray, path: str | os.PathLike) -> Path:
    """Write an (H, W, 3) image in [0, 1] as a binary PPM (P6)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    h, w = image.shape[:2]
    with path.open("wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(_to_u8(image).tobytes())
    return path


def save_pgm(image: np.ndarray, path: str | os.PathLike) -> Path:
    """Write an (H, W) map in [0, 1] as a binary PGM (P5) — depth maps."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected (H, W) map, got {image.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    h, w = image.shape
    with path.open("wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(_to_u8(image).tobytes())
    return path
