"""Frame <-> block-grid reshaping with edge padding."""

from __future__ import annotations

import numpy as np

__all__ = ["pad_to_blocks", "split_blocks", "merge_blocks", "block_grid_shape"]


def block_grid_shape(height: int, width: int, block: int) -> tuple[int, int]:
    """Number of (rows, cols) of blocks covering a ``height`` x ``width`` plane."""
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    return -(-height // block), -(-width // block)


def pad_to_blocks(plane: np.ndarray, block: int) -> np.ndarray:
    """Edge-pad an (H, W) or (H, W, C) plane so H and W are multiples of
    ``block``."""
    plane = np.asarray(plane)
    if plane.ndim not in (2, 3):
        raise ValueError(f"expected an (H, W) or (H, W, C) plane, got shape {plane.shape}")
    h, w = plane.shape[:2]
    pad_h = (-h) % block
    pad_w = (-w) % block
    if pad_h == 0 and pad_w == 0:
        return plane
    return np.pad(
        plane, ((0, pad_h), (0, pad_w)) + ((0, 0),) * (plane.ndim - 2), mode="edge"
    )


def split_blocks(plane: np.ndarray, block: int) -> np.ndarray:
    """Split a padded 2-D plane into (N, block, block) in row-major order."""
    padded = pad_to_blocks(plane, block)
    h, w = padded.shape
    nby, nbx = h // block, w // block
    return (
        padded.reshape(nby, block, nbx, block)
        .transpose(0, 2, 1, 3)
        .reshape(nby * nbx, block, block)
    )


def merge_blocks(
    blocks: np.ndarray, height: int, width: int, block: int
) -> np.ndarray:
    """Inverse of :func:`split_blocks`, cropping padding back off."""
    blocks = np.asarray(blocks)
    nby, nbx = block_grid_shape(height, width, block)
    if blocks.shape != (nby * nbx, block, block):
        raise ValueError(
            f"expected {(nby * nbx, block, block)} blocks for a "
            f"{height}x{width} plane, got {blocks.shape}"
        )
    plane = (
        blocks.reshape(nby, nbx, block, block)
        .transpose(0, 2, 1, 3)
        .reshape(nby * block, nbx * block)
    )
    return plane[:height, :width]
