"""Run an SR model over images, RoIs, or tiles.

Bridges the (H, W, C)-in-[0, 1] image world and the model's
(N, C, H, W) tensor world, with optional overlap-tiled inference so the
full-frame baselines can upscale arbitrarily large frames with bounded
memory (and so the per-tile compute matches how mobile NPU delegates
partition large inputs).

Tiled inference is **batched**: the frame is reflect-padded onto the tile
grid, every (tile x tile) window is gathered into one (N, C, th, tw)
batch, and the model runs a single forward per frame (chunked by
``batch_size`` to bound im2col memory). That converts dozens of small
BLAS calls into a few large ones — together with the float32 no-graph
inference path in :mod:`repro.neural.tensor` this is what makes the
session matrix tractable (see "Performance notes" in README.md). The
pre-batching per-tile loop survives as ``batched=False`` so the hotpath
bench can keep measuring the speedup against it.
"""

from __future__ import annotations

import numpy as np

from ..contracts import shaped
from ..neural.layers import Module
from ..neural.tensor import Tensor, get_inference_dtype, no_grad

__all__ = ["SRRunner"]


def _pad_reflect2d(
    image: np.ndarray, top: int, bottom: int, left: int, right: int
) -> np.ndarray:
    """Reflect-pad an (H, W, C) image, degrading to edge-replication when
    the image is smaller than the requested halo (np.pad's reflect mode
    requires pad < dim).

    The degradation is chosen **per axis**: a short-but-wide tile whose
    vertical halo exceeds its height still reflects horizontally, only
    the vertical padding falls back to edge replication.
    """
    h, w = image.shape[:2]
    mode_y = "reflect" if max(top, bottom) < h else "edge"
    mode_x = "reflect" if max(left, right) < w else "edge"
    if mode_y == mode_x:
        return np.pad(image, ((top, bottom), (left, right), (0, 0)), mode=mode_y)
    padded = np.pad(image, ((top, bottom), (0, 0), (0, 0)), mode=mode_y)
    return np.pad(padded, ((0, 0), (left, right), (0, 0)), mode=mode_x)


class SRRunner:
    """Inference wrapper around an SR :class:`~repro.neural.Module`."""

    def __init__(self, model: Module, scale: int | None = None) -> None:
        self.model = model
        self.scale = scale if scale is not None else getattr(model, "scale", None)
        if self.scale is None or self.scale < 1:
            raise ValueError("model has no valid `scale`; pass scale= explicitly")
        model.eval()

    def _to_batch(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image, dtype=np.float64)  # seam-normalized before inference-dtype cast
        if image.ndim == 2:
            image = image[:, :, None]
        if image.ndim != 3:
            raise ValueError(f"expected (H, W[, C]) image, got {image.shape}")
        return image.transpose(2, 0, 1)[None]

    @shaped(image="H W:n|H W C:n")
    def upscale(self, image: np.ndarray) -> np.ndarray:
        """Upscale a whole (H, W, C) image in one forward pass."""
        batch = self._to_batch(image)
        with no_grad():
            out = self.model(Tensor(batch)).numpy()
        result = out[0].transpose(1, 2, 0)
        if np.asarray(image).ndim == 2:
            result = result[:, :, 0]
        return np.clip(result, 0.0, 1.0)

    @shaped(tiles="N H W C:n")
    def upscale_batch(
        self, tiles: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Upscale an ``(N, H, W, C)`` stack of equal-size tiles.

        The batched seam the :mod:`repro.sr.backends` zoo and the
        dispatcher execute through: one model forward per ``batch_size``
        chunk, output ``(N, H*s, W*s, C)`` in tile order.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        tiles = np.asarray(tiles)
        n, _, _, c = tiles.shape
        s = self.scale
        if n == 0:
            h, w = tiles.shape[1:3]
            return np.empty((0, h * s, w * s, c), dtype=get_inference_dtype())
        batch = tiles.transpose(0, 3, 1, 2).astype(
            get_inference_dtype(), copy=False
        )
        with no_grad():
            chunks = [
                self.model(Tensor(batch[start : start + batch_size])).numpy()
                for start in range(0, n, batch_size)
            ]
        out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return np.clip(out.transpose(0, 2, 3, 1), 0.0, 1.0)

    @shaped(image="H W:n|H W C:n")
    def upscale_tiled(
        self,
        image: np.ndarray,
        tile: int = 64,
        overlap: int = 8,
        batched: bool = True,
        batch_size: int = 64,
    ) -> np.ndarray:
        """Upscale via overlapping tiles (seam-free full-frame inference).

        ``batched=True`` (the default) runs all tiles through the model as
        one batch; ``batched=False`` keeps the historical one-tile-per-
        forward loop (slower, used as a benchmark baseline).
        """
        if tile < 2 * overlap + 1:
            raise ValueError(f"tile ({tile}) too small for overlap ({overlap})")
        if not batched:
            return self._upscale_tiled_loop(image, tile, overlap)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")

        image = np.asarray(image, dtype=np.float64)  # seam-normalized before inference-dtype cast
        squeeze = image.ndim == 2
        if squeeze:
            image = image[:, :, None]
        h, w, c = image.shape
        s = self.scale

        # Clamp the tile per axis so a tile larger than the frame degrades
        # to whole-frame inference instead of padding up to (tile x tile)
        # and wasting forward compute on reflection filler.
        tile_h = min(tile, h + 2 * overlap)
        tile_w = min(tile, w + 2 * overlap)
        step_h = tile_h - 2 * overlap
        step_w = tile_w - 2 * overlap
        ny = -(-h // step_h)  # ceil division
        nx = -(-w // step_w)
        # Halo on every side; bottom/right additionally fill the last
        # partial tile so all windows are exactly (tile_h x tile_w).
        padded = _pad_reflect2d(
            image,
            overlap,
            ny * step_h - h + overlap,
            overlap,
            nx * step_w - w + overlap,
        )
        # Gather straight into the active inference dtype (float32 under
        # the default policy) so the forward never re-casts per chunk.
        padded = padded.astype(get_inference_dtype(), copy=False)

        tiles = np.empty((ny * nx, c, tile_h, tile_w), dtype=padded.dtype)
        for iy in range(ny):
            for ix in range(nx):
                window = padded[
                    iy * step_h : iy * step_h + tile_h,
                    ix * step_w : ix * step_w + tile_w,
                ]
                tiles[iy * nx + ix] = window.transpose(2, 0, 1)

        with no_grad():
            chunks = [
                self.model(Tensor(tiles[start : start + batch_size])).numpy()
                for start in range(0, len(tiles), batch_size)
            ]
        hr_tiles = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

        # Crop the halo off every HR tile and mosaic the cores.
        core = hr_tiles[
            :,
            :,
            overlap * s : (overlap + step_h) * s,
            overlap * s : (overlap + step_w) * s,
        ]
        out = np.empty((ny * step_h * s, nx * step_w * s, c), dtype=core.dtype)
        for iy in range(ny):
            for ix in range(nx):
                out[
                    iy * step_h * s : (iy + 1) * step_h * s,
                    ix * step_w * s : (ix + 1) * step_w * s,
                ] = core[iy * nx + ix].transpose(1, 2, 0)
        out = out[: h * s, : w * s]
        if squeeze:
            out = out[:, :, 0]
        return np.clip(out, 0.0, 1.0)

    @shaped(image="H W 3:n", origins="N 2:i")
    def upscale_windows(
        self,
        image: np.ndarray,
        origins: np.ndarray,
        tile: int,
        halo: int = 8,
        batch_size: int = 64,
    ) -> np.ndarray:
        """Upscale caller-chosen aligned (tile x tile) windows in one batch.

        Unlike :meth:`upscale_tiled` this does not cover the frame: the
        caller names the LR window origins (``(N, 2)`` of ``(y, x)``,
        e.g. the dirty blocks of the GOP-reuse mask). Each window is
        forwarded with ``halo`` pixels of surrounding frame context (the
        same reflect-pad convention as tiled inference) and the HR core —
        ``(tile*s, tile*s, 3)`` per window, origin order preserved — is
        returned as an ``(N, tile*s, tile*s, 3)`` stack. Windows may
        start at any non-negative origin; those running past the frame
        edge read reflect/edge padding, like the last partial tile of
        :meth:`upscale_tiled`.
        """
        if tile < 1:
            raise ValueError(f"tile must be >= 1, got {tile}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        image = np.asarray(image, dtype=np.float64)  # seam-normalized before inference-dtype cast
        h, w, c = image.shape
        s = self.scale
        origins = np.asarray(origins, dtype=np.int64)
        n = len(origins)
        if n == 0:
            return np.empty((0, tile * s, tile * s, c), dtype=get_inference_dtype())
        if origins.min() < 0:
            raise ValueError("window origins must be >= 0")

        pad_bottom = halo + max(0, int(origins[:, 0].max()) + tile - h)
        pad_right = halo + max(0, int(origins[:, 1].max()) + tile - w)
        padded = _pad_reflect2d(image, halo, pad_bottom, halo, pad_right)
        padded = padded.astype(get_inference_dtype(), copy=False)

        win = tile + 2 * halo
        tiles = np.empty((n, c, win, win), dtype=padded.dtype)
        for i, (oy, ox) in enumerate(origins):
            # Image coords (oy - halo ..) == padded coords (oy ..).
            tiles[i] = padded[oy : oy + win, ox : ox + win].transpose(2, 0, 1)

        with no_grad():
            chunks = [
                self.model(Tensor(tiles[start : start + batch_size])).numpy()
                for start in range(0, n, batch_size)
            ]
        out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        core = out[:, :, halo * s : (halo + tile) * s, halo * s : (halo + tile) * s]
        return np.clip(core.transpose(0, 2, 3, 1), 0.0, 1.0)

    def _upscale_tiled_loop(
        self, image: np.ndarray, tile: int, overlap: int
    ) -> np.ndarray:
        """Pre-batching reference implementation: one forward per tile."""
        image = np.asarray(image, dtype=np.float64)
        squeeze = image.ndim == 2
        if squeeze:
            image = image[:, :, None]
        h, w, c = image.shape
        s = self.scale
        out = np.zeros((h * s, w * s, c), dtype=np.float64)

        step = tile - 2 * overlap
        y = 0
        while y < h:
            x = 0
            core_h = min(step, h - y)
            y0 = max(y - overlap, 0)
            y1 = min(y + core_h + overlap, h)
            while x < w:
                core_w = min(step, w - x)
                x0 = max(x - overlap, 0)
                x1 = min(x + core_w + overlap, w)
                tile_hr = self.upscale(image[y0:y1, x0:x1])
                # Crop the halo back off in HR space.
                cy = (y - y0) * s
                cx = (x - x0) * s
                out[y * s : (y + core_h) * s, x * s : (x + core_w) * s] = tile_hr[
                    cy : cy + core_h * s, cx : cx + core_w * s
                ]
                x += step
            y += step
        if squeeze:
            out = out[:, :, 0]
        return np.clip(out, 0.0, 1.0)
