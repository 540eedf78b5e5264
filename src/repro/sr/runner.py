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

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _gather_windows(
    image: np.ndarray, origins: np.ndarray, core: Tuple[int, int], halo: int
) -> np.ndarray:
    """The ``(core_h, core_w)`` cells of an (H, W, C) image at ``origins``
    (``(N, 2)`` top-left ``(y, x)``), each with ``halo`` pixels of
    reflect-padded context (:func:`_pad_reflect2d`; cells may run past
    the frame edge). Returns ``(N, core_h + 2*halo, core_w + 2*halo, C)``
    in origin order and the image's dtype.
    """
    h, w, c = image.shape
    core_h, core_w = core
    win = (core_h + 2 * halo, core_w + 2 * halo)
    origins = np.asarray(origins, dtype=np.int64).reshape(-1, 2)
    if len(origins) == 0:
        return np.empty((0, *win, c), dtype=image.dtype)
    if origins.min() < 0:
        raise ValueError("window origins must be >= 0")
    padded = _pad_reflect2d(
        image,
        halo,
        halo + max(0, int(origins[:, 0].max()) + core_h - h),
        halo,
        halo + max(0, int(origins[:, 1].max()) + core_w - w),
    )
    # Image coords (y - halo ..) == padded coords (y ..).
    windows = sliding_window_view(padded, win, axis=(0, 1))
    return windows[origins[:, 0], origins[:, 1]].transpose(0, 2, 3, 1)


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
        step_h = min(tile, h + 2 * overlap) - 2 * overlap
        step_w = min(tile, w + 2 * overlap) - 2 * overlap
        ny = -(-h // step_h)  # ceil division
        nx = -(-w // step_w)
        origins = np.indices((ny, nx)).reshape(2, -1).T * (step_h, step_w)
        # Gather straight into the active inference dtype (float32 under
        # the default policy) as the C-contiguous NCHW batch the model's
        # convs read, so the forward never re-casts per chunk.
        windows = _gather_windows(
            image.astype(get_inference_dtype(), copy=False),
            origins,
            (step_h, step_w),
            overlap,
        )
        tiles = np.ascontiguousarray(windows.transpose(0, 3, 1, 2))

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
        self, image: np.ndarray, origins: np.ndarray, tile: int, halo: int = 8
    ) -> np.ndarray:
        """Upscale caller-chosen (tile x tile) windows in one batch.

        Unlike :meth:`upscale_tiled` this does not cover the frame: the
        caller names the LR window origins (``(N, 2)`` of ``(y, x)``,
        e.g. the dirty blocks of the GOP-reuse mask). Each window is
        forwarded through ``self.upscale_batch`` with ``halo`` pixels of
        reflect-padded frame context and the HR core —
        ``(tile*s, tile*s, 3)`` per window, origin order preserved — is
        returned as an ``(N, tile*s, tile*s, 3)`` stack. Windows may
        start at any non-negative origin; those running past the frame
        edge read reflect/edge padding, like the last partial tile of
        :meth:`upscale_tiled`. Every :class:`~repro.sr.backends.SRBackend`
        shares this method over its own ``upscale_batch``.
        """
        if tile < 1:
            raise ValueError(f"tile must be >= 1, got {tile}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        s = self.scale
        windows = _gather_windows(
            np.asarray(image, dtype=np.float64), origins, (tile, tile), halo
        )
        hr = self.upscale_batch(windows)
        return hr[:, halo * s : (halo + tile) * s, halo * s : (halo + tile) * s]

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
