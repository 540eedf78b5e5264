"""MobiSR-style difficulty-aware tile dispatch across SR backends.

Not every RoI tile needs the big model: flat sky and static HUD regions
upscale indistinguishably under a cheap filter, while textured geometry
shows the EDSR-vs-bilinear gap. MobiSR exploits this by scoring each
patch's *difficulty* and routing easy patches to compact models on idle
processors. :class:`DifficultyDispatcher` reproduces that scheme on the
modeled platform:

1. **Difficulty metric** (:func:`tile_difficulty`): per-tile gradient
   energy + luma variance of the decoded LR patch, computed with one
   summed-area table per statistic — flat tiles score near zero, edges
   and texture score high. When the decoded frame carries codec residual
   summaries (the PR-7 SAT ledger,
   :meth:`~repro.codec.decoder.DecodedFrame.residual_block_energy`), the
   caller passes them as ``extra_energy``: heavy-residual tiles are
   exactly where warp-style shortcuts fail, so they bias toward the big
   model.
2. **Budgeted greedy routing** (:meth:`DifficultyDispatcher.plan`):
   tiles are visited hardest-first and claim the best-quality backend
   whose engine stays within the per-frame latency budget; engines
   (NPU / GPU / CPU) run concurrently, so the modeled stage latency is
   the *max* over engine totals, and each backend's time is its anchor
   curve evaluated at the total pixels routed to it (one batched
   invocation per backend per frame). Tiles that fit nowhere overflow
   to the cheapest backend and are counted.
3. **Execution** (:meth:`DifficultyDispatcher.run`): windows are
   gathered once with reflect-padded halo context, each backend
   upscales its group as one batch, and the HR cores are mosaicked back
   — the same overlap-tiled convention as
   :meth:`~repro.sr.runner.SRRunner.upscale_tiled`, so seams stay
   clean for every backend mix.

Layering note: the SAT block-sum helper mirrors
``repro.codec.residual.block_energy`` locally (``repro.sr`` sits below
``repro.codec`` in the import layering, same convention as
``repro.sr.gop_reuse`` mirroring the motion helpers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..contracts import shaped
from ..platform.device import DeviceProfile
from .backends import SRBackend
from .runner import _gather_windows

__all__ = [
    "DispatchPlan",
    "DifficultyDispatcher",
    "tile_difficulty",
]

#: Rec. 601 luma weights (the codec's own RGB->Y convention).
_LUMA = np.array([0.299, 0.587, 0.114])


def _block_sum(values: np.ndarray, block: int) -> np.ndarray:
    """Per-block sums of a 2-D field on a ``block``-aligned grid.

    One summed-area table + four gathers, ragged edge blocks included —
    the same scheme as ``repro.codec.residual.block_energy`` (mirrored
    locally; see the module layering note).
    """
    h, w = values.shape
    ny = -(-h // block)
    nx = -(-w // block)
    sat = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(values, axis=0, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
    ys = np.minimum(np.arange(ny + 1, dtype=np.int64) * block, h)
    xs = np.minimum(np.arange(nx + 1, dtype=np.int64) * block, w)
    return (
        sat[np.ix_(ys[1:], xs[1:])]
        - sat[np.ix_(ys[1:], xs[:-1])]
        - sat[np.ix_(ys[:-1], xs[1:])]
        + sat[np.ix_(ys[:-1], xs[:-1])]
    )


def _block_pixels(h: int, w: int, block: int) -> np.ndarray:
    """Pixel count of each (possibly ragged) block on the grid."""
    ny = -(-h // block)
    nx = -(-w // block)
    iy = np.arange(ny, dtype=np.int64)
    ix = np.arange(nx, dtype=np.int64)
    bh = np.minimum((iy + 1) * block, h) - iy * block
    bw = np.minimum((ix + 1) * block, w) - ix * block
    return bh[:, None].astype(np.float64) * bw[None, :]


@shaped(patch="H W 3:n")
def tile_difficulty(
    patch: np.ndarray,
    tile: int,
    extra_energy: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-tile difficulty of an (H, W, 3) LR patch in [0, 1].

    Mean-per-pixel gradient energy plus luma variance over each
    ``tile x tile`` grid cell (ragged edge tiles normalized by their
    true pixel count, so partial tiles compare fairly). ``extra_energy``
    is an optional per-tile energy hint on the same grid — e.g. the
    codec's residual block energies over the patch — added after the
    same per-pixel normalization. Returns an (ny, nx) float64 array.
    """
    if tile < 1:
        raise ValueError(f"tile must be >= 1, got {tile}")
    patch = np.asarray(patch, dtype=np.float64)
    h, w = patch.shape[:2]
    luma = patch @ _LUMA
    # Forward differences; same-shape fields keep the SAT grids aligned.
    gy = np.zeros_like(luma)
    gx = np.zeros_like(luma)
    gy[:-1] = np.diff(luma, axis=0)
    gx[:, :-1] = np.diff(luma, axis=1)
    grad = gy * gy + gx * gx

    pixels = _block_pixels(h, w, tile)
    grad_pp = _block_sum(grad, tile) / pixels
    mean = _block_sum(luma, tile) / pixels
    var_pp = np.maximum(_block_sum(luma * luma, tile) / pixels - mean * mean, 0.0)
    difficulty = grad_pp + var_pp
    if extra_energy is not None:
        extra = np.asarray(extra_energy, dtype=np.float64)
        if extra.shape != difficulty.shape:
            raise ValueError(
                f"extra_energy shape {extra.shape} != tile grid {difficulty.shape}"
            )
        difficulty = difficulty + extra / pixels
    return difficulty


@dataclass(frozen=True)
class DispatchPlan:
    """Routing decision for one patch: who upscales which tile."""

    #: Flat (ny*nx,) backend index per tile, row-major over the grid.
    assignment: np.ndarray
    #: Modeled per-engine busy time (each backend's anchor curve at its
    #: total routed pixels, summed per engine).
    engine_ms: Dict[str, float]
    #: Modeled busy time per backend, by name (one batched invocation
    #: at the backend's total routed pixels).
    backend_ms: Dict[str, float]
    #: Tiles routed to each backend, by name.
    backend_tiles: Dict[str, int]
    budget_ms: float
    #: Tiles no backend could fit under the budget (sent to the
    #: cheapest backend anyway — the budget is a target, not a drop).
    overflow_tiles: int
    mean_difficulty: float

    @property
    def upscale_ms(self) -> float:
        """Modeled stage latency: engines run concurrently."""
        return max(self.engine_ms.values(), default=0.0)

    def meta(self) -> Dict[str, object]:
        """Span-metadata payload for ``sr.dispatch/*`` observability."""
        return {
            "tiles_total": int(self.assignment.size),
            "backend_tiles": dict(self.backend_tiles),
            "backend_ms": {k: round(v, 6) for k, v in self.backend_ms.items()},
            "engine_ms": {k: round(v, 6) for k, v in self.engine_ms.items()},
            "budget_ms": self.budget_ms,
            "overflow_tiles": self.overflow_tiles,
            "mean_difficulty": round(self.mean_difficulty, 6),
            "upscale_ms": round(self.upscale_ms, 6),
        }


@dataclass
class DifficultyDispatcher:
    """Route RoI tiles across a backend pool under a latency budget.

    ``backends`` must share one upscale factor; they are consulted in
    ``quality_rank`` order (best first) and the last-ranked backend is
    the overflow fallback. ``budget_ms`` bounds every engine's modeled
    busy time per frame; ``float("inf")`` routes everything to the best
    backend (useful as a sanity limit).
    """

    backends: Sequence[SRBackend]
    budget_ms: float
    tile: int = 16
    halo: int = 4
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("need at least one backend")
        scales = {b.scale for b in self.backends}
        if len(scales) != 1:
            raise ValueError(f"backends disagree on scale: {sorted(scales)}")
        names = [b.name for b in self.backends]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate backend names: {names}")
        if self.budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {self.budget_ms}")
        if self.tile < 1 or self.halo < 0:
            raise ValueError("tile must be >= 1 and halo >= 0")
        ranks = np.array([b.quality_rank for b in self.backends])
        self._order = np.argsort(ranks, kind="stable")

    @property
    def scale(self) -> int:
        return self.backends[0].scale

    def plan(
        self,
        difficulty: np.ndarray,
        device: DeviceProfile,
        tile_pixels: Optional[float] = None,
    ) -> DispatchPlan:
        """Greedy hardest-first routing of a difficulty grid.

        ``tile_pixels`` overrides the modeled LR pixel load per tile
        (default ``tile**2``) — the streaming client plans at the
        *modeled* geometry (its share of the 720p RoI) while the
        difficulty grid comes from the eval-scale pixels, mirroring how
        every other client latency is modeled.
        """
        difficulty = np.asarray(difficulty, dtype=np.float64)
        flat = difficulty.ravel()
        n = flat.size
        tile_px = float(self.tile * self.tile) if tile_pixels is None else float(tile_pixels)
        if tile_px <= 0:
            raise ValueError(f"tile_pixels must be positive, got {tile_px}")
        order = np.argsort(-flat, kind="stable")

        counts = [0] * len(self.backends)
        # Engine busy time is recomputed from each backend's curve at its
        # routed pixel total, so the NPU saturation term stays honest.
        engine_ms: Dict[str, float] = {}
        for b in self.backends:
            engine_ms.setdefault(b.engine, 0.0)

        def _backend_ms(idx: int, tiles: int) -> float:
            if tiles == 0:
                return 0.0
            return self.backends[idx].latency_ms(tiles * tile_px, device)

        assignment = np.empty(n, dtype=np.int64)
        fallback = int(self._order[-1])
        overflow = 0
        for t in order:
            placed = False
            for idx in self._order:
                idx = int(idx)
                b = self.backends[idx]
                delta = _backend_ms(idx, counts[idx] + 1) - _backend_ms(
                    idx, counts[idx]
                )
                if engine_ms[b.engine] + delta <= self.budget_ms:
                    assignment[t] = idx
                    counts[idx] += 1
                    engine_ms[b.engine] += delta
                    placed = True
                    break
            if not placed:
                b = self.backends[fallback]
                delta = _backend_ms(fallback, counts[fallback] + 1) - _backend_ms(
                    fallback, counts[fallback]
                )
                assignment[t] = fallback
                counts[fallback] += 1
                engine_ms[b.engine] += delta
                overflow += 1

        # Re-derive engine totals exactly from the final per-backend
        # pixel loads (the incremental deltas already telescope to the
        # same value; this keeps the report independent of visit order).
        engine_ms = {e: 0.0 for e in engine_ms}
        backend_tiles: Dict[str, int] = {}
        backend_ms: Dict[str, float] = {}
        for idx, b in enumerate(self.backends):
            ms = _backend_ms(idx, counts[idx])
            backend_tiles[b.name] = counts[idx]
            backend_ms[b.name] = ms
            engine_ms[b.engine] += ms
        return DispatchPlan(
            assignment=assignment,
            engine_ms=engine_ms,
            backend_ms=backend_ms,
            backend_tiles=backend_tiles,
            budget_ms=self.budget_ms,
            overflow_tiles=overflow,
            mean_difficulty=float(flat.mean()) if n else 0.0,
        )

    @shaped(patch="H W 3:n")
    def run(
        self,
        patch: np.ndarray,
        device: DeviceProfile,
        extra_energy: Optional[np.ndarray] = None,
        tile_pixels: Optional[float] = None,
    ) -> "tuple[np.ndarray, DispatchPlan]":
        """Score, route, and execute one LR patch; returns (HR, plan)."""
        patch = np.asarray(patch, dtype=np.float64)  # seam-normalized before backend casts
        h, w = patch.shape[:2]
        s = self.scale
        difficulty = tile_difficulty(patch, self.tile, extra_energy)
        plan = self.plan(difficulty, device, tile_pixels=tile_pixels)
        ny, nx = difficulty.shape

        # Gather halo windows once (shared by every backend group), the
        # same reflect-pad convention as SRRunner tiled inference.
        tile, halo = self.tile, self.halo
        origins = np.indices((ny, nx)).reshape(2, -1).T * tile
        windows = _gather_windows(patch, origins, (tile, tile), halo)

        out = np.empty((ny * tile * s, nx * tile * s, patch.shape[2]), dtype=np.float64)
        for idx, backend in enumerate(self.backends):
            sel = np.flatnonzero(plan.assignment == idx)
            if sel.size == 0:
                continue
            hr = backend.upscale_batch(windows[sel])
            core = hr[:, halo * s : (halo + tile) * s, halo * s : (halo + tile) * s]
            for j, t in enumerate(sel):
                iy, ix = divmod(int(t), nx)
                out[
                    iy * tile * s : (iy + 1) * tile * s,
                    ix * tile * s : (ix + 1) * tile * s,
                ] = core[j]
        return np.clip(out[: h * s, : w * s], 0.0, 1.0), plan
