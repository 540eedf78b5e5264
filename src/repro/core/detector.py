"""Server-side depth-guided RoI detector (paper Phase-1, Fig. 6).

Composes the Fig. 8 preprocessing with the Algorithm-1 search: given the
frame's depth buffer and the client's negotiated RoI window size, return
the RoI coordinates that travel to the client alongside the encoded frame.

The detector is stateful only when the config opts into the temporal
warm start (``RoIConfig.warm_start``): consecutive frames then reuse the
previous full frame's global statistics (threshold / layer bounds /
selected layer — see ``DepthPreprocessStats``) for the per-pixel
preprocessing and search a local boundary around the previous box,
falling back to the full pipeline when the local winner's window sum
drops below ``warm_start_fraction`` of the running full-search
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import shaped
from .config import DEFAULT_ROI_CONFIG, RoIConfig
from .depth_preprocess import (
    DepthPreprocessResult,
    DepthPreprocessStats,
    preprocess_depth,
)
from .roi_search import RoIBox, search_roi_scored, warm_search_roi

__all__ = ["RoIDetection", "RoIDetector"]


@dataclass(frozen=True)
class RoIDetection:
    """Result of one detection: the box plus preprocessing intermediates.

    ``search_mode`` records which path found the box ("full" = Algorithm 1,
    "warm" = accepted temporal warm start); ``score`` is the winning
    window's summed importance.
    """

    box: RoIBox
    preprocess: DepthPreprocessResult
    search_mode: str = "full"
    score: float = 0.0


class RoIDetector:
    """Depth-guided RoI detection with a fixed window size.

    Parameters
    ----------
    window_side:
        The square RoI side in LR-frame pixels (from
        :func:`repro.core.roi_sizing.plan_roi_window`, possibly rescaled
        for the frame geometry).
    config:
        Preprocessing/search knobs.
    """

    def __init__(self, window_side: int, config: RoIConfig = DEFAULT_ROI_CONFIG) -> None:
        if window_side < 2:
            raise ValueError(f"window_side must be >= 2, got {window_side}")
        self.window_side = window_side
        self.config = config
        self._warm_prev: RoIBox | None = None
        self._warm_ref_score = 0.0
        self._warm_key: tuple[int, int, int] | None = None
        self._warm_stats: DepthPreprocessStats | None = None

    def reset(self) -> None:
        """Drop warm-start temporal state (scene cut / new session)."""
        self._warm_prev = None
        self._warm_ref_score = 0.0
        self._warm_key = None
        self._warm_stats = None

    @shaped(depth="H W:n")
    def detect(self, depth: np.ndarray) -> RoIDetection:
        """Locate the RoI on one depth buffer."""
        depth = np.asarray(depth, dtype=np.float64)
        if depth.ndim != 2:
            raise ValueError(f"expected 2-D depth buffer, got {depth.shape}")
        height, width = depth.shape
        side = min(self.window_side, height, width)
        config = self.config

        key = (height, width, side)
        if (
            config.warm_start
            and self._warm_prev is not None
            and self._warm_key == key
            and self._warm_stats is not None
        ):
            # Warm frame: per-pixel preprocessing under the previous full
            # frame's global statistics, then one local pass around the
            # previous box. Accepted only while the local winner keeps a
            # configurable fraction of the full search's reference score —
            # the guard that bounds both spatial and statistical staleness.
            pre = preprocess_depth(depth, config, reuse=self._warm_stats)
            if pre is not None:
                local = warm_search_roi(
                    pre.processed,
                    win_h=side,
                    win_w=side,
                    prev=self._warm_prev,
                    fine_stride=config.fine_stride,
                    boundary=config.warm_start_boundary,
                )
                if local.score >= config.warm_start_fraction * self._warm_ref_score:
                    # Track the best score the warm path has seen so the bar
                    # never decays below what full search last established.
                    self._warm_ref_score = max(self._warm_ref_score, local.score)
                    box = local.box.clamped(height, width)
                    self._warm_prev = box
                    return RoIDetection(
                        box=box, preprocess=pre, search_mode="warm", score=local.score
                    )

        pre = preprocess_depth(depth, config)
        result = search_roi_scored(
            pre.processed,
            win_h=side,
            win_w=side,
            fine_stride=config.fine_stride,
            bbox=pre.processed_bbox,
        )
        box = result.box.clamped(height, width)
        self._warm_prev = box
        self._warm_ref_score = result.score
        self._warm_key = key
        self._warm_stats = pre.stats
        return RoIDetection(box=box, preprocess=pre, search_mode="full", score=result.score)
