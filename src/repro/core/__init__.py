"""GameStreamSR core: RoI sizing, depth-guided detection, hybrid upscaling.

This package is the paper's primary contribution (Sec. IV): the
session-start RoI window negotiation, the server-side depth-buffer RoI
detector (Fig. 8 preprocessing + Algorithm 1 search), and the client-side
RoI-assisted hybrid upscaler (Fig. 9).
"""

from .config import DEFAULT_ROI_CONFIG, RoIConfig
from .depth_preprocess import (
    DepthPreprocessResult,
    DepthPreprocessStats,
    center_weight_matrix,
    layer_bounds,
    preprocess_depth,
)
from .detector import RoIDetection, RoIDetector
from .roi_search import (
    RoIBox,
    RoISearchResult,
    search_roi_scored,
    warm_search_roi,
    window_sums,
)
from .roi_sizing import (
    RoIWindowPlan,
    foveal_diameter_cm,
    foveal_diameter_inches,
    min_roi_side_px,
    plan_roi_window,
)
from .upscaler import HybridUpscaleResult, RoIAssistedUpscaler

__all__ = [
    "DEFAULT_ROI_CONFIG",
    "DepthPreprocessResult",
    "DepthPreprocessStats",
    "HybridUpscaleResult",
    "RoIBox",
    "RoIConfig",
    "RoIDetection",
    "RoIDetector",
    "RoISearchResult",
    "RoIWindowPlan",
    "RoIAssistedUpscaler",
    "center_weight_matrix",
    "foveal_diameter_cm",
    "foveal_diameter_inches",
    "layer_bounds",
    "min_roi_side_px",
    "plan_roi_window",
    "preprocess_depth",
    "search_roi_scored",
    "warm_search_roi",
    "window_sums",
]
