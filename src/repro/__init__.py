"""GameStreamSR reproduction (ISCA 2024).

Depth-guided region-of-importance super resolution for real-time cloud
game streaming on mobile platforms, plus every substrate the evaluation
needs: a software 3-D renderer with depth buffers, a GOP video codec, a
numpy neural framework with an EDSR SR model, calibrated mobile-device
latency/energy models, a network link model, and the NEMO baseline.

Quickstart::

    from repro import (
        build_game, plan_roi_window, samsung_tab_s8,
        RoIDetector, RoIAssistedUpscaler, SRRunner, default_sr_model,
    )

    device = samsung_tab_s8()
    plan = plan_roi_window(device)               # step-1 sizing probe
    game = build_game("G3")                       # Witcher-3-like scene
    frame = game.render_frame(0, 224, 128)        # color + depth buffer
    roi = RoIDetector(plan.side_for_frame(128)).detect(frame.depth).box
    upscaler = RoIAssistedUpscaler(SRRunner(default_sr_model()))
    hr = upscaler.upscale(frame.color, roi).frame  # 256x448 hybrid output

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results of every reproduced table and figure.
"""

from .core import (
    DEFAULT_ROI_CONFIG,
    HybridUpscaleResult,
    RoIAssistedUpscaler,
    RoIBox,
    RoIConfig,
    RoIDetection,
    RoIDetector,
    RoIWindowPlan,
    min_roi_side_px,
    plan_roi_window,
)
from .metrics import lpips, psnr
from .platform import (
    DeviceProfile,
    get_device,
    max_realtime_roi_side,
    npu_sr_latency_ms,
    pixel_7_pro,
    samsung_tab_s8,
)
from .render import GAME_TABLE, GameWorkload, all_games, build_game
from .sr import SRRunner, bilinear, default_sr_model
from .streaming import (
    BilinearClient,
    GameStreamSRClient,
    GameStreamServer,
    NemoClient,
    StreamGeometry,
    run_session,
)

__version__ = "1.0.0"

__all__ = [
    "BilinearClient",
    "DEFAULT_ROI_CONFIG",
    "DeviceProfile",
    "GAME_TABLE",
    "GameStreamSRClient",
    "GameStreamServer",
    "GameWorkload",
    "HybridUpscaleResult",
    "NemoClient",
    "RoIAssistedUpscaler",
    "RoIBox",
    "RoIConfig",
    "RoIDetection",
    "RoIDetector",
    "RoIWindowPlan",
    "SRRunner",
    "StreamGeometry",
    "__version__",
    "all_games",
    "bilinear",
    "build_game",
    "default_sr_model",
    "get_device",
    "lpips",
    "max_realtime_roi_side",
    "min_roi_side_px",
    "npu_sr_latency_ms",
    "pixel_7_pro",
    "plan_roi_window",
    "psnr",
    "run_session",
    "samsung_tab_s8",
]
