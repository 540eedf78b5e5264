"""Super-resolution: classical filters, neural runners, in-repo training."""

from .backends import (
    InterpBackend,
    NeuralBackend,
    SRBackend,
    available_backends,
    build_backend,
)
from .dispatch import DifficultyDispatcher, DispatchPlan, tile_difficulty
from .gop_reuse import (
    REUSE_DIRTY_THRESHOLD,
    GOPSRCache,
    composite_blocks,
    dirty_block_mask,
)
from .interpolate import bicubic, bilinear
from .pretrained import (
    PROFILES,
    ZOO_ARCHS,
    default_sr_model,
    training_frames,
    zoo_sr_model,
)
from .runner import SRRunner
from .training import PatchDataset, TrainReport, extract_patches, train_sr_model

__all__ = [
    "DifficultyDispatcher",
    "DispatchPlan",
    "GOPSRCache",
    "InterpBackend",
    "NeuralBackend",
    "PROFILES",
    "PatchDataset",
    "REUSE_DIRTY_THRESHOLD",
    "SRBackend",
    "SRRunner",
    "TrainReport",
    "ZOO_ARCHS",
    "available_backends",
    "bicubic",
    "bilinear",
    "build_backend",
    "composite_blocks",
    "dirty_block_mask",
    "default_sr_model",
    "extract_patches",
    "tile_difficulty",
    "training_frames",
    "train_sr_model",
    "zoo_sr_model",
]
