"""Deterministic in-repo "pretrained" SR models.

The paper deploys an EDSR trained offline; with no network access we
train deterministically on rendered game frames at first use and cache
the weights under ``.cache/weights/``. Two profiles:

* ``"experiment"`` — a width/depth-reduced EDSR used by the quality
  experiments (pure-numpy inference over whole sequences must stay
  tractable; see DESIGN.md scale notes);
* ``"paper"`` — the paper's full 16-block/64-channel geometry, exercised
  by unit tests and available to users with patience.
"""

from __future__ import annotations

import logging
import zipfile
from pathlib import Path
from typing import Sequence

import numpy as np

from ..cache import cache_dir
from ..neural.layers import Module
from ..neural.models import EDSR, FSRCNNLite, QuantizedEDSR, QuickSRNet
from ..neural.serialization import load_weights, save_weights
from .training import extract_patches, train_sr_model

__all__ = [
    "default_sr_model",
    "zoo_sr_model",
    "weights_path",
    "training_frames",
    "PROFILES",
    "ZOO_ARCHS",
    "DEFAULT_TRAIN_CODEC_QUALITY",
]

_logger = logging.getLogger(__name__)

PROFILES = {
    # profile: (n_resblocks, n_feats, epochs, per_frame_patches)
    "experiment": (3, 20, 25, 40),
    "tiny": (1, 8, 4, 10),
    "paper": (16, 64, 2, 8),
}

#: Codec quality the deployed stream uses; training matches it
#: (see repro.sr.training.extract_patches).
DEFAULT_TRAIN_CODEC_QUALITY = 70


def training_frames(
    height: int = 256, width: int = 448, game_ids: Sequence[str] = ("G1", "G3", "G5", "G7"),
    frames_per_game: int = 2,
) -> list[np.ndarray]:
    """Render the HR frames the default models train on."""
    from ..render.games import build_game  # deferred: keep import cost lazy

    frames = []
    for game_id in game_ids:
        game = build_game(game_id)
        for i in range(frames_per_game):
            frames.append(game.render_frame(i * 7, width, height).color)
    return frames


def _load_or_train(
    model: Module,
    path: Path,
    scale: int,
    epochs: int,
    per_frame: int,
    force_retrain: bool,
) -> Module:
    """Shared cache-or-train path for every zoo architecture."""
    if path.exists() and not force_retrain:
        try:
            return load_weights(model, path)
        except (zipfile.BadZipFile, OSError, KeyError, ValueError) as exc:
            # A truncated/garbled checkpoint (e.g. from an interrupted
            # run) must not brick the whole suite: drop it and retrain.
            _logger.warning(
                "corrupt weights cache %s (%s: %s); retraining",
                path, type(exc).__name__, exc,
            )
            path.unlink(missing_ok=True)

    frames = training_frames()
    dataset = extract_patches(
        frames,
        scale=scale,
        patch_lr=20,
        per_frame=per_frame,
        seed=11,
        codec_quality=DEFAULT_TRAIN_CODEC_QUALITY,
    )
    train_sr_model(model, dataset, epochs=epochs, batch_size=8, lr=1.2e-3, seed=3)
    save_weights(model, path)
    return model


def default_sr_model(
    scale: int = 2, profile: str = "experiment", force_retrain: bool = False
) -> EDSR:
    """Load (or train-and-cache) the default EDSR for ``scale``/``profile``."""
    blocks, feats, epochs, per_frame = PROFILES.get(profile, (None,) * 4)
    if blocks is None:
        raise ValueError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    model = EDSR(scale=scale, n_resblocks=blocks, n_feats=feats, seed=7)
    path = weights_path("edsr", scale, profile)
    return _load_or_train(model, path, scale, epochs, per_frame, force_retrain)


#: Architectures :func:`zoo_sr_model` can build (neural zoo members; the
#: interpolation backends in repro.sr.backends need no weights).
ZOO_ARCHS = ("edsr", "edsr_int8", "fsrcnn", "quicksrnet")


def weights_path(arch: str, scale: int = 2, profile: str = "experiment") -> Path:
    """The cached weights file :func:`zoo_sr_model` loads ``arch`` from
    (``edsr_int8`` quantizes the EDSR file)."""
    stem = "edsr" if arch == "edsr_int8" else arch
    return cache_dir() / "weights" / f"{stem}_{profile}_x{scale}.npz"


def zoo_sr_model(
    arch: str = "edsr",
    scale: int = 2,
    profile: str = "experiment",
    force_retrain: bool = False,
) -> Module:
    """Load (or train-and-cache) a model-zoo architecture.

    Geometry derives from the shared ``PROFILES`` table so every zoo
    member shrinks together under the test/experiment profiles:

    * ``edsr`` — the default model (same cache file as
      :func:`default_sr_model`);
    * ``edsr_int8`` — the trained EDSR weights loaded into a
      :class:`~repro.neural.models.QuantizedEDSR` and fake-quantized
      (no separate cache: quantization is deterministic post-processing);
    * ``fsrcnn`` — :class:`~repro.neural.models.FSRCNNLite`;
    * ``quicksrnet`` — :class:`~repro.neural.models.QuickSRNet`.
    """
    blocks, feats, epochs, per_frame = PROFILES.get(profile, (None,) * 4)
    if blocks is None:
        raise ValueError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    if arch == "edsr":
        return default_sr_model(scale, profile, force_retrain)
    if arch == "edsr_int8":
        trained = default_sr_model(scale, profile, force_retrain)
        model = QuantizedEDSR(scale=scale, n_resblocks=blocks, n_feats=feats, seed=7)
        model.load_state_dict(trained.state_dict())
        return model.quantize()
    if arch == "fsrcnn":
        model = FSRCNNLite(
            scale=scale,
            feats=feats,
            shrink=max(4, feats // 2),
            n_maps=blocks,
            seed=7,
        )
    elif arch == "quicksrnet":
        model = QuickSRNet(scale=scale, n_convs=blocks, feats=feats, seed=7)
    else:
        raise ValueError(
            f"unknown zoo architecture {arch!r}; choose from {ZOO_ARCHS}"
        )
    path = weights_path(arch, scale, profile)
    return _load_or_train(model, path, scale, epochs, per_frame, force_retrain)
