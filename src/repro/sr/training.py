"""In-repo training of the SR models on rendered game content.

Training pairs are (bilinear-downsampled LR patch, native HR patch)
crops from high-resolution renders of the synthetic game scenes —
the standard SISR supervision setup. Patches are importance-sampled
toward detailed regions (high local variance), where SR has something to
restore, which is also where GameStreamSR places its RoI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from ..neural.layers import Module
from ..neural.loss import l1_loss
from ..neural.optim import Adam, clip_grad_norm
from ..neural.tensor import Tensor
from .interpolate import bilinear

__all__ = ["PatchDataset", "TrainReport", "extract_patches", "train_sr_model"]


@dataclass
class PatchDataset:
    """Paired LR/HR patches as (N, C, h, w) arrays."""

    lr: np.ndarray
    hr: np.ndarray

    def __post_init__(self) -> None:
        if len(self.lr) != len(self.hr):
            raise ValueError(
                f"LR/HR count mismatch: {len(self.lr)} vs {len(self.hr)}"
            )
        if len(self.lr) == 0:
            raise ValueError("empty patch dataset")

    def __len__(self) -> int:
        return len(self.lr)

    def batches(
        self, batch_size: int, rng: np.random.Generator
    ) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        order = rng.permutation(len(self.lr))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            yield self.lr[idx], self.hr[idx]


def extract_patches(
    hr_frames: Sequence[np.ndarray],
    scale: int = 2,
    patch_lr: int = 24,
    per_frame: int = 24,
    seed: int = 0,
    detail_bias: float = 0.75,
    codec_quality: int | None = None,
) -> PatchDataset:
    """Crop paired patches from HR frames (LR = bilinear downsample).

    ``detail_bias`` is the fraction of patches drawn from the top-variance
    candidate crops; the remainder is uniform (keeps flat regions
    represented so the model does not hallucinate texture everywhere).
    ``codec_quality`` additionally round-trips the LR frame through the
    streaming codec at that quantizer quality before cropping, so the
    model trains on the same compressed distribution it sees when deployed
    at the client (the online per-video training trick NEMO relies on).
    """
    if not hr_frames:
        raise ValueError("no HR frames supplied")
    if patch_lr < 8:
        raise ValueError(f"patch_lr must be >= 8, got {patch_lr}")
    rng = np.random.default_rng(seed)
    patch_hr = patch_lr * scale
    lr_list: List[np.ndarray] = []
    hr_list: List[np.ndarray] = []

    for frame in hr_frames:
        frame = np.asarray(frame, dtype=np.float64)
        h, w = frame.shape[:2]
        if h < patch_hr or w < patch_hr:
            raise ValueError(f"frame {h}x{w} smaller than HR patch {patch_hr}")
        lr_h, lr_w = h // scale, w // scale
        lr_frame = bilinear(frame, lr_h, lr_w)
        if codec_quality is not None:
            # Imported lazily: the codec package is independent of repro.sr.
            from ..codec.decoder import VideoDecoder
            from ..codec.encoder import VideoEncoder

            encoder = VideoEncoder(gop_size=1, quality=codec_quality)
            lr_frame = VideoDecoder().decode_frame(encoder.encode_frame(lr_frame)).rgb

        n_candidates = per_frame * 4
        ys = rng.integers(0, lr_h - patch_lr + 1, size=n_candidates)
        xs = rng.integers(0, lr_w - patch_lr + 1, size=n_candidates)
        hr_crops = [
            frame[y * scale : y * scale + patch_hr, x * scale : x * scale + patch_hr]
            for y, x in zip(ys, xs)
        ]
        variances = np.array([float(c.var()) for c in hr_crops])

        n_detail = int(round(per_frame * detail_bias))
        detail_idx = np.argsort(variances)[::-1][:n_detail]
        uniform_idx = rng.choice(n_candidates, size=per_frame - n_detail, replace=False)
        for idx in list(detail_idx) + list(uniform_idx):
            y, x = int(ys[int(idx)]), int(xs[int(idx)])
            hr_list.append(hr_crops[int(idx)].transpose(2, 0, 1))
            lr_list.append(
                lr_frame[y : y + patch_lr, x : x + patch_lr].transpose(2, 0, 1)
            )

    return PatchDataset(lr=np.stack(lr_list), hr=np.stack(hr_list))


@dataclass(frozen=True)
class TrainReport:
    """Loss trajectory of one training run."""

    losses: tuple[float, ...]
    epochs: int
    n_patches: int

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train_sr_model(
    model: Module,
    dataset: PatchDataset,
    epochs: int = 8,
    batch_size: int = 8,
    lr: float = 1e-3,
    seed: int = 0,
    grad_clip: float = 5.0,
) -> TrainReport:
    """L1-train ``model`` on the dataset; returns the per-epoch losses."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    model.train()
    losses: List[float] = []
    for epoch in range(epochs):
        epoch_losses = []
        for lr_batch, hr_batch in dataset.batches(batch_size, rng):
            optimizer.zero_grad()
            pred = model(Tensor(lr_batch))
            loss = l1_loss(pred, Tensor(hr_batch))
            loss.backward()
            clip_grad_norm(model.parameters(), grad_clip)
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
    model.eval()
    return TrainReport(losses=tuple(losses), epochs=epochs, n_patches=len(dataset))
