"""Training loss for the SR models (EDSR trains with L1)."""

from __future__ import annotations

from .tensor import Tensor, as_tensor

__all__ = ["l1_loss"]


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    return (as_tensor(prediction) - as_tensor(target)).abs().mean()
