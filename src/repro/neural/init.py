"""Deterministic weight initializers (He) for the neural substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "zeros"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 4:  # conv (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"cannot infer fan for shape {shape}")


def kaiming_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He-uniform init sized for ReLU nets."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)
