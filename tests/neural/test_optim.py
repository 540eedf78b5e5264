"""Adam: convergence on known problems, state handling, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.optim import Adam, clip_grad_norm
from repro.neural.tensor import Tensor


def quadratic_step(optimizer, x: Tensor, target: np.ndarray) -> float:
    optimizer.zero_grad()
    diff = x - Tensor(target)
    loss = (diff * diff).sum()
    loss.backward()
    optimizer.step()
    return loss.item()


class TestAdam:
    def test_converges_on_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        target = np.array([1.0, 2.0])
        opt = Adam([x], lr=0.2)
        for _ in range(200):
            quadratic_step(opt, x, target)
        np.testing.assert_allclose(x.data, target, atol=1e-3)

    def test_loss_decreases(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        first = quadratic_step(opt, x, np.zeros(1))
        for _ in range(20):
            last = quadratic_step(opt, x, np.zeros(1))
        assert last < first

    def test_bias_correction_first_step(self):
        """First Adam step moves by ~lr regardless of gradient scale."""
        for scale in (1.0, 1000.0):
            x = Tensor(np.array([scale]), requires_grad=True)
            opt = Adam([x], lr=0.1)
            quadratic_step(opt, x, np.zeros(1))
            assert abs(scale - float(x.data[0])) == pytest.approx(0.1, rel=1e-3)

    def test_skips_params_without_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()  # no grad yet; must not raise or move
        assert x.data[0] == 1.0

    def test_validation(self):
        x = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([x], betas=(1.0, 0.999))
        with pytest.raises(ValueError):
            Adam([x], lr=0.0)
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(1))], lr=0.1)  # nothing trainable


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        x = Tensor(np.ones(4), requires_grad=True)
        (x * 100.0).sum().backward()
        pre = clip_grad_norm([x], max_norm=1.0)
        assert pre == pytest.approx(200.0)
        assert np.linalg.norm(x.grad) == pytest.approx(1.0, rel=1e-6)

    def test_leaves_small_gradients(self):
        x = Tensor(np.ones(4), requires_grad=True)
        (x * 0.01).sum().backward()
        clip_grad_norm([x], max_norm=1.0)
        assert np.linalg.norm(x.grad) == pytest.approx(0.02)

    def test_handles_missing_grads(self):
        assert clip_grad_norm([Tensor(np.ones(1), requires_grad=True)], 1.0) == 0.0
