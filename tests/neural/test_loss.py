"""L1 loss: values and gradient flow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.loss import l1_loss
from repro.neural.tensor import Tensor


@pytest.fixture
def pair():
    pred = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    target = Tensor(np.array([1.0, 0.0, 5.0]))
    return pred, target


def test_l1_value(pair):
    pred, target = pair
    assert l1_loss(pred, target).item() == pytest.approx((0 + 2 + 2) / 3)


def test_identical_inputs_zero_loss():
    x = Tensor(np.array([1.0, 2.0]))
    assert l1_loss(x, x).item() == 0.0


def test_gradients_flow(pair):
    pred, target = pair
    l1_loss(pred, target).backward()
    assert pred.grad is not None and np.any(pred.grad != 0)
