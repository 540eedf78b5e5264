"""Autograd tensor: op correctness, gradients, broadcasting, tape control."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neural.tensor import Tensor, as_tensor, is_grad_enabled, no_grad

from ..conftest import numeric_gradient


def check_grad(op, *shapes, seed=0, tol=1e-5):
    """Compare analytic and numeric gradients of ``op`` over random inputs."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = op(*tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        numeric = numeric_gradient(lambda: op(*[Tensor(x) for x in arrays]).item(), a)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, numeric, atol=tol, rtol=1e-4)


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_scalar_radd_rmul(self):
        t = Tensor([2.0])
        assert (1 + t).data[0] == 3.0
        assert (3 * t).data[0] == 6.0

    def test_sub(self):
        t = Tensor([4.0])
        assert (t - 1).data[0] == 3.0


class TestGradients:
    def test_add_grad(self):
        check_grad(lambda a, b: (a + b).sum(), (3, 4), (3, 4))

    def test_broadcast_add_grad(self):
        check_grad(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_broadcast_scalar_like_grad(self):
        check_grad(lambda a, b: (a * b).sum(), (2, 3), (1, 3))

    def test_mul_grad(self):
        check_grad(lambda a, b: (a * b * a).sum(), (5,), (5,))

    def test_relu_grad(self):
        check_grad(lambda a: (a.relu() * a).sum(), (7,), seed=3)

    def test_abs_grad_away_from_zero(self):
        check_grad(lambda a: (a.abs() + 5.0).sum(), (4,), seed=9)

    def test_sum_axis_grad(self):
        check_grad(lambda a: (a.sum(axis=1) * a.sum(axis=1)).sum(), (3, 4))

    def test_sum_keepdims_grad(self):
        check_grad(lambda a: (a.sum(axis=0, keepdims=True) * a).sum(), (3, 4))

    def test_mean_grad(self):
        check_grad(lambda a: a.mean(), (3, 5))

    def test_mean_axis_grad(self):
        check_grad(lambda a: (a.mean(axis=(0, 1)) * a.mean(axis=(0, 1))).sum(), (2, 3, 4))

    def test_pad2d_grad(self):
        check_grad(lambda a: (a.pad2d(1) * a.pad2d(1)).sum(), (1, 2, 3, 3))

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_diamond_graph(self):
        x = Tensor([1.5], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()  # d/dx 6x^2 = 12x
        assert x.grad[0] == pytest.approx(18.0)


class TestTapeControl:
    def test_no_grad_disables_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_gradient(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()
        t.backward(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(t.grad, [1.0, 1.0])

    def test_backward_gradient_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            t.backward(np.ones(3))

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


class TestProperties:
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=16),
        st.lists(st.floats(-10, 10), min_size=1, max_size=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = Tensor(xs[:n]), Tensor(ys[:n])
        np.testing.assert_allclose((a + b).data, (b + a).data)
