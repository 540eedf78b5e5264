"""Reverse-mode automatic differentiation over numpy arrays.

This is the foundation of :mod:`repro.neural`, the from-scratch substitute
for the PyTorch/TensorFlow-Lite stack the paper runs its EDSR model on
(Sec. V-A). A :class:`Tensor` wraps a float ndarray and records the ops
applied to it; :meth:`Tensor.backward` walks the tape in reverse
topological order accumulating gradients.

Only the operations the SR models need are implemented, but they are
implemented completely (full broadcasting support with gradient
"unbroadcasting", reductions, zero padding).

Dtype policy
------------
Training always runs in float64 (gradient checks in the test suite rely
on it). Inference — anything executed under :class:`no_grad` — runs at a
configurable reduced precision (float32 by default, see
:func:`set_inference_dtype`), halving the memory bandwidth of the big
im2col matmuls that dominate SR forward passes. Ops executed while the
tape is disabled also skip parent tracking and never allocate their
backward closures, so inference builds no graph at all.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "ArrayLike",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_inference_dtype",
    "get_inference_dtype",
]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True

#: Dtype used while the tape is recording (training / gradient checks).
_TRAIN_DTYPE = np.dtype(np.float64)
#: Dtype adopted by tensors created while grad is disabled.
_INFERENCE_DTYPE = np.dtype(np.float32)

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_inference_dtype(dtype) -> np.dtype:
    """Set the dtype used for tensors created under :class:`no_grad`.

    Returns the previous inference dtype. Only float32 and float64 are
    supported.
    """
    global _INFERENCE_DTYPE
    new = np.dtype(dtype)
    if new not in _FLOAT_DTYPES:
        raise ValueError(f"inference dtype must be float32 or float64, got {new}")
    previous = _INFERENCE_DTYPE
    _INFERENCE_DTYPE = new
    return previous


def get_inference_dtype() -> np.dtype:
    """The dtype tensors adopt while grad is disabled."""
    return _INFERENCE_DTYPE


class no_grad:
    """Context manager disabling tape recording (used for inference).

    Optionally overrides the inference dtype for the duration of the
    block: ``with no_grad(dtype=np.float64): ...`` runs a full-precision
    inference (used by the numerical-equivalence tests and benches).
    """

    def __init__(self, dtype=None) -> None:
        self._dtype = None if dtype is None else np.dtype(dtype)

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        self._prev_dtype: Optional[np.dtype] = None
        if self._dtype is not None:
            self._prev_dtype = set_inference_dtype(self._dtype)
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        if self._prev_dtype is not None:
            set_inference_dtype(self._prev_dtype)


def is_grad_enabled() -> bool:
    """Whether new ops are currently recorded on the autograd tape."""
    return _GRAD_ENABLED


def _tape_off(*tensors: "Tensor") -> bool:
    """True when the op needs no graph: grad disabled or no grad inputs."""
    if not _GRAD_ENABLED:
        return True
    for t in tensors:
        if t.requires_grad:
            return False
    return True


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make ndarray defer to our __radd__ etc.

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(_TRAIN_DTYPE)
        if not _GRAD_ENABLED and arr.dtype != _INFERENCE_DTYPE:
            arr = arr.astype(_INFERENCE_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if _GRAD_ENABLED else ()
        self._backward = _backward if _GRAD_ENABLED else None
        self.name = name

    # ------------------------------------------------------------------
    # basic properties

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helpers

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not needs:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # arithmetic
    #
    # Every op follows the same shape: compute the forward result, and if
    # the tape is off return a bare Tensor immediately — the backward
    # closure (and any intermediate it would capture) is never created.

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        if _tape_off(self, other):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        if _tape_off(self, other):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        if _tape_off(self):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    # ------------------------------------------------------------------
    # elementwise nonlinearities

    def relu(self) -> "Tensor":
        if _tape_off(self):
            return Tensor(np.maximum(self.data, 0))
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if _tape_off(self):
            return Tensor(out_data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions and padding

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if _tape_off(self):
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two axes by ``pad`` on each side."""
        if pad < 0:
            raise ValueError(f"pad must be >= 0, got {pad}")
        if pad == 0:
            return self
        widths = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
        out_data = np.pad(self.data, widths)
        if _tape_off(self):
            return Tensor(out_data)
        sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[sl])

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # backward pass

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} != tensor shape {self.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(value: ArrayLike | Tensor) -> Tensor:
    """Wrap ``value`` in a non-grad :class:`Tensor` if it is not one."""
    return value if isinstance(value, Tensor) else Tensor(value)
