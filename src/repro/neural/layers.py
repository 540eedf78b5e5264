"""Module/layer abstractions over the autograd tensors.

A :class:`Module` tracks parameters and sub-modules by attribute assignment
(the familiar torch.nn idiom) and supports flat ``state_dict`` round-trips
for serialization.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from . import functional as F
from .init import kaiming_uniform, zeros
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "Module",
    "Conv2d",
    "PReLU",
    "Sequential",
    "ResidualBlock",
    "PixelShuffle",
    "Upsampler",
]


class Module:
    """Base class: parameter registry, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- attribute-based registration ----------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes ----------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    # -- state dict -------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {value.shape} != {param.shape}"
                )
            param.data = value.copy()

    # -- call protocol ----------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Conv2d(Module):
    """3x3-style convolution layer with He-initialized weights."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: Optional[int] = None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_channels < 1 or out_channels < 1 or kernel_size < 1:
            raise ValueError("channels and kernel size must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        # "same" padding by default for odd kernels.
        self.padding = kernel_size // 2 if padding is None else padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Tensor(kaiming_uniform(shape, rng), requires_grad=True)
        self.bias = Tensor(zeros((out_channels,)), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class PReLU(Module):
    """Parametric ReLU with a single shared negative slope."""

    def __init__(self, init: float = 0.25) -> None:
        super().__init__()
        self.alpha = Tensor(np.array([init]), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x.relu() - self.alpha * (-x).relu()


class Sequential(Module):
    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for idx, module in enumerate(modules):
            name = str(idx)
            self._modules[name] = module
            object.__setattr__(self, f"m{idx}", module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (self._modules[name] for name in self._order)


class ResidualBlock(Module):
    """EDSR residual block: conv-ReLU-conv with scaled skip, no batch norm."""

    def __init__(
        self,
        channels: int,
        kernel_size: int = 3,
        res_scale: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv1 = Conv2d(channels, channels, kernel_size, rng=rng)
        self.conv2 = Conv2d(channels, channels, kernel_size, rng=rng)
        self.res_scale = res_scale

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            # Inference: the conv outputs are block-private, so the ReLU,
            # residual scale, and skip-add can all run in place — no
            # multi-MB temporaries per block.
            y = self.conv1(x)
            np.maximum(y.data, 0.0, out=y.data)
            y = self.conv2(y)
            y.data *= self.res_scale
            y.data += x.data
            return y
        out = self.conv2(self.conv1(x).relu())
        return x + out * self.res_scale


class PixelShuffle(Module):
    def __init__(self, factor: int) -> None:
        super().__init__()
        self.factor = factor

    def forward(self, x: Tensor) -> Tensor:
        return F.pixel_shuffle(x, self.factor)


class Upsampler(Module):
    """Sub-pixel convolution upsampler: conv to r^2*C channels + shuffle.

    Supports power-of-two factors and factor 3, like the EDSR reference code.
    """

    def __init__(
        self,
        channels: int,
        factor: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        stages: List[Module] = []
        remaining = factor
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        while remaining > 1:
            if remaining % 2 == 0:
                step = 2
            elif remaining % 3 == 0:
                step = 3
            else:
                raise ValueError(f"unsupported upscale factor {factor}")
            stages.append(Conv2d(channels, channels * step * step, 3, rng=rng))
            stages.append(PixelShuffle(step))
            remaining //= step
        self.stages = Sequential(*stages)

    def forward(self, x: Tensor) -> Tensor:
        return self.stages(x)
