"""Parameter containers and layers built on the autodiff engine."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .engine import (
    ConvSpec, Tensor, batch_norm, conv2d, default_dtype, gelu, layer_norm,
    recompute, same_padding,
)

__all__ = [
    "BatchNorm2d", "Conv2d", "ConvBnGelu", "LayerNorm", "Linear", "Module",
    "conv_init", "trunc_normal",
]


def trunc_normal(shape, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Normal samples rejected outside two standard deviations."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.standard_normal(bad.sum()) * std
        bad = np.abs(out) > 2 * std
    return out.astype(default_dtype())


def conv_init(shape, rng: np.random.Generator) -> np.ndarray:
    """Fan-out-scaled normal init for conv kernels (cout, cin/g, kh, kw)."""
    cout, _, kh, kw = shape
    std = np.sqrt(2.0 / (cout * kh * kw))
    return (rng.standard_normal(shape) * std).astype(default_dtype())


class Module:
    """Tree of layers with parameter/buffer discovery by attribute walking."""

    def __init__(self):
        self.training = True

    def _children(self) -> Iterator[Tuple[str, "Module"]]:
        for name, value in vars(self).items():
            yield from _modules_in(name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> Iterator[Tensor]:
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Non-trainable state (batch-norm running stats)."""
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_buffers(prefix + name + ".")

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def _modules_in(name: str, value) -> Iterator[Tuple[str, Module]]:
    """The modules in an attribute value, through nested lists and tuples;
    an item is named by its index path (``stages.0.1``)."""
    if isinstance(value, Module):
        yield name, value
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _modules_in(f"{name}.{i}", item)


class Conv2d(Module):
    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, dilation: int = 1, groups: int = 1,
                 bias: bool = True, init: str = "conv"):
        super().__init__()
        self.spec = ConvSpec(stride=stride, padding=same_padding(kernel, dilation),
                             dilation=dilation, groups=groups)
        shape = (cout, cin // groups, kernel, kernel)
        if init == "proj":
            data = trunc_normal(shape, rng)
        else:
            data = conv_init(shape, rng)
        self.weight = Tensor(data, requires_grad=True)
        self.bias = (Tensor(np.zeros(cout, dtype=default_dtype()), requires_grad=True)
                     if bias else None)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.spec)


class Linear(Module):
    """Affine map over the last axis of the input."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.weight = Tensor(trunc_normal((cin, cout), rng), requires_grad=True)
        self.bias = (Tensor(np.zeros(cout, dtype=default_dtype()), requires_grad=True)
                     if bias else None)

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


BATCH_NORM_MOMENTUM = 0.1


class BatchNorm2d(Module):
    def __init__(self, channels: int):
        super().__init__()
        dt = default_dtype()
        self.scale = Tensor(np.ones(channels, dtype=dt), requires_grad=True)
        self.shift = Tensor(np.zeros(channels, dtype=dt), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dt)
        self.running_var = np.ones(channels, dtype=dt)

    def __call__(self, x: Tensor) -> Tuple[Tensor, np.ndarray, np.ndarray]:
        """`batch_norm` in this layer's mode: the output and the statistics
        it normalized with. Writes nothing; `update` applies the statistics."""
        stats = None if self.training else (self.running_mean, self.running_var)
        return batch_norm(x, self.scale, self.shift, stats)

    def update(self, mean: np.ndarray, var: np.ndarray) -> None:
        """In train mode, r <- (1 - momentum) * r + momentum * batch, once per forward."""
        if self.training:
            for running, batch in ((self.running_mean, mean), (self.running_var, var)):
                running *= (1.0 - BATCH_NORM_MOMENTUM)
                running += BATCH_NORM_MOMENTUM * batch


class LayerNorm(Module):
    def __init__(self, channels: int):
        super().__init__()
        dt = default_dtype()
        self.scale = Tensor(np.ones(channels, dtype=dt), requires_grad=True)
        self.shift = Tensor(np.zeros(channels, dtype=dt), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.scale, self.shift)


class ConvBnGelu(Module):
    """3x3 conv (no bias) + batch norm + GELU; the stem/downsample block. One
    `recompute` node, which hands out the batch statistics the norm updates from."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 stride: int = 1):
        super().__init__()
        self.conv = Conv2d(cin, cout, 3, rng, stride=stride, bias=False)
        self.norm = BatchNorm2d(cout)

    def __call__(self, x: Tensor) -> Tensor:
        out, mean, var = recompute(self._conv_bn_gelu, x, params=self.parameters())
        self.norm.update(mean, var)
        return out

    def _conv_bn_gelu(self, x: Tensor) -> Tuple:
        z, mean, var = self.norm(self.conv(x))
        return gelu(z), mean, var
