"""Reverse-mode autodiff over dense numpy arrays.

A Tensor wraps an ndarray plus an optional gradient accumulator. Ops build a
DAG by recording parent tensors and a closure that maps the output gradient to
parent gradients. ``backward()`` walks the DAG in reverse topological order.

A graph and its tensors belong to one logical thread; distinct graphs may run
on distinct threads concurrently.
"""

from __future__ import annotations

import contextlib
import operator
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "default_dtype",
    "grad_enabled",
    "maximum",
    "minimum",
    "no_grad",
    "recompute",
    "set_default_dtype",
    "stack",
    "unary_op",
    "using_dtype",
]

_DTYPES = {"f32": np.float32, "f64": np.float64}

_state = threading.local()


def _dtype_name() -> str:
    return getattr(_state, "dtype", "f32")


def set_default_dtype(dtype) -> None:
    """Select the precision of new parameters/constants: "f32", "f64" or its numpy dtype."""
    name = next((k for k, v in _DTYPES.items() if dtype in (k, v)), None)
    if name is None:
        raise ValueError(f"unknown dtype {dtype!r}; expected one of {sorted(_DTYPES)}")
    _state.dtype = name


def default_dtype() -> np.dtype:
    return np.dtype(_DTYPES[_dtype_name()])


@contextlib.contextmanager
def using_dtype(dtype):
    prev = _dtype_name()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def _grad_mode(enabled: bool):
    prev = grad_enabled()
    _state.grad_enabled = enabled
    try:
        yield
    finally:
        _state.grad_enabled = prev


def no_grad():
    """Disable graph recording inside the block (inference paths)."""
    return _grad_mode(False)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _released(g):
    raise RuntimeError("graph already backpropagated; rebuild it")


class Tensor:
    """N-d array with optional gradient tracking.

    Invariants: ``grad`` (once populated) has the same shape as ``data``; the
    backward pass accumulates into ``grad``, never overwrites it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=default_dtype())
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    # ------------------------------------------------------------------ basics

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # ---------------------------------------------------------------- backward

    def backward(self) -> None:
        """Accumulate the loss's gradient into the ``grad`` of every
        reachable leaf that requires grad.

        A leaf is a tensor without a backward closure (parameters, inputs);
        op outputs pass their gradient on and keep ``grad`` as ``None``. The
        loss must be scalar. A graph can be backpropagated once: each node
        drops its parents and its backward closure as soon as it has been
        visited, so forward buffers are freed during the pass, and a second
        call on the same loss raises ``RuntimeError``. Calls on freshly built
        graphs accumulate into the leaves' ``grad``. Each parent gradient is
        cast to that parent's dtype.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        self._backpropagate(np.ones_like(self.data))

    def _backpropagate(self, seed: np.ndarray) -> None:
        """``backward()`` with ``seed`` as this tensor's gradient, of any shape."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): seed}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            backward, parents = node._backward, node._parents
            if backward is not None:
                node._backward, node._parents = _released, ()
            if g is None:
                continue
            if backward is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for p, pg in zip(parents, backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                pg = pg.astype(p.data.dtype, copy=False)
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    # --------------------------------------------------------------- op helper

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable) -> "Tensor":
        out = Tensor(data)
        if grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other):
        return _binary(self, other, *_ADD)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, *_SUB)

    def __rsub__(self, other):
        return _binary(other, self, *_SUB)

    def __mul__(self, other):
        return _binary(self, other, *_MUL)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, *_DIV)

    def __rtruediv__(self, other):
        return _binary(other, self, *_DIV)

    def __neg__(self):
        a = self
        return Tensor._from_op(-a.data, (a,), lambda g: (-g,))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self

        def bw(g):
            return (g * p * a.data ** (p - 1),)

        return Tensor._from_op(a.data ** p, (a,), bw)

    def __matmul__(self, other):
        a, b = self, as_tensor(other)
        if a.data.shape[-1] != b.data.shape[-2 if b.ndim > 1 else 0]:
            raise ValueError(
                f"matmul inner dimensions disagree: {a.shape} @ {b.shape} "
                f"(axis {a.ndim - 1} vs axis {max(b.ndim - 2, 0)})")
        return _binary(a, b, *_MATMUL)

    # ------------------------------------------------------------- elementwise

    def exp(self):
        a = self
        out_data = np.exp(a.data)
        return Tensor._from_op(out_data, (a,), lambda g: (g * out_data,))

    def log(self):
        a = self
        return Tensor._from_op(np.log(a.data), (a,), lambda g: (g / a.data,))

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)
        return Tensor._from_op(out_data, (a,), lambda g: (g * 0.5 / out_data,))

    def abs(self):
        a = self
        return Tensor._from_op(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))

    # -------------------------------------------------------------- reductions

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(ax % a.ndim for ax in axes)
                shape = tuple(1 if i in axes else n for i, n in enumerate(a.shape))
                g = g.reshape(shape)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._from_op(out_data, (a,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for ax in axes:
                count *= self.shape[ax % self.ndim]
        if count == 0:
            raise ValueError("mean over an empty axis")
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ---------------------------------------------------------------- reshapes

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        in_shape = a.shape
        return Tensor._from_op(a.data.reshape(shape), (a,),
                               lambda g: (g.reshape(in_shape),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = np.argsort(axes)
        return Tensor._from_op(a.data.transpose(axes), (a,),
                               lambda g: (g.transpose(inv),))

    def swap_last_axes(self):
        a = self
        return Tensor._from_op(np.swapaxes(a.data, -1, -2), (a,),
                               lambda g: (np.swapaxes(g, -1, -2),))

    def __getitem__(self, idx):
        # basic indices only: each element is selected at most once
        a = self
        if not all(p is None or p is Ellipsis or isinstance(p, (slice, int, np.integer))
                   and not isinstance(p, bool)
                   for p in (idx if isinstance(idx, tuple) else (idx,))):
            raise TypeError(f"only basic indices (ints, slices, None, ...) are "
                            f"supported, got {idx!r}")

        def bw(g):
            full = np.zeros_like(a.data)
            full[idx] = g
            return (full,)

        return Tensor._from_op(a.data[idx], (a,), bw)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _binary(a, b, fn, grad_a, grad_b) -> Tensor:
    """fn(a, b) under numpy broadcasting, with the one gradient rule of the
    binary ops: ``grad_a(g, a, b, out)`` and ``grad_b(...)`` map the output
    gradient, given the operands' and the output's arrays, to each operand's
    gradient at the output's shape. Each runs only if its operand requires
    grad, and its result is summed back to that operand's shape."""
    a, b = as_tensor(a), as_tensor(b)
    out = fn(a.data, b.data)

    def bw(g):
        ga = _unbroadcast(grad_a(g, a.data, b.data, out), a.shape) if a.requires_grad else None
        gb = _unbroadcast(grad_b(g, a.data, b.data, out), b.shape) if b.requires_grad else None
        return ga, gb

    return Tensor._from_op(out, (a, b), bw)


# (fn, grad_a, grad_b) of each binary op, as `_binary` takes them
_ADD = (operator.add, lambda g, a, b, out: g, lambda g, a, b, out: g)
_SUB = (operator.sub, lambda g, a, b, out: g, lambda g, a, b, out: -g)
_MUL = (operator.mul, lambda g, a, b, out: g * b, lambda g, a, b, out: g * a)
_DIV = (operator.truediv, lambda g, a, b, out: g / b,
        lambda g, a, b, out: -g * a / (b * b))
_MATMUL = (operator.matmul, lambda g, a, b, out: g @ np.swapaxes(b, -1, -2),
           lambda g, a, b, out: np.swapaxes(a, -1, -2) @ g)
# maximum and minimum: the gradient goes to a where the output equals a, so
# ties route it to the first operand, and to b elsewhere
_PICKED = (lambda g, a, b, out: np.where(out == a, g, 0.0),
           lambda g, a, b, out: np.where(out == a, 0.0, g))


def maximum(a, b) -> Tensor:
    """Elementwise maximum; a tie sends the gradient to `a`."""
    return _binary(a, b, np.maximum, *_PICKED)


def minimum(a, b) -> Tensor:
    """Elementwise minimum; a tie sends the gradient to `a`."""
    return _binary(a, b, np.minimum, *_PICKED)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; off-axis shapes must agree."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of an empty tensor list")
    if len(ts) == 1:
        return ts[0]
    ref = ts[0].shape
    for t in ts[1:]:
        if t.ndim != len(ref):
            raise ValueError(f"concat rank mismatch: {ref} vs {t.shape}")
        for ax, (m, n) in enumerate(zip(ref, t.shape)):
            if ax != axis % t.ndim and m != n:
                raise ValueError(f"concat shapes disagree on axis {ax}: {ref} vs {t.shape}")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(np.concatenate([t.data for t in ts], axis=axis), ts, bw)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    expanded = []
    for t in ts:
        shape = list(t.shape)
        shape.insert(axis % (t.ndim + 1), 1)
        expanded.append(t.reshape(shape))
    return concat(expanded, axis=axis)


def unary_op(x: Tensor, fn: Callable[[np.ndarray], np.ndarray],
             grad_fn: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Build a custom elementwise op: y = fn(x), dy/dx = grad_fn(x)."""
    x = as_tensor(x)
    return Tensor._from_op(fn(x.data), (x,), lambda g: (g * grad_fn(x.data),))


def recompute(fn: Callable[..., tuple], *inputs, params: Iterable[Tensor] = ()):
    """One graph node that keeps only its inputs (Chen et al. 2016).

    ``fn(*inputs)`` composes engine ops, reads the leaf tensors ``params``
    directly and returns ``(tensor, *arrays)``. The forward runs it without
    a graph and returns the tensor's node, with the inputs and params as
    parents, and the arrays. The backward re-runs ``fn`` with the graph on,
    under the forward's default dtype, over fresh leaves sharing the inputs'
    arrays and ``requires_grad`` and over the params, whose ``grad`` it sets
    aside meanwhile, and returns each parent's gradient. Value and gradients
    are those of calling ``fn`` directly, bit for bit, when ``fn`` depends
    on nothing but its parents and the default dtype, and no parent it reads
    twice is also read outside the node: such a parent gets its inner terms
    already summed, so its gradient can round apart. The re-run's arrays
    are dropped.
    """
    inputs, params = tuple(as_tensor(x) for x in inputs), tuple(params)
    dtype = _dtype_name()
    with no_grad():
        out, *arrays = fn(*inputs)

    def bw(g):
        leaves = [Tensor(x.data, requires_grad=x.requires_grad) for x in inputs]
        kept = [p.grad for p in params]
        for p in params:
            p.grad = None
        try:
            with _grad_mode(True), using_dtype(dtype):
                fn(*leaves)[0]._backpropagate(g)
            return [t.grad for t in (*leaves, *params)]
        finally:
            for p, grad in zip(params, kept):
                p.grad = grad

    return (Tensor._from_op(out.data, inputs + params, bw), *arrays)
