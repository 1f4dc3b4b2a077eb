"""Structured ops on NCHW tensors: convolution, pooling, resizing, sampling,
normalization and activations.

Conventions fixed here and used everywhere else in the package:

* images/features are NCHW, float, channels-first;
* all convolutions zero-pad;
* bilinear interpolation (both resizing and warp sampling) uses half-pixel
  centers with clamp-to-edge, never corner alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf as _erf

from .tensor import Tensor, as_tensor

__all__ = [
    "ConvSpec",
    "avg_pool",
    "batch_norm",
    "bilinear_sample",
    "conv2d",
    "elu",
    "gelu",
    "layer_norm",
    "resize_bilinear",
    "sigmoid",
    "softmax",
]

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def _pair(v) -> Tuple[int, int]:
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ValueError(f"expected a pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution.

    ``padding`` is symmetric per spatial axis (int or (ph, pw)) or fully
    per-side as (top, bottom, left, right). ``dilation`` r >= 1 spaces the
    kernel taps r apart; r = 1 is a standard convolution. ``groups`` must
    divide both channel counts; groups == channels gives a depthwise conv.
    """

    kernel: Tuple[int, int] = (3, 3)
    stride: int = 1
    padding: Union[int, Tuple[int, int], Tuple[int, int, int, int]] = 0
    dilation: int = 1
    groups: int = 1

    def pads(self) -> Tuple[int, int, int, int]:
        p = self.padding
        if isinstance(p, (tuple, list)):
            if len(p) == 2:
                return int(p[0]), int(p[0]), int(p[1]), int(p[1])
            if len(p) == 4:
                return tuple(int(v) for v in p)  # type: ignore[return-value]
            raise ValueError(f"padding must be int, pair or 4-tuple, got {p!r}")
        return int(p), int(p), int(p), int(p)

    def __post_init__(self):
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")


def same_padding(kernel: int, dilation: int = 1) -> int:
    """Symmetric zero padding that keeps the spatial size at stride 1:
    p = r*(k-1)/2 for odd k."""
    return dilation * (kernel - 1) // 2


def _out_size(n: int, k: int, s: int, p0: int, p1: int, r: int) -> int:
    return (n + p0 + p1 - r * (k - 1) - 1) // s + 1


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor], spec: ConvSpec) -> Tensor:
    """Zero-padded 2-D convolution (cross-correlation) of an NCHW tensor.

    weight is (C_out, C_in/groups, kh, kw). Differentiable in x, weight, bias.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be NCHW, got shape {x.shape}")
    n, cin, h, w = x.shape
    cout, cper, kh, kw = weight.shape
    g = spec.groups
    if cin % g != 0:
        raise ValueError(f"input channel axis ({cin}) not divisible by groups ({g})")
    if cout % g != 0:
        raise ValueError(f"output channel axis ({cout}) not divisible by groups ({g})")
    if cper != cin // g:
        raise ValueError(
            f"weight channel axis mismatch: got {cper}, expected {cin}//{g} = {cin // g}")
    if (kh, kw) != _pair(spec.kernel):
        raise ValueError(f"weight kernel {kh}x{kw} does not match spec {spec.kernel}")
    pt, pb, pl, pr = spec.pads()
    s, r = spec.stride, spec.dilation
    ho = _out_size(h, kh, s, pt, pb, r)
    wo = _out_size(w, kw, s, pl, pr, r)
    if ho < 1 or wo < 1:
        raise ValueError(
            f"non-positive conv output size {ho}x{wo} for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {s}, dilation {r}, padding {(pt, pb, pl, pr)}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    sn, sc, sh, sw = xp.strides
    cg = cin // g
    og = cout // g
    patches = as_strided(
        xp.reshape(n, g, cg, xp.shape[2], xp.shape[3]),
        shape=(n, g, cg, kh, kw, ho, wo),
        strides=(sn, sc * cg, sc, sh * r, sw * r, sh * s, sw * s),
        writeable=False,
    )
    wg = weight.data.reshape(g, og, cg, kh, kw)

    if g == 1 and kh == 1 and kw == 1 and s == 1 and (pt, pb, pl, pr) == (0, 0, 0, 0):
        # pointwise fast path: plain matrix product over channels
        out = np.tensordot(weight.data[:, :, 0, 0], x.data, axes=([1], [1]))
        out = out.transpose(1, 0, 2, 3)
    elif g == 1:
        cols = patches.reshape(n, cg * kh * kw, ho * wo)
        out = np.tensordot(weight.data.reshape(cout, cg * kh * kw), cols, axes=([1], [1]))
        out = out.transpose(1, 0, 2).reshape(n, cout, ho, wo)
    else:
        out = np.einsum("ngcxyhw,gocxy->ngohw", patches, wg, optimize=True)
        out = out.reshape(n, cout, ho, wo)
    out = np.ascontiguousarray(out)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (cout,):
            raise ValueError(f"bias axis mismatch: got {bias.shape}, expected ({cout},)")
        out = out + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def bw(grad):
        gout = grad.reshape(n, g, og, ho, wo)
        gw = np.einsum("ngcxyhw,ngohw->gocxy", patches, gout, optimize=True)
        gw = gw.reshape(cout, cg, kh, kw)
        gxp = np.zeros_like(xp).reshape(n, g, cg, xp.shape[2], xp.shape[3])
        for ki in range(kh):
            for kj in range(kw):
                contrib = np.einsum("ngohw,goc->ngchw", gout, wg[:, :, :, ki, kj],
                                    optimize=True)
                gxp[:, :, :,
                    ki * r: ki * r + ho * s: s,
                    kj * r: kj * r + wo * s: s] += contrib
        gx = gxp.reshape(n, cin, xp.shape[2], xp.shape[3])[:, :, pt: pt + h, pl: pl + w]
        if bias is None:
            return gx, gw
        return gx, gw, grad.sum(axis=(0, 2, 3))

    return Tensor._from_op(out, parents, bw)


def avg_pool(x: Tensor, window, stride=None) -> Tensor:
    """Mean over non-overlapping (or strided) windows of an NCHW tensor."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"avg_pool input must be NCHW, got shape {x.shape}")
    wh, ww = _pair(window)
    sh_, sw_ = _pair(stride) if stride is not None else (wh, ww)
    n, c, h, w = x.shape
    if wh > h or ww > w:
        raise ValueError(f"pool window {wh}x{ww} exceeds spatial extent {h}x{w}")
    ho = (h - wh) // sh_ + 1
    wo = (w - ww) // sw_ + 1
    sn, sc, sh, sw = x.data.strides
    patches = as_strided(x.data, shape=(n, c, ho, wo, wh, ww),
                         strides=(sn, sc, sh * sh_, sw * sw_, sh, sw), writeable=False)
    out = patches.mean(axis=(4, 5))

    def bw(g):
        gx = np.zeros_like(x.data)
        share = g / (wh * ww)
        for ki in range(wh):
            for kj in range(ww):
                gx[:, :, ki: ki + ho * sh_: sh_, kj: kj + wo * sw_: sw_] += share
        return (gx,)

    return Tensor._from_op(np.ascontiguousarray(out), (x,), bw)


def _resolve_size(h: int, w: int, scale=None, size=None) -> Tuple[int, int]:
    if (scale is None) == (size is None):
        raise ValueError("pass exactly one of scale or size")
    if size is not None:
        ho, wo = _pair(size)
    else:
        ho, wo = int(round(h * scale)), int(round(w * scale))
    if ho < 1 or wo < 1:
        raise ValueError(f"target size must be >= 1, got {ho}x{wo}")
    return ho, wo


def _bilinear_axis(n_in: int, n_out: int):
    """Half-pixel source coordinates for an axis, clamped to the edge."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i0 = np.minimum(i0, n_in - 1)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    return i0, i1, frac


def resize_bilinear(x: Tensor, scale=None, size=None) -> Tensor:
    """Bilinear resize of an NCHW tensor (half-pixel centers, edge clamp).

    Unit scale returns the input tensor itself, bit-identical.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"resize_bilinear input must be NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    ho, wo = _resolve_size(h, w, scale, size)
    if (ho, wo) == (h, w):
        return x

    y0, y1, fy = _bilinear_axis(h, ho)
    x0, x1, fx = _bilinear_axis(w, wo)
    fy = fy.reshape(1, 1, ho, 1)
    fx = fx.reshape(1, 1, 1, wo)
    d = x.data
    top = d[:, :, y0, :][:, :, :, x0] * (1 - fx) + d[:, :, y0, :][:, :, :, x1] * fx
    bot = d[:, :, y1, :][:, :, :, x0] * (1 - fx) + d[:, :, y1, :][:, :, :, x1] * fx
    out = top * (1 - fy) + bot * fy

    def bw(g):
        gx = np.zeros_like(d)
        for yi, wy in ((y0, 1 - fy), (y1, fy)):
            for xi, wx in ((x0, 1 - fx), (x1, fx)):
                rows = np.zeros((n, c, ho, w), dtype=g.dtype)
                np.add.at(rows, (slice(None), slice(None), slice(None), xi), g * wy * wx)
                np.add.at(gx, (slice(None), slice(None), yi, slice(None)), rows)
        return (gx,)

    return Tensor._from_op(np.ascontiguousarray(out), (x,), bw)


def bilinear_sample(source: Tensor, coords: Tensor) -> Tensor:
    """Sample `source` at continuous pixel coordinates, border-clamped.

    source: (N, C, H, W); coords: (N, Ho, Wo, 2) carrying (x, y) in pixel
    units at pixel centers. Differentiable w.r.t. both source values and
    coordinates. Out-of-view locations sample the clamped border pixel; they
    are only meaningful under the caller's validity mask.
    """
    source, coords = as_tensor(source), as_tensor(coords)
    if source.ndim != 4 or coords.ndim != 4 or coords.shape[-1] != 2:
        raise ValueError(
            f"expected source (N,C,H,W) and coords (N,Ho,Wo,2); got "
            f"{source.shape} and {coords.shape}")
    if not np.isfinite(coords.data).all():
        raise ValueError("bilinear_sample requires finite coordinates")
    n, c, h, w = source.shape
    cx = np.clip(coords.data[..., 0], 0.0, w - 1.0)
    cy = np.clip(coords.data[..., 1], 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx).astype(np.int64), w - 1)
    y0 = np.minimum(np.floor(cy).astype(np.int64), h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (cx - x0)[:, None]                      # (N,1,Ho,Wo)
    fy = (cy - y0)[:, None]
    bidx = np.arange(n).reshape(n, 1, 1)

    d = source.data
    v00 = d[bidx, :, y0, x0].transpose(0, 3, 1, 2)
    v01 = d[bidx, :, y0, x1].transpose(0, 3, 1, 2)
    v10 = d[bidx, :, y1, x0].transpose(0, 3, 1, 2)
    v11 = d[bidx, :, y1, x1].transpose(0, 3, 1, 2)
    w00 = (1 - fx) * (1 - fy)
    w01 = fx * (1 - fy)
    w10 = (1 - fx) * fy
    w11 = fx * fy
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11

    inside_x = (coords.data[..., 0] > 0.0) & (coords.data[..., 0] < w - 1.0)
    inside_y = (coords.data[..., 1] > 0.0) & (coords.data[..., 1] < h - 1.0)

    def bw(g):
        gsrc = np.zeros_like(d)
        for (yi, xi, wgt) in ((y0, x0, w00), (y0, x1, w01), (y1, x0, w10), (y1, x1, w11)):
            np.add.at(gsrc, (bidx, slice(None), yi, xi), (g * wgt).transpose(0, 2, 3, 1))
        # d out / d cx = (right - left) weighted by the y mixing; zero where clamped
        dx = ((v01 - v00) * (1 - fy) + (v11 - v10) * fy)
        dy = ((v10 - v00) * (1 - fx) + (v11 - v01) * fx)
        gx = (g * dx).sum(axis=1) * inside_x
        gy = (g * dy).sum(axis=1) * inside_y
        return gsrc, np.stack([gx, gy], axis=-1)

    return Tensor._from_op(np.ascontiguousarray(out), (source, coords), bw)


# ------------------------------------------------------------- normalization


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then apply per-feature scale/shift."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    x = as_tensor(x)
    if x.shape[-1] == 0:
        raise ValueError("layer norm over a zero-size axis")
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + eps).sqrt()
    return normed * as_tensor(scale) + as_tensor(shift)


def batch_norm(x: Tensor, scale: Tensor, shift: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalization over (N, H, W) per channel of an NCHW tensor.

    Train mode normalizes with batch statistics and updates the running
    buffers in place: r <- (1 - momentum) * r + momentum * batch. The running
    variance stores the same (biased) estimate used for normalization, so a
    momentum-1 update followed by inference reproduces the train-mode output.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"batch_norm input must be NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    if n * h * w == 0:
        raise ValueError("batch norm over a zero-size axis")
    cshape = (1, c, 1, 1)
    if training:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu.data.reshape(c)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.data.reshape(c)
    else:
        mu = Tensor(running_mean.reshape(cshape).astype(x.dtype))
        var = Tensor(running_var.reshape(cshape).astype(x.dtype))
        centered = x - mu
    normed = centered / (var + eps).sqrt()
    return normed * as_tensor(scale).reshape(cshape) + as_tensor(shift).reshape(cshape)


# --------------------------------------------------------------- activations


def gelu(x: Tensor) -> Tensor:
    """Exact erf-based GELU (no tanh approximation)."""
    x = as_tensor(x)
    xd = x.data
    phi = 0.5 * (1.0 + _erf(xd / _SQRT2))
    out = xd * phi

    def bw(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * xd * xd)
        return (g * (phi + xd * pdf),)

    return Tensor._from_op(out, (x,), bw)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    neg = alpha * (np.exp(np.minimum(xd, 0.0)) - 1.0)
    out = np.where(xd > 0, xd, neg)

    def bw(g):
        return (g * np.where(xd > 0, 1.0, neg + alpha),)

    return Tensor._from_op(out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    out = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))),
                   np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))

    def bw(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`; outputs sum to one along that axis."""
    x = as_tensor(x)
    ax = axis % x.ndim if x.ndim else 0
    if ax >= x.ndim or x.shape[ax] == 0:
        raise ValueError(f"invalid softmax axis {axis} for shape {x.shape}")
    # subtracting the detached max leaves both the value and gradient exact
    shifted = x - Tensor(x.data.max(axis=ax, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=ax, keepdims=True)
