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
from itertools import product
from math import gcd
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, as_tensor, default_dtype, grad_enabled

__all__ = [
    "ConvSpec",
    "avg_pool",
    "batch_norm",
    "bilinear_sample",
    "blocks",
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
# largest im2col copy one conv2d forward holds; bigger calls go in blocks
_COLS_BYTES = 4 << 20
# elements `blocks` yields at a time, so each block's temporaries stay in cache
_BLOCK = 1 << 15

# erf's rational approximations from Cephes ndtr.c (S. Moshier; after Cody
# 1969, Math. Comp. 23). Highest power first; U and Q are monic, and their
# leading 1 is left out, as `_p1evl` expects.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
          7.46321056442269912687E0, 4.86371970985681366614E1,
          1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3,
          5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2,
          1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution; the kernel size is the weight's.

    ``padding`` p >= 0 zero-pads every side of the input by p.
    ``dilation`` r >= 1 spaces the kernel taps r apart; r = 1 is a standard
    convolution. ``groups`` must divide both channel counts; groups ==
    channels gives a depthwise conv.
    """

    stride: int = 1
    padding: int = 0
    dilation: int = 1
    groups: int = 1

    def __post_init__(self):
        if not isinstance(self.padding, int) or self.padding < 0:
            raise ValueError(f"padding must be an int >= 0, got {self.padding!r}")
        for name in ("dilation", "stride", "groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def same_padding(kernel: int, dilation: int = 1) -> int:
    """Symmetric zero padding that keeps the spatial size at stride 1:
    p = r*(k-1)/2 for odd k."""
    return dilation * (kernel - 1) // 2


def _out_size(n: int, k: int, s: int, p: int, r: int) -> int:
    return (n + 2 * p - r * (k - 1) - 1) // s + 1


def _reads_input(first: int, step: int, count: int, size: int) -> bool:
    """Whether any of the positions first + i * step, 0 <= i < count, lies in
    [0, size): the first one that is not negative, i = ceil(-first / step),
    decides."""
    i = max(0, -(first // step))
    return i < count and first + i * step < size


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor], spec: ConvSpec) -> Tensor:
    """Zero-padded 2-D convolution (cross-correlation) of an NCHW tensor.

    weight is (C_out, C_in/groups, kh, kw). Differentiable in x, weight, bias.

    The backward skips every kernel tap whose sampled rows, or whose sampled
    columns, all lie in the zero padding: its weight gradient is exactly +0
    and its input gradient lands only in the border that is cropped off. So
    the gradients equal those of a backward over all taps, bit for bit, for
    a finite upstream gradient. With inf or NaN in it, a skipped tap's
    weight gradient reads 0 where BLAS would give NaN.
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
    p, s, r = spec.padding, spec.stride, spec.dilation
    ho, wo = _out_size(h, kh, s, p, r), _out_size(w, kw, s, p, r)
    if ho < 1 or wo < 1:
        raise ValueError(
            f"non-positive conv output size {ho}x{wo} for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {s}, dilation {r}, padding {p}")

    def padded():
        # the zero-padded input channel-major, (Cin, N, H + 2p, W + 2p), the
        # layout of the GEMMs' columns; unpadded, a view of x that is only read
        if p == 0:
            return x.data.transpose(1, 0, 2, 3)
        xp = np.zeros((cin, n, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, :, p: p + h, p: p + w] = x.data.transpose(1, 0, 2, 3)
        return xp

    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (cout,):
            raise ValueError(f"bias axis mismatch: got {bias.shape}, expected ({cout},)")

    xp = padded()
    sc, sn, sh, sw = xp.strides
    cg, og, m = cin // g, cout // g, n * ho * wo
    wmat = weight.data.reshape(g, og, -1)
    # One GEMM per group and block of columns, (N, Ho, Wo) order. The block is
    # the whole batch if its im2col copy fits _COLS_BYTES, else whole samples,
    # else output rows of one sample. The K order is that of one GEMM over the
    # batch, and a row block spans a multiple of 16 columns where the budget
    # allows: the widest column tile of OpenBLAS's x86-64 GEMM kernels, so
    # each column is rounded as it is in one GEMM.
    row_bytes = g * cg * kh * kw * wo * xp.itemsize
    tile_rows = 16 // gcd(16, wo)
    nb = max(1, min(n, _COLS_BYTES // (ho * row_bytes)))
    rb = max(1, min(ho, _COLS_BYTES // row_bytes))
    if tile_rows <= rb < ho:
        rb -= rb % tile_rows
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = np.empty((n, cout, ho, wo), dtype=np.result_type(*(t.data for t in parents)))
    for n0, i0 in product(range(0, n, nb), range(0, ho, rb)):
        nbb, rbb = min(nb, n - n0), min(rb, ho - i0)
        cols = as_strided(xp[:, n0:, i0 * s:], shape=(g, cg, kh, kw, nbb, rbb, wo),
                          strides=(sc * cg, sc, sh * r, sw * r, sn, sh * s, sw * s),
                          writeable=False).reshape(g, cg * kh * kw, nbb * rbb * wo)
        out[n0: n0 + nbb, :, i0: i0 + rbb] = (
            np.matmul(wmat, cols).reshape(cout, nbb, rbb, wo).transpose(1, 0, 2, 3))
        del cols        # before the next block's copy is made
    if bias is not None:
        out += bias.data.reshape(cout, 1, 1)

    def bw(grad):
        # One kernel tap at a time, so no (Cg*kh*kw, M) column matrix is held,
        # and only the taps that read the input (see the docstring). The
        # padded input is rebuilt here rather than kept alive between the
        # forward and the backward.
        xp = padded()
        taps = [(ki * kw + kj, slice(ki * r, ki * r + ho * s, s),
                 slice(kj * r, kj * r + wo * s, s))
                for ki in range(kh) if _reads_input(ki * r - p, s, ho, h)
                for kj in range(kw) if _reads_input(kj * r - p, s, wo, w)]
        gout = grad.reshape(n, g, og, ho * wo).transpose(1, 2, 0, 3).reshape(g, og, m)
        # skipped taps keep their +0
        gw = np.zeros((g, og, cg, kh * kw), dtype=np.result_type(grad, xp))
        for t, si, sj in taps:
            gw[..., t] = gout @ xp[:, :, si, sj].reshape(g, cg, m).transpose(0, 2, 1)
        gx = None
        if x.requires_grad:      # images, as in the encoder stem, need no gx
            gxp = np.zeros(xp.shape, dtype=xp.dtype)
            # the taps read, tap-major, (len(taps), g, og, cg), so each tap's
            # block is C-contiguous: matmul calls BLAS only on operands with a
            # unit stride
            wt = weight.data.reshape(g, og, cg, kh * kw).transpose(3, 0, 1, 2)
            if len(taps) < kh * kw:
                wt = wt[[t for t, _, _ in taps]]
            wt = np.ascontiguousarray(wt)
            # with one output channel per group the product has inner
            # dimension 1: a broadcast multiply gives BLAS's values exactly
            product = np.multiply if og == 1 else np.matmul
            for wtap, (_, si, sj) in zip(wt, taps):
                gxp[:, :, si, sj] += product(wtap.transpose(0, 2, 1), gout).reshape(cin, n, ho, wo)
            gx = np.ascontiguousarray(gxp[:, :, p: p + h, p: p + w].transpose(1, 0, 2, 3))
        gw = gw.reshape(weight.shape)
        if bias is None:
            return gx, gw
        return gx, gw, grad.sum(axis=(0, 2, 3))

    return Tensor._from_op(out, parents, bw)


def avg_pool(x: Tensor) -> Tensor:
    """Mean over the 2x2 windows of an NCHW tensor at stride 2; an odd last
    row or column is left out."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"avg_pool input must be NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"pool window 2x2 exceeds spatial extent {h}x{w}")
    ho, wo = h // 2, w // 2
    # columns first, then rows: the summation order of a windowed .mean
    cols = x.data[..., 0: 2 * wo: 2] + x.data[..., 1: 2 * wo: 2]
    out = (cols[:, :, 0: 2 * ho: 2] + cols[:, :, 1: 2 * ho: 2]) / 4

    def bw(g):
        gx = np.zeros_like(x.data)
        share = g / 4
        for ki, kj in np.ndindex(2, 2):
            gx[:, :, ki: 2 * ho: 2, kj: 2 * wo: 2] += share
        return (gx,)

    return Tensor._from_op(np.ascontiguousarray(out), (x,), bw)


def _corners(c: np.ndarray, n: int):
    """The rule both bilinear samplers share: coordinates `c` on an axis of
    n pixels, clamped to the edge, as the two neighbouring pixel indices and
    the offset from the first."""
    c = np.clip(c, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(c).astype(np.int64), n - 1)
    return i0, np.minimum(i0 + 1, n - 1), c - i0


def _bilinear_axis(n_in: int, n_out: int):
    """Half-pixel source corners for an axis resized from n_in to n_out."""
    return _corners((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, n_in)


def resize_bilinear(x: Tensor, size) -> Tensor:
    """Bilinear resize of an NCHW tensor to ``size`` = (height, width), with
    half-pixel centers and edge clamp.

    The input's own size returns the input tensor itself, bit-identical.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"resize_bilinear input must be NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    ho, wo = size
    if ho < 1 or wo < 1:
        raise ValueError(f"target size must be >= 1, got {ho}x{wo}")
    if (ho, wo) == (h, w):
        return x

    y0, y1, fy = _bilinear_axis(h, ho)
    x0, x1, fx = _bilinear_axis(w, wo)
    fy = fy.reshape(ho, 1)
    d = x.data
    # out = Ry @ x @ Rx^T with (n_out, n_in) interpolation matrices of two
    # nonzeros a row: each input row along x once, then those rows along y
    rows = d[..., x0] * (1 - fx) + d[..., x1] * fx
    out = rows[:, :, y0] * (1 - fy) + rows[:, :, y1] * fy

    def bw(g):
        ry, rx = [(np.arange(size) == i0[:, None]) * (1 - f) + (np.arange(size) == i1[:, None]) * f
                  for size, i0, i1, f in ((h, y0, y1, fy), (w, x0, x1, fx[:, None]))]
        return ((ry.T @ g @ rx).astype(d.dtype),)

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
    x0, x1, fx = _corners(coords.data[..., 0], w)
    y0, y1, fy = _corners(coords.data[..., 1], h)
    fx, fy = fx[:, None], fy[:, None]           # (N,1,Ho,Wo)
    # flat (n, c, y, x) index of each corner's source pixel, the four corners
    # stacked first: (4, N, 1, Ho, Wo) pixel offsets plus (N, C, 1, 1) planes
    corners = np.stack([(yi * w + xi)[:, None]
                        for yi, xi in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))])
    planes = (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
    d = source.data
    v00, v01, v10, v11 = np.take(d, corners + planes)
    w00 = (1 - fx) * (1 - fy)
    w01 = fx * (1 - fy)
    w10 = (1 - fx) * fy
    w11 = fx * fy
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11

    # the backward keeps only what it reads: the corners and their weights
    # for the source gradient, the slopes and inside masks for the coordinates
    scatter = slopes = None
    if grad_enabled() and source.requires_grad:
        scatter = (corners, w00, w01, w10, w11)
    if grad_enabled() and coords.requires_grad:
        # d out / d cx = (right - left) weighted by the y mixing; zero where clamped
        slopes = ((v01 - v00) * (1 - fy) + (v11 - v10) * fy,
                  (v10 - v00) * (1 - fx) + (v11 - v01) * fx,
                  (coords.data[..., 0] > 0.0) & (coords.data[..., 0] < w - 1.0),
                  (coords.data[..., 1] > 0.0) & (coords.data[..., 1] < h - 1.0))

    def bw(g):
        gsrc = gcoords = None
        if scatter is not None:
            corners, *weights = scatter
            wgt = np.stack([g * wi for wi in weights])
            gsrc = np.bincount((corners + planes).ravel(), wgt.ravel(), minlength=d.size)
            gsrc = gsrc.reshape(d.shape).astype(d.dtype)
        if slopes is not None:
            dx, dy, inside_x, inside_y = slopes
            gcoords = np.stack([(g * dx).sum(axis=1) * inside_x,
                                (g * dy).sum(axis=1) * inside_y], axis=-1)
        return gsrc, gcoords

    return Tensor._from_op(np.ascontiguousarray(out), (source, coords), bw)


# ------------------------------------------------------------- normalization

LAYER_NORM_EPS = 1e-6
BATCH_NORM_EPS = 1e-5


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize over the last axis, then apply per-feature scale/shift."""
    x = as_tensor(x)
    if x.shape[-1] == 0:
        raise ValueError("layer norm over a zero-size axis")
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (var + LAYER_NORM_EPS).sqrt()
    return normed * as_tensor(scale) + as_tensor(shift)


def batch_norm(x: Tensor, scale: Tensor, shift: Tensor,
               stats: Optional[Tuple[np.ndarray, np.ndarray]] = None
               ) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch normalization over (N, H, W) per channel of an NCHW tensor.

    Returns the output and the per-channel mean and variance it normalized
    with, and writes no array it is given. Without ``stats`` (train mode)
    these are the batch's mean and biased variance; with ``stats``, a
    (mean, variance) pair (eval mode), it normalizes with those. Running
    statistics are the caller's to keep (see `nn.BatchNorm2d`).

    One graph node. The means are sums times a default-dtype ``1/count`` and
    ``BATCH_NORM_EPS`` is default-dtype, as the elementwise composition gives them.
    When it records a graph it keeps the normalized input xhat, in the dtype
    of ``(x - mean) / std``, beside per-channel arrays. With
    g' = g * scale, dx = (g' - mean(g') - xhat * mean(g' * xhat)) / std in
    train mode and g' / std in eval mode.
    """
    x, scale, shift = as_tensor(x), as_tensor(scale), as_tensor(shift)
    if x.ndim != 4:
        raise ValueError(f"batch_norm input must be NCHW, got shape {x.shape}")
    n, c, h, w = x.shape
    if n * h * w == 0:
        raise ValueError("batch norm over a zero-size axis")
    cshape, axes = (1, c, 1, 1), (0, 2, 3)
    inv_count = np.asarray(1.0 / (n * h * w), dtype=default_dtype())
    training = stats is None
    if training:
        mu = x.data.sum(axis=axes, keepdims=True) * inv_count
        # the squared deviations in one map, freed before the output exists
        sq = x.data - mu
        sq *= sq
        var = sq.sum(axis=axes, keepdims=True) * inv_count
        del sq
        stats = mu.reshape(c), var.reshape(c)
    else:
        mu = stats[0].reshape(cshape).astype(x.dtype)
        var = stats[1].reshape(cshape).astype(x.dtype)
    std = np.sqrt(var + np.asarray(BATCH_NORM_EPS, dtype=default_dtype()))
    gamma, beta = scale.data.reshape(cshape), shift.data.reshape(cshape)
    # the ops of (x - mu) / std * gamma + beta, each step in the dtype that
    # expression gives it: the normalized input in its own map when the
    # backward reads it, else in place in the one output map
    dtype = np.result_type(x.data, mu, std)
    out = np.empty(x.shape, np.result_type(dtype, gamma, beta))
    keep = grad_enabled() and (x.requires_grad or scale.requires_grad or shift.requires_grad)
    normed = np.empty(x.shape, dtype) if keep else out
    np.subtract(x.data, mu, out=normed, dtype=np.result_type(x.data, mu))
    np.divide(normed, std, out=normed, dtype=dtype)
    dtype = np.result_type(dtype, gamma)
    np.multiply(normed, gamma, out=out, dtype=dtype)
    np.add(out, beta, out=out, dtype=np.result_type(dtype, beta))

    def bw(g):
        gx = None
        if x.requires_grad:
            gx = g
            if training:
                gx = g - (g.sum(axis=axes, keepdims=True)
                          + normed * (g * normed).sum(axis=axes, keepdims=True)) * inv_count
            gx = gx * (gamma / std)
        gscale = (g * normed).sum(axis=axes).reshape(scale.shape) if scale.requires_grad else None
        gshift = g.sum(axis=axes).reshape(shift.shape) if shift.requires_grad else None
        return gx, gscale, gshift

    return (Tensor._from_op(out, (x, scale, shift), bw), *stats)


# --------------------------------------------------------------- activations


def _polevl(x: np.ndarray, coef: Tuple[float, ...],
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cephes polevl: Horner's rule, ((c0 x + c1) x + c2) ..., into `out`."""
    out = np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef: Tuple[float, ...],
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cephes p1evl: `_polevl` with a leading coefficient of 1 not in `coef`."""
    out = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def blocks(ops, writes: int = 1):
    """Yield the matching blocks, of at most _BLOCK elements, of the
    same-shaped (or broadcastable) arrays in `ops`: a tuple of one block per
    array, or the block itself when `ops` holds one array, as `np.nditer`
    yields them.

    The last `writes` arrays are read-write; the others may be any views,
    0-stride broadcasts included. An operand the walk cannot step through
    with one stride is read through a block-sized buffer, and a written one
    is copied back when the walk ends, so each block stays in cache from its
    inputs to its outputs. Every kernel that walks an array in blocks goes
    through here, so only the engine knows the block size.
    """
    with np.nditer(ops, ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"]] * (len(ops) - writes) + [["readwrite"]] * writes,
                   buffersize=_BLOCK) as walk:
        yield from walk


def _erf(buf: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """erf of a float array of any layout, in place; returns `buf`.

    Cephes' erf evaluated in f64 for f32 and f64 input alike:
    x T(x²)/U(x²) for |x| <= 1, else sign(x) (1 - exp(-x²) P(|x|)/Q(|x|))
    with |x| clamped to 8: from Cephes' own cut at 8 on, erf is ±1 in f64
    either way. An f32 result is bit-identical to compiled Cephes rounded
    to f32; an f64 one too, except where numpy's SIMD `np.exp` rounds
    exp(-x²) 1 ulp away from libm's `exp`, which can move erf by 1 ulp on
    1 < |x| < 4. `scratch`, if given, is f64 of shape
    (4, >= min(buf.size, _BLOCK)).
    """
    if scratch is None:
        scratch = np.empty((4, min(buf.size, _BLOCK)))
    # x² of a subnormal x underflows; x² of a huge f64 x overflows, and its
    # first branch then reads inf/inf, but the second branch replaces it
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for src in blocks([buf]):
            x, z, y, u = scratch[:, :src.size]
            x[...] = src
            np.square(x, out=z)
            _polevl(z, _ERF_T, y)
            y *= x
            y /= _p1evl(z, _ERF_U, u)
            # z > 1 exactly where |x| > 1; fmax skips a NaN x, which fails
            # both tests and keeps the first branch's NaN
            if np.fmax.reduce(z) > 1.0:
                tail = np.flatnonzero(z > 1.0)
                xt = x.take(tail)
                at = np.minimum(np.abs(xt), 8.0)
                e = 1.0 - np.exp(-z.take(tail)) * _polevl(at, _ERF_P) / _p1evl(at, _ERF_Q)
                y.put(tail, np.copysign(e, xt, out=e))
            src[...] = y
    return buf


def gelu(x: Tensor) -> Tensor:
    """Exact erf-based GELU (no tanh approximation).

    When it records a graph it keeps the phi its forward computes, and the
    backward reads it: the gradient is the closed form g * (phi + x * pdf).
    phi = 0.5 * (1 + erf(x / sqrt 2)) goes straight into the kept map's
    block, or else into one block-sized buffer, in the dtype the unblocked
    expression gives it (an integer x gives f64).
    """
    x = as_tensor(x)
    xd = x.data
    dtype = np.result_type(xd, _SQRT2)
    out = np.empty(xd.shape, dtype)
    phi = np.empty(xd.shape, dtype) if grad_enabled() and x.requires_grad else None
    outs = [out] if phi is None else [out, phi]
    size = min(xd.size, _BLOCK)
    buf = np.empty(size, dtype) if phi is None else None
    scratch = np.empty((4, size))
    for xb, ob, *kept in blocks([xd, *outs], writes=len(outs)):
        pb = kept[0] if kept else buf[:xb.size]
        np.divide(xb, _SQRT2, out=pb)
        _erf(pb, scratch)
        pb += 1.0
        pb *= 0.5
        np.multiply(xb, pb, out=ob)

    def bw(g):
        # pdf = _INV_SQRT_2PI * exp(-0.5 * x * x), then g * (phi + x * pdf):
        # the unblocked expression's ops in its order and dtypes, so an f32 x
        # under an f64 g sums in f32 and multiplies in f64
        gx = np.empty(xd.shape, np.result_type(g, dtype))
        pdf = np.empty(min(xd.size, _BLOCK), dtype)
        for pb, xb, gb, gxb in blocks([phi, xd, g, gx]):
            d = pdf[:xb.size]
            np.multiply(xb, -0.5, out=d)
            d *= xb
            np.exp(d, out=d)
            d *= _INV_SQRT_2PI
            d *= xb
            d += pb
            np.multiply(gb, d, out=gxb)
        return (gx,)

    return Tensor._from_op(out, (x,), bw)


def elu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    neg = np.exp(np.minimum(xd, 0.0)) - 1.0
    out = np.where(xd > 0, xd, neg)

    def bw(g):
        # where x <= 0 the output is neg itself
        return (g * np.where(xd > 0, 1.0, out + 1.0),)

    return Tensor._from_op(out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    # 1 / (1 + e) for x >= 0, e / (1 + e) below, with e = exp(-|x|) <= 1
    e = np.exp(-np.abs(xd))
    out = np.where(xd >= 0, 1.0, e) / (1.0 + e)

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
