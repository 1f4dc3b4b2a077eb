"""One definitional f64 reference per engine op.

Each function takes its arrays in any float dtype and computes in f64. It
states what an op computes, one output element at a time in
direct loops, or, for an adjoint, as an ``np.add.at`` scatter of the
forward's contributions. They are slow and share no code with the engine.
``test_op_properties.py`` checks the engine against them on drawn geometries.
"""

import numpy as np


def _read_index(out_index, shape):
    """The element of an operand of `shape` that numpy broadcasting reads for
    the output element `out_index`: trailing axes aligned, size-1 axes at 0."""
    tail = out_index[len(out_index) - len(shape):] if shape else ()
    return tuple(0 if n == 1 else i for i, n in zip(tail, shape))


# ------------------------------------------------------------- convolution


def conv2d(x, wt, b, spec):
    """Direct zero-padded grouped convolution, one multiply-add at a time."""
    p, s, r, g = spec.padding, spec.stride, spec.dilation, spec.groups
    xp = np.pad(np.asarray(x, np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    n, cout, (cg, kh, kw) = x.shape[0], wt.shape[0], wt.shape[1:]
    og = cout // g
    ho = (xp.shape[2] - r * (kh - 1) - 1) // s + 1
    wo = (xp.shape[3] - r * (kw - 1) - 1) // s + 1
    ref = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for oc in range(cout):
            for ic in range(cg):
                for i in range(ho):
                    for j in range(wo):
                        for ki in range(kh):
                            for kj in range(kw):
                                ref[ni, oc, i, j] += (
                                    xp[ni, (oc // og) * cg + ic, i * s + ki * r, j * s + kj * r]
                                    * wt[oc, ic, ki, kj])
            if b is not None:
                ref[ni, oc] += b[oc]
    return ref


def conv2d_dead_taps(h, w, wt, spec):
    """The (ki, kj) kernel taps whose sampled rows, or whose sampled columns,
    all lie in the zero padding of an h x w input."""
    p, s, r = spec.padding, spec.stride, spec.dilation
    _, _, kh, kw = wt.shape
    ho = (h + 2 * p - r * (kh - 1) - 1) // s + 1
    wo = (w + 2 * p - r * (kw - 1) - 1) // s + 1
    rows = [all(not 0 <= i * s + ki * r - p < h for i in range(ho)) for ki in range(kh)]
    cols = [all(not 0 <= j * s + kj * r - p < w for j in range(wo)) for kj in range(kw)]
    return [(ki, kj) for ki in range(kh) for kj in range(kw) if rows[ki] or cols[kj]]


# ----------------------------------------------------------------- pooling


def avg_pool(x):
    """Mean of each 2x2 window at stride 2; an odd last row or column is
    left out."""
    x = np.asarray(x, np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    for i in range(h // 2):
        for j in range(w // 2):
            out[:, :, i, j] = x[:, :, 2 * i: 2 * i + 2, 2 * j: 2 * j + 2].sum(axis=(2, 3)) / 4
    return out


def avg_pool_adjoint(shape, g):
    """Each output's gradient shared by the four pixels of its window."""
    gx, g = np.zeros(shape), np.asarray(g, np.float64)
    for i, j, di, dj in np.ndindex(g.shape[2], g.shape[3], 2, 2):
        np.add.at(gx, (slice(None), slice(None), 2 * i + di, 2 * j + dj), g[:, :, i, j] / 4)
    return gx


# ---------------------------------------------------------------- samplers


def _bilinear_corners(cy, cx, h, w):
    """The four (row, column, weight) corners that bilinear interpolation at
    the point (cy, cx) mixes, the point clamped to the h x w pixel grid."""
    cy, cx = min(max(cy, 0.0), h - 1.0), min(max(cx, 0.0), w - 1.0)
    y0, x0 = int(np.floor(cy)), int(np.floor(cx))
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    fy, fx = cy - y0, cx - x0
    return [(y0, x0, (1 - fy) * (1 - fx)), (y0, x1, (1 - fy) * fx),
            (y1, x0, fy * (1 - fx)), (y1, x1, fy * fx)]


def _resize_points(h, w, size):
    """Each output pixel (i, j) of an h x w map resized to `size`, with the
    half-pixel source point it samples: output centers map onto input
    centers, (i + 0.5) * h / ho - 0.5."""
    ho, wo = size
    for i, j in np.ndindex(ho, wo):
        yield i, j, (i + 0.5) * h / ho - 0.5, (j + 0.5) * w / wo - 0.5


def resize_bilinear(x, size):
    """Half-pixel bilinear resize of an NCHW map with edge clamp, one output
    pixel at a time."""
    x = np.asarray(x, np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c) + tuple(size))
    for i, j, cy, cx in _resize_points(h, w, size):
        for yi, xi, wgt in _bilinear_corners(cy, cx, h, w):
            out[:, :, i, j] += x[:, :, yi, xi] * wgt
    return out


def resize_bilinear_adjoint(shape, size, g):
    """Each output's gradient scattered onto the four input pixels it mixed."""
    gx, g = np.zeros(shape), np.asarray(g, np.float64)
    h, w = shape[2:]
    for i, j, cy, cx in _resize_points(h, w, size):
        for yi, xi, wgt in _bilinear_corners(cy, cx, h, w):
            np.add.at(gx, (slice(None), slice(None), yi, xi), g[:, :, i, j] * wgt)
    return gx


def bilinear_sample(src, xy):
    """`src` (N, C, H, W) sampled at the (x, y) pixel coordinates of `xy`
    (N, Ho, Wo, 2), border-clamped, one output pixel at a time."""
    src = np.asarray(src, np.float64)
    n, c, h, w = src.shape
    out = np.zeros((n, c) + xy.shape[1:3])
    for ni, i, j in np.ndindex(n, *xy.shape[1:3]):
        cx, cy = xy[ni, i, j]
        for yi, xi, wgt in _bilinear_corners(cy, cx, h, w):
            out[ni, :, i, j] += src[ni, :, yi, xi] * wgt
    return out


def bilinear_sample_source_adjoint(shape, xy, g):
    """Each sample's gradient scattered onto the four source pixels it mixed."""
    gsrc, g = np.zeros(shape), np.asarray(g, np.float64)
    h, w = shape[2:]
    for ni, i, j in np.ndindex(g.shape[0], *g.shape[2:]):
        cx, cy = xy[ni, i, j]
        for yi, xi, wgt in _bilinear_corners(cy, cx, h, w):
            np.add.at(gsrc, (ni, slice(None), yi, xi), g[ni, :, i, j] * wgt)
    return gsrc


# ------------------------------------------------------------ tensor ops


def getitem_adjoint(shape, idx, g):
    """The gradient of x[idx]: each selected element receives its output's."""
    gx = np.zeros(shape)
    np.add.at(gx, idx, np.asarray(g, np.float64))
    return gx


# The elementwise binary ops as (value, d value / d a, d value / d b) of one
# pair of scalars. maximum and minimum send the gradient to `a` where the
# value equals a, so a tie goes to the first operand.
ELEMENTWISE = {
    "add": (lambda a, b: a + b, lambda a, b: 1.0, lambda a, b: 1.0),
    "sub": (lambda a, b: a - b, lambda a, b: 1.0, lambda a, b: -1.0),
    "mul": (lambda a, b: a * b, lambda a, b: b, lambda a, b: a),
    "div": (lambda a, b: a / b, lambda a, b: 1.0 / b, lambda a, b: -a / (b * b)),
    "maximum": (max, lambda a, b: float(max(a, b) == a), lambda a, b: float(max(a, b) != a)),
    "minimum": (min, lambda a, b: float(min(a, b) == a), lambda a, b: float(min(a, b) != a)),
}


def binary(name, a, b, g):
    """(out, ga, gb) of a binary op under numpy broadcasting, for the output
    gradient g: each output element is computed from the operand elements it
    reads, and its gradient is added into each of them."""
    a, b, g = (np.asarray(v, np.float64) for v in (a, b, g))
    out, ga, gb = np.zeros(g.shape), np.zeros(a.shape), np.zeros(b.shape)
    if name == "matmul":
        # (..., m, k) @ (..., k, n): the batch axes broadcast
        for o in np.ndindex(g.shape):
            *batch, i, j = o
            for kk in range(a.shape[-1]):
                ia = _read_index(tuple(batch), a.shape[:-2]) + (i, kk)
                ib = _read_index(tuple(batch), b.shape[:-2]) + (kk, j)
                out[o] += a[ia] * b[ib]
                ga[ia] += g[o] * b[ib]
                gb[ib] += g[o] * a[ia]
        return out, ga, gb
    value, da, db = ELEMENTWISE[name]
    for o in np.ndindex(g.shape):
        ia, ib = _read_index(o, a.shape), _read_index(o, b.shape)
        out[o] = value(a[ia], b[ib])
        ga[ia] += g[o] * da(a[ia], b[ib])
        gb[ib] += g[o] * db(a[ia], b[ib])
    return out, ga, gb
