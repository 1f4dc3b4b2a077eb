"""The backward closures of the large-map ops keep nothing the graph already
holds, and still return the same bits.

Each ``*_reference`` below is the closure these ops had when they kept their
forward intermediates (the padded input, the normalized input, the sampling
corners and corner values, all six SSIM terms, ELU's negative branch, GELU's
phi), and ``conv2d_reference`` is the conv2d closure that ran every kernel
tap. The lean closures rebuild those values in the backward with the same
operations, or keep only what their backward reads (GELU's phi, SSIM's
factors, batch norm's normalized input), and skip only taps that read
nothing but zero padding, so their gradients must be equal element for
element.
"""

import functools
from itertools import product

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from litedepth import losses, trainer
from litedepth.config import TrainConfig
from litedepth.data import SyntheticSource
from litedepth.encoder import AttentionBlock, DilatedConvBlock, EncoderConfig
from litedepth.engine import (
    ConvSpec, Tensor, batch_norm, bilinear_sample, conv2d, default_dtype, elu,
    gelu, no_grad, using_dtype,
)
from litedepth.engine.functional import (
    _BLOCK, _INV_SQRT_2PI, _SQRT2, _erf, _reads_input,
)
from litedepth.losses import _box3, _box3_adjoint, ssim
from litedepth.nn import ConvBnGelu


# ------------------------------------------------------- the kept closures


def conv2d_reference(x, weight, spec, grad):
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    g, p, s, r = spec.groups, spec.padding, spec.stride, spec.dilation
    ho = (h + 2 * p - r * (kh - 1) - 1) // s + 1
    wo = (w + 2 * p - r * (kw - 1) - 1) // s + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    sn, sc, sh, sw = xp.strides
    cg, og, m = cin // g, cout // g, n * ho * wo
    gout = grad.reshape(n, g, og, ho * wo).transpose(1, 2, 0, 3).reshape(g, og, m)
    gw = np.empty((kh * kw, g, og, cg), dtype=np.result_type(grad, xp))
    for t, (ki, kj) in enumerate(np.ndindex(kh, kw)):
        tap = as_strided(xp[:, :, ki * r:, kj * r:], shape=(g, cg, n, ho, wo),
                         strides=(sc * cg, sc, sn, sh * s, sw * s),
                         writeable=False).reshape(g, cg, m)
        np.matmul(gout, tap.transpose(0, 2, 1), out=gw[t])
    gx = None
    if x.requires_grad:
        wt = np.ascontiguousarray(weight.data.reshape(g, og, cg, -1).transpose(3, 0, 1, 2))
        gxp = np.zeros(xp.shape, dtype=xp.dtype)
        gxg = gxp.reshape((n, g, cg) + xp.shape[2:])
        for t, (ki, kj) in enumerate(np.ndindex(kh, kw)):
            gx_t = (wt[t].transpose(0, 2, 1) @ gout).reshape(g, cg, n, ho, wo)
            gxg[..., ki * r: ki * r + ho * s: s, kj * r: kj * r + wo * s: s] += (
                gx_t.transpose(2, 0, 1, 3, 4))
        gx = gxp[:, :, p: p + h, p: p + w]
    gw = np.ascontiguousarray(gw.transpose(1, 2, 3, 0)).reshape(weight.shape)
    return gx, gw, grad.sum(axis=(0, 2, 3))


def batch_norm_reference(x, scale, shift, running_mean, running_var, training, g,
                         eps=1e-5):
    n, c, h, w = x.shape
    cshape, axes = (1, c, 1, 1), (0, 2, 3)
    inv_count = np.asarray(1.0 / (n * h * w), dtype=default_dtype())
    if training:
        mu = x.data.sum(axis=axes, keepdims=True) * inv_count
        centered = x.data - mu
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
    else:
        centered = x.data - running_mean.reshape(cshape).astype(x.dtype)
        var = running_var.reshape(cshape).astype(x.dtype)
    std = np.sqrt(var + np.asarray(eps, dtype=default_dtype()))
    normed = centered / std
    gamma = scale.data.reshape(cshape)
    gx = g
    if training:
        gx = g - (g.sum(axis=axes, keepdims=True)
                  + normed * (g * normed).sum(axis=axes, keepdims=True)) * inv_count
    gx = gx * (gamma / std)
    return gx, (g * normed).sum(axis=axes).reshape(scale.shape), g.sum(axis=axes)


def bilinear_sample_reference(source, coords, g):
    n, c, h, w = source.shape
    cx = np.clip(coords.data[..., 0], 0.0, w - 1.0)
    cy = np.clip(coords.data[..., 1], 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx).astype(np.int64), w - 1)
    y0 = np.minimum(np.floor(cy).astype(np.int64), h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (cx - x0)[:, None]
    fy = (cy - y0)[:, None]
    corners = np.stack([(yi * w + xi)[:, None]
                        for yi, xi in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))])
    planes = (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1)
    d = source.data
    v00, v01, v10, v11 = np.take(d, corners + planes)
    w00 = (1 - fx) * (1 - fy)
    w01 = fx * (1 - fy)
    w10 = (1 - fx) * fy
    w11 = fx * fy
    inside_x = (coords.data[..., 0] > 0.0) & (coords.data[..., 0] < w - 1.0)
    inside_y = (coords.data[..., 1] > 0.0) & (coords.data[..., 1] < h - 1.0)
    gsrc = None
    if source.requires_grad:
        wgt = np.stack([g * w00, g * w01, g * w10, g * w11])
        gsrc = np.bincount((corners + planes).ravel(), wgt.ravel(), minlength=d.size)
        gsrc = gsrc.reshape(d.shape).astype(d.dtype)
    dx = ((v01 - v00) * (1 - fy) + (v11 - v10) * fy)
    dy = ((v10 - v00) * (1 - fx) + (v11 - v01) * fx)
    gx = (g * dx).sum(axis=1) * inside_x
    gy = (g * dy).sum(axis=1) * inside_y
    return gsrc, np.stack([gx, gy], axis=-1)


def ssim_reference(a, b, g):
    ad, bd = a.data, b.data
    two, c1, c2 = (np.asarray(v, dtype=default_dtype()) for v in (2.0, 0.01 ** 2, 0.03 ** 2))
    mu_a, mu_b = _box3(ad), _box3(bd)
    var_a = _box3(ad * ad) - mu_a * mu_a
    var_b = _box3(bd * bd) - mu_b * mu_b
    cov = _box3(ad * bd) - mu_a * mu_b
    a1 = two * mu_a * mu_b + c1
    a2 = two * cov + c2
    b1 = mu_a * mu_a + mu_b * mu_b + c1
    b2 = var_a + var_b + c2
    out = a1 * a2 / (b1 * b2)
    gd = 2 * g / (b1 * b2)
    g_ab = gd * a1
    g_sq = -g * out / b2
    g_cross = gd * (a2 - a1)
    g_own = 2 * g * out * (1 / b2 - 1 / b1)
    sq, ab = _box3_adjoint(g_sq), _box3_adjoint(g_ab)
    ga = _box3_adjoint(g_cross * mu_b + g_own * mu_a) + 2 * ad * sq + bd * ab
    gb = _box3_adjoint(g_cross * mu_a + g_own * mu_b) + 2 * bd * sq + ad * ab
    return ga, gb


def elu_reference(x, g):
    neg = np.exp(np.minimum(x.data, 0.0)) - 1.0
    return (g * np.where(x.data > 0, 1.0, neg + 1.0),)


def gelu_reference(x, g):
    xd = x.data
    phi = _erf(xd / _SQRT2)
    phi += 1.0
    phi *= 0.5
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * xd * xd)
    return (g * (phi + xd * pdf),)


# ---------------------------------------------------- bit-identical grads


def assert_same_grads(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@pytest.fixture(params=["f32", "f64"])
def dtype(request):
    with using_dtype(request.param):
        yield default_dtype()


def leaf(rng, shape, dtype, grad=True, scale=1.0):
    return Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=grad)


class TestBackwardUnchanged:
    # (spec, kernel, batch, input H x W, output channels, zero border (top,
    # bottom, left, right) the caller pads the input with)
    @pytest.mark.parametrize("spec, k, n, size, cout, pads", [
        pytest.param(spec, k, 2, (9, 11), 8, pads, id=f"spec{i}")
        for i, (spec, k, pads) in enumerate([
            (ConvSpec(padding=1), 3, None),
            (ConvSpec(padding=2, dilation=2, stride=2), 3, None),
            (ConvSpec(padding=1, groups=4), 3, None),
            (ConvSpec(), 3, (0, 1, 2, 1)),
            (ConvSpec(), 3, None),
            # 1x1 without padding: the channel-major input is a view of x
            (ConvSpec(), 1, None),
        ])
    ] + [
        # channel-major order is NCHW order at batch 1
        pytest.param(ConvSpec(padding=1), 3, 1, (9, 11), 8, None, id="batch1"),
        # taps whose rows or columns all fall in the zero padding
        pytest.param(ConvSpec(padding=1), 3, 2, (1, 2), 8, None, id="posenet-1x2"),
        pytest.param(ConvSpec(padding=6, dilation=6), 3, 2, (2, 4), 8, None,
                     id="dilation6-2x4"),
        pytest.param(ConvSpec(padding=1, stride=2), 3, 2, (2, 4), 8, None, id="stride2-2x4"),
        # one output channel per group
        pytest.param(ConvSpec(padding=1, groups=4), 3, 2, (9, 11), 4, None, id="depthwise"),
        pytest.param(ConvSpec(padding=3, dilation=3, groups=4), 3, 2, (2, 4), 4, None,
                     id="depthwise-dilation3-2x4"),
    ])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_conv2d(self, spec, k, n, size, cout, pads, x_grad, dtype, rng):
        x = leaf(rng, (n, 4) + size, dtype, grad=x_grad)
        if pads:
            pt, pb, pl, pr = pads
            x = Tensor(np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr))), requires_grad=x_grad)
        kept = x.data.copy()
        weight = leaf(rng, (cout, 4 // spec.groups, k, k), dtype)
        bias = leaf(rng, (cout,), dtype)
        out = conv2d(x, weight, bias, spec)
        g = rng.standard_normal(out.shape).astype(dtype)
        grads, reference = out._backward(g), conv2d_reference(x, weight, spec, g)
        assert_same_grads(grads, reference)
        # skipped taps' weight gradients are +0, as BLAS gives them
        for a, b in zip(grads, reference):
            if b is not None:
                np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
        gx = grads[0]
        if x_grad:
            assert gx.flags.c_contiguous and gx.dtype == x.dtype and gx.shape == x.shape
        # the backward never writes to the input it reads
        assert x.data.tobytes() == kept.tobytes()

    def test_conv2d_skips_exactly_the_taps_that_read_only_padding(self):
        # a tap runs iff one of its sampled rows (and one of its columns)
        # lies in the input
        for first, step, count, size in product(range(-9, 9), range(1, 4), range(1, 6),
                                                range(1, 6)):
            hits = any(0 <= first + i * step < size for i in range(count))
            assert _reads_input(first, step, count, size) == hits

    @pytest.mark.parametrize("training", [True, False])
    # the input's and the parameters' dtypes: the default's, or an f32 input
    # with f64 scale and shift, and the reverse. The upstream has the
    # input's dtype, narrower than the output's under f64 parameters, so a
    # normalized input kept in the output's dtype rounds apart
    @pytest.mark.parametrize("mix", [None, (np.float32, np.float64),
                                     (np.float64, np.float32)])
    def test_batch_norm(self, training, mix, dtype, rng):
        x_dtype, p_dtype = mix or (dtype, dtype)
        x = leaf(rng, (2, 5, 6, 7), x_dtype, scale=2.0)
        scale, shift = leaf(rng, (5,), p_dtype), leaf(rng, (5,), p_dtype)
        stats = (rng.standard_normal(5).astype(dtype), rng.uniform(0.5, 2.0, 5).astype(dtype))
        kept = tuple(s.copy() for s in stats)
        out = batch_norm(x, scale, shift, None if training else stats)[0]
        g = rng.standard_normal(out.shape).astype(x_dtype)
        assert_same_grads(out._backward(g),
                          batch_norm_reference(x, scale, shift, *kept, training, g))
        # without a graph it normalizes in place in its output, to the same bits
        with no_grad():
            unrecorded = batch_norm(x, scale, shift, None if training else stats)[0]
        assert unrecorded.data.tobytes() == out.data.tobytes()

    @pytest.mark.parametrize("source_grad", [True, False])
    def test_bilinear_sample(self, source_grad, dtype, rng):
        source = leaf(rng, (2, 3, 6, 8), dtype, grad=source_grad)
        # some coordinates outside the map, some exactly on its border
        xy = rng.uniform(-1.5, 9.0, (2, 5, 7, 2))
        xy[0, 0, :3] = [[0.0, 0.0], [7.0, 5.0], [3.0, 2.0]]
        coords = Tensor(xy.astype(dtype), requires_grad=True)
        out = bilinear_sample(source, coords)
        g = rng.standard_normal(out.shape).astype(dtype)
        assert_same_grads(out._backward(g), bilinear_sample_reference(source, coords, g))

    def test_ssim(self, dtype, rng):
        a = Tensor(rng.uniform(0, 1, (2, 3, 6, 9)).astype(dtype), requires_grad=True)
        b = Tensor(rng.uniform(0, 1, (2, 3, 6, 9)).astype(dtype), requires_grad=True)
        out = ssim(a, b)
        g = rng.standard_normal(out.shape).astype(dtype)
        assert_same_grads(out._backward(g), ssim_reference(a, b, g))

    def test_elu(self, dtype, rng):
        x = leaf(rng, (3, 4, 5), dtype, scale=3.0)
        x.data[0, 0, :2] = 0.0
        out = elu(x)
        g = rng.standard_normal(out.shape).astype(dtype)
        assert_same_grads(out._backward(g), elu_reference(x, g))

    @pytest.mark.parametrize("upstream", ["contiguous", "transposed", "f64", "strided-input"])
    def test_gelu(self, upstream, dtype, rng):
        self.check_gelu(upstream, dtype, rng)

    @pytest.mark.parametrize("upstream", ["contiguous", "transposed", "f64", "strided-input"])
    def test_gelu_without_graph_keeps_no_phi(self, upstream, dtype, rng):
        # under no_grad, or on an input that needs no gradient, GELU records
        # no graph and keeps nothing: the same output, no backward
        x = leaf(rng, (3, 14 if upstream == "strided-input" else 7, 3169), dtype, scale=3.0)
        if upstream == "strided-input":
            x = Tensor(x.data[:, ::2], requires_grad=True)
        recorded = gelu(x)
        with no_grad():
            unrecorded = gelu(x)
        constant = gelu(Tensor(x.data))
        for out in (unrecorded, constant):
            assert out._backward is None and not out.requires_grad
            assert out.data.tobytes() == recorded.data.tobytes()

    @staticmethod
    def check_gelu(upstream, dtype, rng):
        # more than two _BLOCKs, so phi is read across two boundaries
        x = leaf(rng, (3, 14 if upstream == "strided-input" else 7, 3169), dtype, scale=3.0)
        if upstream == "strided-input":
            x = Tensor(x.data[:, ::2], requires_grad=True)
        assert x.data.size > 2 * _BLOCK
        out = gelu(x)
        # a GELU that records a graph keeps one phi, of its input's shape
        phi = _cell(out._backward, "phi")
        assert phi.shape == x.shape and phi.dtype == out.dtype
        if upstream == "transposed":
            g = rng.standard_normal(out.shape[::-1]).astype(dtype).T
            assert not g.flags.c_contiguous
        else:
            g = rng.standard_normal(out.shape).astype(
                np.float64 if upstream == "f64" else dtype)
        assert_same_grads(out._backward(g), gelu_reference(x, g))


# ------------------------------------------------- the graph holds its maps


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _captured_arrays(fn):
    """Every distinct ndarray a closure can reach: its cells, the closures
    and tuples in them, and the data of captured tensors."""
    found, todo = {}, [c.cell_contents for c in fn.__closure__ or ()]
    while todo:
        v = todo.pop()
        if isinstance(v, np.ndarray):
            found[id(v)] = v
        elif isinstance(v, Tensor):
            found[id(v.data)] = v.data
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            todo.extend(c.cell_contents for c in v.__closure__)
    return list(found.values())


def _cell(fn, name):
    """The value of the variable `name` that closure `fn` captured."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def _holds_map(a):
    # per-channel vectors, (N, C, 1, 1) offsets and scalars are not maps
    return a.ndim >= 2 and a.shape[-2:] != (1, 1)


def _graph_records(root):
    """(op, shape, first parent needs grad, own arrays) for each node of the
    graph under `root`: its own arrays are the maps its backward keeps that
    no tensor of the graph holds. A `recompute` node is named by the
    function it re-runs, and every array it keeps but its parents' is its own."""
    nodes, todo, seen = [], [root], set()
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            todo.extend(t._parents)
    roots = {id(_root(t.data)) for t in nodes}
    records = []
    for t in nodes:
        if t._backward is None:
            continue
        op = t._backward.__qualname__.split(".")[0]
        kept = _captured_arrays(t._backward)
        if op == "recompute":
            op = _cell(t._backward, "fn").__name__
            inputs = {id(_root(p.data)) for p in t._parents}
            own = [a for a in kept if id(_root(a)) not in inputs]
        else:
            own = [a for a in kept if _holds_map(a) and id(_root(a)) not in roots]
        records.append((op, t.shape, t._parents[0].requires_grad, own))
    return records


def test_closures_keep_no_copies_of_graph_maps(monkeypatch):
    # the graph total_loss leaves for backward, and the graph each recompute
    # node builds when backward re-runs it: a warped branch's photometric
    # error or a conv block with a backward closure is a re-run, since the
    # forward runs without a graph. The recompute nodes keep nothing but
    # their parents' arrays, the inputs' and the params'. A re-run's graph
    # lives only for its node's backward, so the kernels in it may keep what
    # their backward reads.
    records = []

    def keep_graph(total_loss):
        def hooked(*args, **kwargs):
            loss, diag = total_loss(*args, **kwargs)
            records.extend((False,) + r for r in _graph_records(loss))
            return loss, diag
        return hooked

    def keep_rerun(fn):
        @functools.wraps(fn)
        def hooked(*args):
            out = fn(*args)
            head = out[0] if isinstance(out, tuple) else out
            if head._backward is not None:
                records.extend((True,) + r for r in _graph_records(head))
            return out
        return hooked

    monkeypatch.setattr(trainer, "total_loss", keep_graph(trainer.total_loss))
    monkeypatch.setattr(losses, "photometric_loss", keep_rerun(losses.photometric_loss))
    for block, name in ((ConvBnGelu, "_conv_bn_gelu"),
                        (DilatedConvBlock, "_conv_branch"),
                        (AttentionBlock, "_block")):
        monkeypatch.setattr(block, name, keep_rerun(getattr(block, name)))
    trainer.train(TrainConfig(batch_size=2, steps=1, seed=1, precision="f32"),
                  EncoderConfig.variant_preset("tiny"),
                  SyntheticSource(seed=5, n_frames=4, size=(64, 32)))

    ops, faults = {}, []
    for rerun, op, shape, first_parent_grad, own in records:
        ops[op] = ops.get(op, 0) + 1
        ops[op, rerun] = ops.get((op, rerun), 0) + 1
        kept = sorted((a.shape, a.dtype.kind) for a in own)
        if op == "gelu":
            # a GELU that records a graph keeps its phi, one map of its
            # input's shape; outside a node only the pose head's 256-channel
            # GELUs record one
            if kept != [(shape, "f")] or not (rerun or shape[1] == 256):
                faults.append((op, rerun, shape, kept))
        elif op == "batch_norm":
            # every batch norm runs inside a conv block's node and keeps its
            # normalized input, one map of its output's shape
            if kept != [(shape, "f")] or not rerun:
                faults.append((op, rerun, shape, kept))
        elif op in ("conv2d", "elu", "warped_error", "_conv_bn_gelu", "_conv_branch",
                    "_block") and own:
            faults.append((op, kept))
        elif op == "bilinear_sample":
            n, c, ho, wo = shape
            # the warp samples images: only the coordinates need a gradient,
            # which reads two slopes and two inside masks
            if first_parent_grad or kept != sorted(
                    [((n, c, ho, wo), "f")] * 2 + [((n, ho, wo), "b")] * 2):
                faults.append((op, kept))
        # SSIM keeps its two means and its four factors a1, a2, b1 and b2
        elif op == "ssim" and (not rerun or kept != [(shape, "f")] * 6):
            faults.append((op, rerun, kept))
    assert not faults
    assert all(ops.get(op, 0) > 0 for op in
               ("conv2d", "batch_norm", "elu", "bilinear_sample", "ssim", "warped_error")), ops
    # two sources at three scales, each re-run once by backward
    assert ops["warped_error"] == ops["bilinear_sample"] == ops["ssim"] == 6, ops
    # one node per block: the tiny encoder's 3 stem and 3 downsampling
    # blocks and the pose encoder's 5 for each of two sources, twelve
    # dilated blocks and three attention blocks. Each node is re-run once
    # with one GELU, and the pose head runs three GELUs per source
    assert (ops.get("_conv_bn_gelu"), ops.get("_conv_branch"),
            ops.get("_block")) == (16, 12, 3), ops
    assert (ops.get(("gelu", True)), ops.get(("gelu", False))) == (31, 6), ops
    assert ops.get(("batch_norm", True)) == 28, ops
