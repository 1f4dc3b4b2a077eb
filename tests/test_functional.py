import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from litedepth.engine import (
    ConvSpec, Tensor, as_tensor, avg_pool, batch_norm, bilinear_sample, blocks,
    conv2d, elu, gelu, grad_check, layer_norm, no_grad, resize_bilinear, same_padding,
    sigmoid, softmax, using_dtype,
)
from litedepth.engine.functional import _BLOCK, _COLS_BYTES, _erf
from litedepth.nn import BatchNorm2d


def pad_hw(x, pads):
    """x zero-padded by (top, bottom, left, right) on its two spatial axes."""
    pt, pb, pl, pr = pads
    return np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))


def single_gemm_conv(x, wt, b, spec):
    """conv2d's forward as one GEMM per group whose columns span the whole
    batch: the full (Cg*kh*kw, N*Ho*Wo) im2col matrix at once."""
    n, cin, h, w = x.shape
    cout, cg, kh, kw = wt.shape
    g, p, s, r = spec.groups, spec.padding, spec.stride, spec.dilation
    ho = (h + 2 * p - r * (kh - 1) - 1) // s + 1
    wo = (w + 2 * p - r * (kw - 1) - 1) // s + 1
    xp = pad_hw(x, (p,) * 4)
    sn, sc, sh, sw = xp.strides
    cols = as_strided(xp, shape=(g, cg, kh, kw, n, ho, wo),
                      strides=(sc * cg, sc, sh * r, sw * r, sn, sh * s, sw * s),
                      writeable=False).reshape(g, cg * kh * kw, n * ho * wo)
    out = np.matmul(wt.reshape(g, cout // g, -1), cols).reshape(cout, n, ho, wo)
    if b is not None:
        out = out + b.reshape(cout, 1, 1, 1)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def column_bytes(x, wt, spec, out_shape):
    """Bytes of the full im2col matrix of one conv2d call, and of one sample's."""
    n, _, ho, wo = out_shape
    per_sample = spec.groups * wt[0].size * ho * wo * x.itemsize
    return n * per_sample, per_sample


class TestBlockedConvForward:
    """The forward copies at most _COLS_BYTES of im2col columns at a time. Where
    its row blocks fall on 16-column BLAS tiles (every map the model makes),
    each value equals the single-GEMM forward bit for bit."""

    # (in channels, out channels, kernel, spec, zero border (top, bottom,
    # left, right) the caller pads the 32x160 input with)
    GEOMETRIES = {
        "dense3x3": (32, 32, 3, dict(padding=1), None),
        "pointwise": (256, 64, 1, dict(), None),
        "depthwise": (32, 32, 3, dict(padding=1, groups=32), None),
        "stride2": (128, 48, 3, dict(stride=2, padding=1), None),
        "dilation3": (32, 32, 3, dict(padding=3, dilation=3), None),
        "pads4": (32, 32, 3, dict(), (1, 0, 2, 0)),
    }

    def run(self, x, wt, b, spec):
        out = conv2d(Tensor(x), Tensor(wt), None if b is None else Tensor(b), spec).data
        ref = single_gemm_conv(x, wt, b, spec)
        assert out.dtype == ref.dtype and out.flags.c_contiguous
        return out, ref

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_every_geometry_spans_blocks_bit_identically(self, geometry, n, dtype, rng):
        cin, cout, k, spec_kw, pads = self.GEOMETRIES[geometry]
        spec = ConvSpec(**spec_kw)
        x = rng.standard_normal((n, cin, 32, 160)).astype(dtype)
        if pads:
            x = pad_hw(x, pads)
        wt = rng.standard_normal((cout, cin // spec.groups, k, k)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        out, ref = self.run(x, wt, b, spec)
        np.testing.assert_array_equal(out, ref)
        # even one sample's columns exceed the budget: row blocks
        assert column_bytes(x, wt, spec, out.shape)[1] > _COLS_BYTES

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sample_blocks_bit_identical(self, dtype, rng):
        x = rng.standard_normal((7, 8, 32, 80)).astype(dtype)
        wt = rng.standard_normal((8, 8, 3, 3)).astype(dtype)
        b = rng.standard_normal(8).astype(dtype)
        spec = ConvSpec(padding=1)
        out, ref = self.run(x, wt, b, spec)
        np.testing.assert_array_equal(out, ref)
        total, per_sample = column_bytes(x, wt, spec, out.shape)
        assert per_sample < _COLS_BYTES < total

    @pytest.mark.parametrize("shape", [(1, 48, 96, 320), (3, 16, 96, 320)])
    def test_paper_scale_maps_bit_identical(self, shape, rng):
        # the 640x192 stem map: 53 MiB of f32 columns in one GEMM
        x = rng.standard_normal(shape).astype(np.float32)
        wt = rng.standard_normal((shape[1], shape[1], 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(*self.run(x, wt, None, ConvSpec(padding=1)))

    @pytest.mark.parametrize("dtype,n,h,w,groups,pads", [
        (np.float64, 1, 32, 160, 1, (1, 0, 2, 1)),    # 16 columns of rows overflow the budget
        (np.float32, 3, 32, 160, 1, (1, 0, 2, 1)),    # samples start mid-tile
        (np.float32, 3, 48, 160, 32, (1, 1, 1, 1)),   # f32 depthwise, > 16,384 columns
    ])
    def test_off_tile_blocks_differ_only_in_rounding(self, dtype, n, h, w, groups, pads, rng):
        # OpenBLAS rounds a column by where it sits in its tile, and switches
        # sgemv kernels above 16,384 columns: these blocks may round apart
        spec = ConvSpec(groups=groups)
        x = pad_hw(rng.standard_normal((n, 32, h, w)).astype(dtype), pads)
        wt = rng.standard_normal((32, 32 // groups, 3, 3)).astype(dtype)
        out, ref = self.run(x, wt, None, spec)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(out, ref, rtol=0, atol=16 * np.finfo(dtype).eps * scale)
        assert column_bytes(x, wt, spec, out.shape)[0] > _COLS_BYTES

    def test_small_batch_is_one_block(self, rng, monkeypatch):
        # a call whose columns fit the budget is one GEMM, as before blocking
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
        x = rng.standard_normal((4, 32, 16, 32)).astype(np.float32)
        wt = rng.standard_normal((32, 32, 3, 3)).astype(np.float32)
        conv2d(Tensor(x), Tensor(wt), None, ConvSpec(padding=1))
        assert calls == [1]

    def test_forward_peak_is_bounded_by_the_budget(self, rng):
        x = Tensor(rng.standard_normal((1, 48, 96, 320)).astype(np.float32))
        wt = Tensor(rng.standard_normal((48, 48, 3, 3)).astype(np.float32))
        padded_bytes = 48 * 98 * 322 * 4
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, wt, None, ConvSpec(padding=1))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # one GEMM over the whole map held 53 MiB of columns
        assert peak <= out.data.nbytes + padded_bytes + _COLS_BYTES + (1 << 20)


class TestConv2d:
    def test_identity_pointwise_kernel(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 4)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        out = conv2d(x, w, None, ConvSpec())
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("r,support", [(1, 3), (2, 5)])
    def test_impulse_response_support(self, r, support):
        # receptive field of a 3x3 kernel is 3 (r=1) vs 5 (r=2) per axis
        x = np.zeros((1, 1, 11, 11))
        x[0, 0, 5, 5] = 1.0
        w = Tensor(np.ones((1, 1, 3, 3)))
        spec = ConvSpec(padding=same_padding(3, r), dilation=r)
        out = conv2d(Tensor(x), w, None, spec).data[0, 0]
        rows = np.nonzero(out.sum(axis=1))[0]
        cols = np.nonzero(out.sum(axis=0))[0]
        assert rows.max() - rows.min() + 1 == support
        assert cols.max() - cols.min() + 1 == support

    @pytest.mark.parametrize("groups", [1, 4])
    def test_input_grad_keeps_input_dtype(self, groups, rng):
        # an f64 upstream gradient must not promote the f32 input's gradient
        x = Tensor(rng.standard_normal((2, 4, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4 // groups, 3, 3)).astype(np.float32),
                   requires_grad=True)
        out = conv2d(x, w, None, ConvSpec(padding=1, groups=groups))
        (out * Tensor(np.ones(out.shape))).sum().backward()
        assert x.grad.dtype == np.float32

    @pytest.mark.parametrize("groups,stride", [(1, 1), (4, 2)])
    def test_weight_grad_same_without_input_grad(self, groups, stride, rng):
        # an image input needs no gradient, so conv2d skips the gx taps
        x = pad_hw(rng.standard_normal((2, 4, 7, 6)), (1, 0, 2, 1))
        w = Tensor(rng.standard_normal((4, 4 // groups, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        spec = ConvSpec(stride=stride, groups=groups)
        upstream = rng.standard_normal(conv2d(Tensor(x), w, b, spec).shape)
        grads = []
        for needs in (True, False):
            gx, gw, gb = conv2d(Tensor(x, requires_grad=needs), w, b, spec)._backward(upstream)
            assert (gx is None) != needs
            grads.append((gw, gb))
        for with_x, without_x in zip(*grads):
            np.testing.assert_array_equal(with_x, without_x)

    @pytest.mark.parametrize("padding", [(1, 2), (1, 0, 2, 1), -1])
    def test_padding_other_than_one_int_rejected(self, padding):
        # padding is one int >= 0, the same on every side
        with pytest.raises(ValueError, match="padding"):
            ConvSpec(padding=padding)

    def test_group_mismatch_error_names_axis(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        with pytest.raises(ValueError, match="channel axis"):
            conv2d(x, w, None, ConvSpec(groups=2))

    def test_nonpositive_output_size_error(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="output size"):
            conv2d(x, w, None, ConvSpec())


class TestAvgPool:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.5))
        out = avg_pool(x)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.5))

    def test_four_pixel_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert avg_pool(x).data.reshape(()) == 2.5

    def test_stride_two_halves_even_sizes(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 6)))
        assert avg_pool(x).shape == (2, 3, 4, 3)

    def test_window_exceeding_extent_rejected(self):
        with pytest.raises(ValueError, match="window"):
            avg_pool(Tensor(np.zeros((1, 1, 1, 2))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (4, 48, 8, 16),     # the encoder's input pyramid
        (1, 3, 7, 9),
    ])
    def test_bit_identical_to_windowed_mean(self, shape, dtype, rng):
        x = rng.random(shape).astype(dtype)
        n, c, h, w = shape
        sn, sc, sh, sw = x.strides
        oracle = as_strided(x, shape=(n, c, h // 2, w // 2, 2, 2),
                            strides=(sn, sc, sh * 2, sw * 2, sh, sw)).mean(axis=(4, 5))
        out = avg_pool(Tensor(x)).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, oracle)


class TestResizeBilinear:
    def test_unit_size_is_bit_identical(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        assert resize_bilinear(x, size=(4, 4)) is x

    def test_constant_image_stays_constant(self):
        x = Tensor(np.full((1, 2, 3, 5), 0.7))
        out = resize_bilinear(x, size=(6, 10))
        np.testing.assert_allclose(out.data, 0.7, atol=1e-12)

    def test_grad_keeps_input_dtype(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 4)).astype(np.float32), requires_grad=True)
        (resize_bilinear(x, size=(6, 8)) * Tensor(np.ones((1, 2, 6, 8)))).sum().backward()
        assert x.grad.dtype == np.float32

    def test_up_down_roundtrip_exact_on_constants(self):
        x = Tensor(np.full((1, 1, 4, 4), 2.25))
        back = resize_bilinear(resize_bilinear(x, size=(8, 8)), size=(4, 4))
        np.testing.assert_array_equal(back.data, x.data)


class TestBilinearSample:
    def test_integer_coords_recover_pixels(self, rng):
        src = rng.standard_normal((1, 3, 4, 5))
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(4.0))
        coords = np.stack([xs, ys], axis=-1)[None]
        out = bilinear_sample(Tensor(src), Tensor(coords))
        np.testing.assert_allclose(out.data, src, atol=1e-12)

    def test_identity_grid_is_identity(self, rng):
        src = rng.standard_normal((2, 1, 3, 3))
        xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0))
        coords = np.broadcast_to(np.stack([xs, ys], axis=-1), (2, 3, 3, 2)).copy()
        out = bilinear_sample(Tensor(src), Tensor(coords))
        np.testing.assert_allclose(out.data, src, atol=1e-12)

    def test_coord_grad_without_source_grad(self, rng):
        src = rng.standard_normal((1, 2, 5, 5))
        xy = rng.uniform(0.3, 3.4, size=(1, 3, 3, 2))
        grads = []
        for needs in (True, False):
            s, c = Tensor(src, requires_grad=needs), Tensor(xy, requires_grad=True)
            out = bilinear_sample(s, c)
            (out * out).sum().backward()
            assert (s.grad is None) != needs
            grads.append(c.grad)
        np.testing.assert_array_equal(*grads)


class TestNormalize:
    def test_layer_norm_constant_input_zeros_before_shift(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_layer_norm_two_points(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        # unit variance, so the eps shifts each output by about eps / 2
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_layer_norm_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="zero-size"):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)),
                       Tensor(np.zeros(0)))

    def test_batch_stats_in_the_buffers_give_the_train_output(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 5, 5)))
        norm = BatchNorm2d(3)
        train_out, mean, var = norm(x)
        norm.running_mean[...], norm.running_var[...] = mean, var
        eval_out = norm.eval()(x)[0]
        np.testing.assert_allclose(eval_out.data, train_out.data, atol=1e-12)

    def test_batch_norm_module_updates_only_in_train_mode(self, rng):
        # r <- 0.9 r + 0.1 batch, from the statistics the forward hands out;
        # an eval-mode forward leaves the buffers alone
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 2 + 1)
        norm = BatchNorm2d(3)
        _, mean, var = norm(x)
        norm.update(mean, var)
        np.testing.assert_array_equal(norm.running_mean, 0.1 * mean)
        np.testing.assert_array_equal(norm.running_var, 0.9 + 0.1 * var)
        kept = [b.copy() for _, b in norm.named_buffers()]
        norm.eval()
        norm.update(*norm(x)[1:])
        for (_, b), k in zip(norm.named_buffers(), kept):
            np.testing.assert_array_equal(b, k)

    def test_batch_norm_normalizes(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 4, 4)) * 3 + 1)
        out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))[0]
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_layer_norm_grad_check(self, rng):
        # a fixed random weighting keeps the loss sensitive to the input;
        # sums of squares of normalized outputs are constant up to O(eps)
        # and would starve the finite differences of signal
        xt = Tensor(rng.standard_normal((3, 5)))
        s5, b5 = Tensor(rng.standard_normal(5)), Tensor(rng.standard_normal(5))
        wt = Tensor(rng.standard_normal((3, 5)))
        assert grad_check(lambda a, c, d: (layer_norm(a, c, d) * wt).sum(),
                          [xt, s5, b5]) < 1e-4


def batch_norm_oracle(x, scale, shift, stats=None, eps=1e-5):
    """Batch norm composed from reductions and elementwise ops, with the
    per-channel mean and variance it normalized with."""
    x = as_tensor(x)
    c = x.shape[1]
    cshape = (1, c, 1, 1)
    if stats is None:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        stats = mu.data.reshape(c), var.data.reshape(c)
    else:
        mu = Tensor(stats[0].reshape(cshape).astype(x.dtype))
        var = Tensor(stats[1].reshape(cshape).astype(x.dtype))
        centered = x - mu
    normed = centered / (var + eps).sqrt()
    out = normed * as_tensor(scale).reshape(cshape) + as_tensor(shift).reshape(cshape)
    return (out, *stats)


class TestFusedBatchNorm:
    """The one-node batch norm against its composite oracle."""

    SHAPES = [(1, 2, 3, 3), (2, 3, 5, 7), (4, 8, 32, 64)]

    @staticmethod
    def inputs(rng, shape, x_dtype=np.float64):
        c = shape[1]
        x = Tensor((rng.standard_normal(shape) * 2.0 + 0.5).astype(x_dtype))
        scale, shift = Tensor(rng.standard_normal(c)), Tensor(rng.standard_normal(c))
        stats = (rng.standard_normal(c).astype(scale.dtype),
                 rng.uniform(0.5, 2.0, c).astype(scale.dtype))
        return x, scale, shift, stats

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("default, x_dtype", [
        ("f32", np.float32), ("f64", np.float64),
        ("f32", np.float64), ("f64", np.float32),
    ])
    def test_forward_is_bit_identical(self, shape, training, default, x_dtype, rng):
        with using_dtype(default):
            x, scale, shift, stats = self.inputs(rng, shape, x_dtype)
            given = None if training else stats
            kept = [s.copy() for s in stats]
            fused, *fused_stats = batch_norm(x, scale, shift, given)
            oracle, *oracle_stats = batch_norm_oracle(x, scale, shift, given)
        assert fused.dtype == oracle.dtype
        np.testing.assert_array_equal(fused.data, oracle.data)
        # the statistics it normalized with, in the expression's dtype; the
        # given ones are read, not written
        for f, o in zip(fused_stats, oracle_stats):
            assert f.shape == (shape[1],) and f.dtype == o.dtype
            np.testing.assert_array_equal(f, o)
        for s, k in zip(stats, kept):
            np.testing.assert_array_equal(s, k)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("training", [True, False])
    def test_backward_matches_composite(self, shape, training, rng):
        x, scale, shift, stats = self.inputs(rng, shape)
        upstream = Tensor(rng.standard_normal(shape))
        grads = []
        for f in (batch_norm, batch_norm_oracle):
            leaves = [Tensor(t.data, requires_grad=True) for t in (x, scale, shift)]
            out = f(*leaves, None if training else stats)[0]
            (out * upstream).sum().backward()
            grads.append([t.grad for t in leaves])
        for g, r in zip(*grads):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()

    @pytest.mark.parametrize("training", [False, True])
    def test_eval_mode_writes_one_output_map(self, training, rng):
        # separate centered and normed maps would each add one output's
        # worth; train mode frees its squared deviations before the output
        with using_dtype("f32"):
            x = Tensor(rng.standard_normal((1, 64, 96, 320)).astype(np.float32))
            scale, shift = Tensor(np.ones(64, np.float32)), Tensor(np.zeros(64, np.float32))
            stats = np.zeros(64, np.float32), np.ones(64, np.float32)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                out = batch_norm(x, scale, shift, None if training else stats)[0]
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes

    @pytest.mark.parametrize("training", [True, False])
    def test_one_node(self, training, count_nodes, rng):
        x, scale, shift, stats = self.inputs(rng, (2, 3, 4, 4))
        x.requires_grad = True
        assert count_nodes(
            lambda: batch_norm(x, scale, shift, None if training else stats)[0]) == 1


class TestActivations:
    def test_gelu_at_zero(self):
        assert gelu(Tensor(np.array([0.0]))).data[0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_equals_the_erf_expression(self, dtype, rng):
        # phi is built in one buffer; the ops and their order are unchanged
        from scipy.special import erf
        x = (3.0 * rng.standard_normal((2, 3, 17, 19))).astype(dtype)
        ref = x * (0.5 * (1.0 + erf(x / float(np.sqrt(2.0)))))
        out = gelu(Tensor(x)).data
        assert out.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(out, ref)

    def test_gelu_across_blocks_equals_the_erf_expression(self, rng):
        # several blocks of _BLOCK elements and a partial last one
        from scipy.special import erf
        x = (3.0 * rng.standard_normal(2 * _BLOCK + 1001)).astype(np.float32)
        ref = x * (0.5 * (1.0 + erf(x / float(np.sqrt(2.0)))))
        np.testing.assert_array_equal(gelu(Tensor(x)).data, ref)

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
    def test_gelu_of_a_non_contiguous_tensor(self, layout, rng):
        x = (3.0 * rng.standard_normal((2, 48, 40, 40))).astype(np.float32)
        view = {"transposed": x.transpose(0, 2, 3, 1), "fortran": np.asfortranarray(x),
                "strided": x[:, ::2, :, ::3]}[layout]
        assert not view.flags.c_contiguous
        out = gelu(Tensor(view)).data
        np.testing.assert_array_equal(out, gelu(Tensor(np.ascontiguousarray(view))).data)

    @pytest.mark.parametrize("mode", ["no_grad", "input_needs_no_grad"])
    def test_gelu_without_a_backward_equals_the_grad_path(self, mode, rng):
        x = (3.0 * rng.standard_normal(2 * _BLOCK + 1001)).astype(np.float32)
        ref = gelu(Tensor(x, requires_grad=True)).data
        if mode == "no_grad":
            with no_grad():
                out = gelu(Tensor(x, requires_grad=True)).data
        else:
            out = gelu(Tensor(x)).data
        np.testing.assert_array_equal(out, ref)

    def test_gelu_without_a_backward_peaks_near_one_output_map(self, rng):
        # phi is a full-size map only when a backward will read it
        x = Tensor(rng.standard_normal((1, 288, 48, 160)).astype(np.float32))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = gelu(x)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes

    def test_gelu_backward_peaks_near_one_output_map(self, rng):
        # phi is rebuilt a block at a time; the gradient is the only full map
        x = Tensor(rng.standard_normal((1, 288, 48, 160)).astype(np.float32),
                   requires_grad=True)
        out = gelu(x)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes

    def test_gelu_of_an_integer_array_is_f64(self):
        out = gelu(Tensor(np.arange(-3, 4))).data
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, gelu(Tensor(np.arange(-3.0, 4.0))).data)

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(np.array([0.0]))).data[0] == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_the_three_exp_expression(self, dtype, rng):
        # exp(-|x|) is computed once; each branch's ops are unchanged
        x = np.concatenate([40.0 * rng.standard_normal(4000),
                            [0.0, -0.0, 1e4, -1e4, np.inf, -np.inf, np.nan]]).astype(dtype)
        ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        out = sigmoid(Tensor(x)).data
        assert out.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(out, ref)

    def test_elu_positive_passthrough(self):
        np.testing.assert_array_equal(elu(Tensor(np.array([2.0]))).data, [2.0])

    def test_softmax_singleton(self):
        np.testing.assert_array_equal(
            softmax(Tensor(np.array([[5.0]])), axis=-1).data, [[1.0]])

    @pytest.mark.parametrize("fn", [gelu, elu, sigmoid,
                                    lambda x: softmax(x, axis=-1)])
    def test_grad_checks(self, fn, rng):
        for _ in range(5):
            x = Tensor(rng.standard_normal((2, 4)))
            assert grad_check(lambda a: (fn(a) * fn(a)).sum(), [x]) < 1e-4

    def test_composite_conv_norm_gelu_chain(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        s, b = Tensor(np.ones(3)), Tensor(np.zeros(3))

        def f(xi, wi, si, bi):
            h = conv2d(xi, wi, None, ConvSpec(padding=1))
            h = batch_norm(h, si, bi)[0]
            return gelu(h).sum()

        assert grad_check(f, [x, w, s, b]) < 1e-4


def f32_between(lo, hi, stride=1):
    """Every stride-th f32 from lo (inclusive) to hi (exclusive), lo >= 0."""
    start, stop = np.array([lo, hi], np.float32).view(np.uint32)
    return np.arange(start, stop, stride, dtype=np.uint32).view(np.float32)


class TestBlocks:
    """`blocks` walks every blocked elementwise kernel: GELU, `_erf`, AdamW."""

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "broadcast", "empty"])
    def test_visits_every_element_once_and_writes_back(self, layout):
        # the read operand in each layout, and a written one that is a
        # strided view except where the read one is C-contiguous
        shape = (3, 0 if layout == "empty" else 2 * _BLOCK // 64 + 7, 64)
        n = int(np.prod(shape))
        src = {"contiguous": np.arange(n, dtype=float).reshape(shape),
               "transposed": np.arange(n, dtype=float).reshape(shape[::-1]).T,
               "broadcast": np.broadcast_to(np.arange(64.0), shape),
               "empty": np.empty(shape)}[layout]
        out = (np.zeros(shape) if layout == "contiguous"
               else np.zeros((shape[0], 2 * shape[1], 64))[:, ::2])
        count = np.zeros(shape, np.int64)
        sizes = []
        for sb, ob, cb in blocks([src, out, count], writes=2):
            assert sb.size == ob.size == cb.size <= _BLOCK
            sizes.append(sb.size)
            ob[...] = sb
            cb += 1
        assert sum(sizes) == n and (n == 0 or len(sizes) > 1)
        np.testing.assert_array_equal(count, 1)
        np.testing.assert_array_equal(out, src)


def assert_same_bits(out, ref):
    """Equal values and signs, signed zeros included; NaN where ref is NaN."""
    assert out.dtype == ref.dtype
    np.testing.assert_array_equal(out, ref)
    num = ~np.isnan(ref)
    np.testing.assert_array_equal(np.signbit(out[num]), np.signbit(ref[num]))


class TestErf:
    """`_erf` ports the Cephes routine scipy.special.erf runs; scipy is the
    oracle here and nowhere in the package."""

    @staticmethod
    def erf(x):
        from scipy.special import erf
        return erf(x)

    def specials(self, dtype):
        info = np.finfo(dtype)
        return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, info.max, -info.max,
                         info.tiny, -info.tiny, info.smallest_subnormal,
                         -info.smallest_subnormal, 1.0, -1.0, 8.0, -8.0], dtype)

    def test_f32_bit_identical_on_every_value_in_1_to_8(self):
        # the exp(-x²) branch; below 1 and from 8 on the f64 result is the
        # same expression or exactly ±1, so its f32 rounding agrees too
        for x in np.array_split(f32_between(1.0, 8.0), 6):
            ref = self.erf(x)
            assert np.array_equal(_erf(x).view(np.uint32), ref.view(np.uint32))

    def test_f32_bit_identical_on_a_sweep_of_all_finite_values(self):
        x = f32_between(0.0, np.inf, stride=4093)
        x = np.concatenate([x, -x, self.specials(np.float32)])
        assert_same_bits(_erf(x.copy()), self.erf(x))

    def test_f64_bit_identical_below_1_and_from_4_on(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 1 << 19, endpoint=False),
                            np.linspace(4.0, 30.0, 1 << 19)])
        x = np.concatenate([x, -x])
        np.testing.assert_array_equal(_erf(x.copy()).view(np.uint64),
                                      self.erf(x).view(np.uint64))
        assert_same_bits(_erf(self.specials(np.float64)), self.erf(self.specials(np.float64)))

    def test_f64_within_one_ulp_from_1_to_4(self):
        # numpy's SIMD np.exp rounds exp(-x²) 1 ulp away from libm's exp,
        # which scipy calls, on a fraction of these values; erf follows it
        x = np.linspace(1.0, 4.0, 1 << 19, endpoint=False)
        x = np.concatenate([x, -x])
        np.testing.assert_array_max_ulp(_erf(x.copy()), self.erf(x), maxulp=1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_floating_point_warnings(self, dtype, rng):
        x = np.concatenate([self.specials(dtype), (10.0 * rng.standard_normal(1000)).astype(dtype)])
        with np.errstate(all="raise"):
            _erf(x)

    def test_in_place_across_blocks(self, rng):
        # several blocks and a partial last one, on an N-d array
        x = (3.0 * rng.standard_normal((3, 5, 71, 97))).astype(np.float32)
        ref = self.erf(x)
        assert _erf(x) is x
        np.testing.assert_array_equal(x, ref)

    @pytest.mark.parametrize("layout", ["transposed", "strided"])
    def test_in_place_on_a_non_contiguous_view(self, layout, rng):
        # several blocks; the walk buffers a view it cannot step through with
        # one stride and writes it back, and leaves the rest of the array
        select = {"transposed": lambda a: a.transpose(2, 1, 0),
                  "strided": lambda a: a[:, ::2, ::3]}[layout]
        x = (3.0 * rng.standard_normal((2, 3 * _BLOCK // 64 + 5, 64))).astype(np.float32)
        want = x.copy()
        view = select(x)
        assert not view.flags.c_contiguous and view.size > _BLOCK
        select(want)[...] = self.erf(view)
        assert _erf(view) is view
        assert_same_bits(x, want)

    def test_package_runs_without_scipy(self):
        # numpy is the only runtime dependency: scipy is made unimportable
        import litedepth
        src = str(Path(litedepth.__file__).resolve().parents[1])
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "import numpy as np\n"
                "import litedepth.cli\n"
                "from litedepth.engine import Tensor, gelu\n"
                "x = np.array([-1.0, 0.5, 2.0], np.float32)\n"
                "print(gelu(Tensor(x)).data.tolist())\n")
        run = subprocess.run([sys.executable, "-c", code], text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True)
        assert run.returncode == 0, run.stderr
        x = np.array([-1.0, 0.5, 2.0], np.float32)
        ref = x * (0.5 * (1.0 + self.erf(x / float(np.sqrt(2.0)))))
        np.testing.assert_array_equal(np.array(json.loads(run.stdout), np.float32), ref)
