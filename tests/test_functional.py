import numpy as np
import pytest

from litedepth.engine import (
    ConvSpec, Tensor, avg_pool, batch_norm, bilinear_sample, conv2d, elu,
    gelu, grad_check, layer_norm, resize_bilinear, same_padding,
    sigmoid, softmax,
)


def dilated_conv_1d_oracle(x, w, r):
    """Brute-force dilated convolution with taps at i + r*k, k = 1..K,
    zero-padded outside the signal."""
    x = list(x)
    out = []
    for i in range(len(x)):
        acc = 0.0
        for k in range(1, len(w) + 1):
            j = i + r * k
            acc += (x[j] if j < len(x) else 0.0) * w[k - 1]
        out.append(acc)
    return np.array(out)


def conv_as_1d(x, w, r):
    """Run conv2d on a 1xK row kernel with right-only zero padding so that
    output position i sees taps x[i], x[i+r], x[i+2r], ..."""
    k = len(w)
    xt = Tensor(np.asarray(x, dtype=np.float64).reshape(1, 1, 1, -1))
    wt = Tensor(np.asarray(w, dtype=np.float64).reshape(1, 1, 1, k))
    spec = ConvSpec(kernel=(1, k), padding=(0, 0, 0, r * k), dilation=r)
    return conv2d(xt, wt, None, spec).data.reshape(-1)


class TestConv2d:
    def test_1d_dilated_oracle_value(self):
        # y[0] = x[2] + x[4] + pad = 3 + 5 + 0 = 8 with r=2, w=[1,1,1]
        y = dilated_conv_1d_oracle([1, 2, 3, 4, 5], [1, 1, 1], r=2)
        assert y[0] == 8.0

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_conv2d_matches_1d_oracle_up_to_tap_origin(self, r, rng):
        x = rng.standard_normal(11)
        w = rng.standard_normal(3)
        oracle = dilated_conv_1d_oracle(x, w, r)
        ours = conv_as_1d(x, w, r)
        # the oracle's first tap sits r steps ahead of conv2d's
        np.testing.assert_allclose(ours[r:11], oracle[: 11 - r], atol=1e-12)

    def test_identity_pointwise_kernel(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 4)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        out = conv2d(x, w, None, ConvSpec(kernel=(1, 1)))
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("r,support", [(1, 3), (2, 5)])
    def test_impulse_response_support(self, r, support):
        # receptive field of a 3x3 kernel is 3 (r=1) vs 5 (r=2) per axis
        x = np.zeros((1, 1, 11, 11))
        x[0, 0, 5, 5] = 1.0
        w = Tensor(np.ones((1, 1, 3, 3)))
        spec = ConvSpec(kernel=(3, 3), padding=same_padding(3, r), dilation=r)
        out = conv2d(Tensor(x), w, None, spec).data[0, 0]
        rows = np.nonzero(out.sum(axis=1))[0]
        cols = np.nonzero(out.sum(axis=0))[0]
        assert rows.max() - rows.min() + 1 == support
        assert cols.max() - cols.min() + 1 == support

    def test_matches_naive_seven_loop_reference(self, rng):
        n, cin, cout, h, w, k = 2, 4, 3, 9, 9, 3
        # dyadic-rational values keep every product and partial sum exactly
        # representable, so the equality is bit-exact regardless of the
        # summation order and any indexing bug shows up undamped
        x = rng.integers(-64, 64, size=(n, cin, h, w)) / 8.0
        wt = rng.integers(-64, 64, size=(cout, cin, k, k)) / 8.0
        b = rng.integers(-64, 64, size=cout) / 8.0
        out = conv2d(Tensor(x), Tensor(wt), Tensor(b),
                     ConvSpec(kernel=(k, k))).data
        ho, wo = h - k + 1, w - k + 1
        ref = np.zeros((n, cout, ho, wo))
        for ni in range(n):
            for oc in range(cout):
                for ic in range(cin):
                    for i in range(ho):
                        for j in range(wo):
                            for ki in range(k):
                                for kj in range(k):
                                    ref[ni, oc, i, j] += (
                                        x[ni, ic, i + ki, j + kj] * wt[oc, ic, ki, kj])
                ref[ni, oc] += b[oc]
        np.testing.assert_array_equal(out, ref)

    def test_depthwise_equals_per_channel_conv(self, rng):
        x = rng.standard_normal((1, 3, 6, 6))
        w = rng.standard_normal((3, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), None,
                     ConvSpec(kernel=(3, 3), groups=3)).data
        for c in range(3):
            ref = conv2d(Tensor(x[:, c: c + 1]), Tensor(w[c: c + 1]), None,
                         ConvSpec(kernel=(3, 3))).data
            np.testing.assert_allclose(out[:, c: c + 1], ref, atol=1e-12)

    def test_group_mismatch_error_names_axis(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        with pytest.raises(ValueError, match="channel axis"):
            conv2d(x, w, None, ConvSpec(kernel=(3, 3), groups=2))

    def test_nonpositive_output_size_error(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="output size"):
            conv2d(x, w, None, ConvSpec(kernel=(3, 3)))

    @pytest.mark.parametrize("groups,dilation,stride", [(1, 1, 1), (1, 2, 1), (2, 1, 2), (4, 2, 1)])
    def test_grad_check(self, groups, dilation, stride, rng):
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        w = Tensor(rng.standard_normal((4, 4 // groups, 3, 3)))
        b = Tensor(rng.standard_normal(4))
        spec = ConvSpec(kernel=(3, 3), stride=stride,
                        padding=same_padding(3, dilation),
                        dilation=dilation, groups=groups)

        def f(xi, wi, bi):
            out = conv2d(xi, wi, bi, spec)
            return (out * out).sum()

        assert grad_check(f, [x, w, b]) < 1e-4


class TestAvgPool:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.5))
        out = avg_pool(x, (2, 2))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.5))

    def test_four_pixel_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert avg_pool(x, (2, 2)).data.reshape(()) == 2.5

    def test_stride_two_halves_even_sizes(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 6)))
        assert avg_pool(x, (2, 2)).shape == (2, 3, 4, 3)

    def test_window_exceeding_extent_rejected(self):
        with pytest.raises(ValueError, match="window"):
            avg_pool(Tensor(np.zeros((1, 1, 2, 2))), (3, 3))

    def test_grad_check(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        assert grad_check(lambda a: (avg_pool(a, (2, 2)) ** 2.0).sum(), [x]) < 1e-4


def bilinear_resize_oracle(img, ho, wo):
    """Direct half-pixel bilinear interpolation, one output pixel at a time."""
    h, w = img.shape
    out = np.zeros((ho, wo))
    for i in range(ho):
        for j in range(wo):
            sy = min(max((i + 0.5) * h / ho - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) * w / wo - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (img[y0, x0] * (1 - fy) * (1 - fx)
                         + img[y0, x1] * (1 - fy) * fx
                         + img[y1, x0] * fy * (1 - fx)
                         + img[y1, x1] * fy * fx)
    return out


class TestResizeBilinear:
    def test_unit_scale_is_bit_identical(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        assert resize_bilinear(x, scale=1.0) is x

    def test_constant_image_stays_constant(self):
        x = Tensor(np.full((1, 2, 3, 5), 0.7))
        out = resize_bilinear(x, scale=2.0)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-12)

    def test_checkerboard_matches_direct_oracle(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = resize_bilinear(Tensor(img.reshape(1, 1, 2, 2)), scale=2.0)
        np.testing.assert_allclose(out.data[0, 0], bilinear_resize_oracle(img, 4, 4),
                                   atol=1e-12)

    def test_random_sizes_match_oracle(self, rng):
        img = rng.standard_normal((3, 5))
        out = resize_bilinear(Tensor(img.reshape(1, 1, 3, 5)), size=(7, 4))
        np.testing.assert_allclose(out.data[0, 0], bilinear_resize_oracle(img, 7, 4),
                                   atol=1e-12)

    def test_up_down_roundtrip_exact_on_constants(self):
        x = Tensor(np.full((1, 1, 4, 4), 2.25))
        back = resize_bilinear(resize_bilinear(x, scale=2.0), scale=0.5)
        np.testing.assert_array_equal(back.data, x.data)

    def test_grad_check(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 4)))
        assert grad_check(lambda a: (resize_bilinear(a, scale=2.0) ** 2.0).sum(),
                          [x]) < 1e-4
        assert grad_check(lambda a: (resize_bilinear(a, size=(2, 2)) ** 2.0).sum(),
                          [x]) < 1e-4


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

    def test_grad_wrt_coords_and_source(self, rng):
        src = Tensor(rng.standard_normal((1, 2, 5, 5)))
        # interior, non-integer coordinates keep the sampler away from kinks
        coords = Tensor(rng.uniform(0.3, 3.4, size=(1, 3, 3, 2)))

        def f(s, c):
            return (bilinear_sample(s, c) ** 2.0).sum()

        assert grad_check(f, [src, coords]) < 1e-4


class TestNormalize:
    def test_layer_norm_constant_input_zeros_before_shift(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-6)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_layer_norm_two_points(self):
        x = Tensor(np.array([[1.0, 3.0]]))
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_layer_norm_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="zero-size"):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)),
                       Tensor(np.zeros(0)))

    def test_batch_norm_momentum_one_freezes_batch_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 5, 5)))
        scale, shift = Tensor(np.ones(3)), Tensor(np.zeros(3))
        rm, rv = np.zeros(3), np.ones(3)
        train_out = batch_norm(x, scale, shift, rm, rv, training=True, momentum=1.0)
        eval_out = batch_norm(x, scale, shift, rm, rv, training=False)
        np.testing.assert_allclose(eval_out.data, train_out.data, atol=1e-12)

    def test_batch_norm_normalizes(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 4, 4)) * 3 + 1)
        out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         np.zeros(2), np.ones(2), training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_grad_checks(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        s, b = Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3))
        # a fixed random weighting keeps the loss sensitive to the input;
        # sums of squares of normalized outputs are constant up to O(eps)
        # and would starve the finite differences of signal
        wq = Tensor(rng.standard_normal((2, 3, 4, 4)))

        def f_bn(xi, si, bi):
            out = batch_norm(xi, si, bi, np.zeros(3), np.ones(3), training=True)
            return (out * wq).sum()

        assert grad_check(f_bn, [x, s, b]) < 1e-4

        xt = Tensor(rng.standard_normal((3, 5)))
        s5, b5 = Tensor(rng.standard_normal(5)), Tensor(rng.standard_normal(5))
        wt = Tensor(rng.standard_normal((3, 5)))
        assert grad_check(lambda a, c, d: (layer_norm(a, c, d) * wt).sum(),
                          [xt, s5, b5]) < 1e-4


class TestActivations:
    def test_gelu_at_zero(self):
        assert gelu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(np.array([0.0]))).data[0] == 0.5

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
            h = conv2d(xi, wi, None, ConvSpec(kernel=(3, 3), padding=1))
            h = batch_norm(h, si, bi, np.zeros(3), np.ones(3), training=True)
            return gelu(h).sum()

        assert grad_check(f, [x, w, s, b]) < 1e-4
