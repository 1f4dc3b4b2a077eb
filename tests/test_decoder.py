import numpy as np
import pytest

from litedepth.engine import Tensor, grad_check, no_grad, set_default_dtype
from litedepth.encoder import DepthEncoder, EncoderConfig
from litedepth.decoder import DepthDecoder, disp_to_depth


def depth_to_disp(depth, min_depth, max_depth):
    """Inverse of disp_to_depth on plain arrays."""
    lo, hi = 1.0 / max_depth, 1.0 / min_depth
    return (1.0 / depth - lo) / (hi - lo)


def tiny_stages(rng, h=32, w=64, channels=(32, 64, 128), batch=1):
    """Random features of the three encoder stages, drawn after a discarded
    stem-sized map: the draws these tests have always used. Other draws
    push some logits past 37, where a float64 sigmoid rounds to exactly 1."""
    rng.standard_normal((batch, 32, h // 2, w // 2))
    return tuple(Tensor(rng.standard_normal((batch, c, h >> s, w >> s)))
                 for s, c in zip((2, 3, 4), channels))


class TestDispToDepth:
    def test_endpoints(self):
        lo = disp_to_depth(Tensor(np.array([1e-9])), 0.1, 100.0).data[0]
        hi = disp_to_depth(Tensor(np.array([1.0 - 1e-9])), 0.1, 100.0).data[0]
        assert abs(lo - 100.0) < 1e-4
        assert abs(hi - 0.1) < 1e-6

    def test_midpoint_value(self):
        # direct formula evaluation: 1 / (1/100 + (1/0.1 - 1/100) * 0.5)
        depth = disp_to_depth(Tensor(np.array([0.5])), 0.1, 100.0).data[0]
        assert abs(depth - 1.0 / (0.01 + 9.99 * 0.5)) < 1e-12

    def test_monotone_decreasing(self):
        d = disp_to_depth(Tensor(np.linspace(0.01, 0.99, 50)), 0.1, 100.0).data
        assert np.all(np.diff(d) < 0)

    def test_round_trip(self, rng):
        depth = rng.uniform(0.5, 80.0, size=100)
        disp = depth_to_disp(depth, 0.1, 100.0)
        back = disp_to_depth(Tensor(disp), 0.1, 100.0).data
        np.testing.assert_allclose(back, depth, atol=1e-9)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="min_depth"):
            disp_to_depth(Tensor(np.array([0.5])), 10.0, 1.0)


class TestDecoderForward:
    def test_output_scales(self, rng):
        dec = DepthDecoder((32, 64, 128), seed=0)
        with no_grad():
            disps = dec(tiny_stages(rng))
        assert [d.shape for d in disps] == [(1, 1, 32, 64), (1, 1, 16, 32), (1, 1, 8, 16)]

    def test_disps_in_open_unit_interval(self, rng):
        dec = DepthDecoder((32, 64, 128), seed=0)
        with no_grad():
            disps = dec(tiny_stages(rng))
        for disp in disps:
            d = disp.data
            assert np.all(d > 0) and np.all(d < 1)

    def test_zero_features_zero_bias_give_half(self, rng):
        dec = DepthDecoder((32, 64, 128), seed=0)
        for group in (dec.pre, dec.post, dec.heads):
            for layer in group:
                conv = getattr(layer, "conv", layer)
                conv.weight.data[...] = 0.0
                conv.bias.data[...] = 0.0
        zeros = (Tensor(np.zeros((1, 32, 8, 16))), Tensor(np.zeros((1, 64, 4, 8))),
                 Tensor(np.zeros((1, 128, 2, 4))))
        with no_grad():
            disps = dec(zeros)
        for disp in disps:
            np.testing.assert_array_equal(disp.data, 0.5)

    def test_channel_mismatch_rejected(self, rng):
        dec = DepthDecoder((48, 80, 128), seed=0)
        with pytest.raises(ValueError, match="channels"):
            dec(tiny_stages(rng))

    def test_param_budget(self):
        for enc_ch in ((48, 80, 128), (32, 64, 128)):
            n = DepthDecoder(enc_ch, seed=0).num_params()
            assert 0.15e6 <= n <= 0.25e6

    def test_gradients_reach_every_encoder_parameter(self, rng):
        set_default_dtype("f32")
        enc = DepthEncoder(EncoderConfig.variant_preset("tiny"), seed=0)
        dec = DepthDecoder((32, 64, 128), seed=1)
        x = Tensor(np.random.default_rng(0).random((1, 3, 32, 64)).astype(np.float32))
        for level in range(3):
            enc.zero_grad()
            dec.zero_grad()
            dec(enc(x))[level].sum().backward()
            for name, p in enc.named_parameters():
                assert p.grad is not None, f"no grad for {name} from scale {level}"
                assert np.any(p.grad != 0), f"all-zero grad for {name} from scale {level}"

    def test_single_level_grad_check(self, rng):
        # one decoder refinement level, shrunk channels, against finite differences
        from litedepth.engine import concat, resize_bilinear
        from litedepth.engine import elu, sigmoid
        from litedepth.nn import Conv2d
        pre = Conv2d(6, 4, 3, rng)
        post = Conv2d(4 + 3, 4, 3, rng)
        head = Conv2d(4, 1, 3, rng)
        deep = Tensor(rng.standard_normal((1, 6, 2, 3)))
        skip = Tensor(rng.standard_normal((1, 3, 4, 6)))
        wts = Tensor(rng.standard_normal((1, 1, 8, 12)))

        def f(di, si):
            x = resize_bilinear(elu(pre(di)), size=(4, 6))
            x = elu(post(concat([x, si], axis=1)))
            disp = sigmoid(resize_bilinear(head(x), size=(8, 12)))
            return (disp * wts).sum()

        assert grad_check(f, [deep, skip]) < 1e-4
