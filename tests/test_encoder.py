import tracemalloc

import numpy as np
import pytest

from litedepth.engine import (
    Tensor, avg_pool, concat, default_dtype, grad_check, no_grad, recompute,
    set_default_dtype, using_dtype,
)
from litedepth.encoder import (
    AttentionBlock, DepthEncoder, DilatedConvBlock, EncoderConfig,
    count_flops, count_params, xca_attention,
)
from litedepth.nn import ConvBnGelu, Module


def xca_oracle(q, k, v, heads, temps=None):
    """Independent dense evaluation of the channel-attention definition on
    one (N_tok, d) batch item."""
    n, d = q.shape
    dh = d // heads
    out = np.zeros_like(v)
    for h in range(heads):
        qh = q[:, h * dh:(h + 1) * dh].copy()
        kh = k[:, h * dh:(h + 1) * dh].copy()
        vh = v[:, h * dh:(h + 1) * dh]
        qh /= np.sqrt((qh ** 2).sum(axis=0, keepdims=True) + 1e-12)
        kh /= np.sqrt((kh ** 2).sum(axis=0, keepdims=True) + 1e-12)
        logits = kh.T @ qh
        if temps is not None:
            logits = logits * temps[h]
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        attn = e / e.sum(axis=0, keepdims=True)   # each column sums to 1
        out[:, h * dh:(h + 1) * dh] = vh @ attn
    return out


class TestConfig:
    @pytest.mark.parametrize("variant,channels,repeats,stage3", [
        ("tiny", (32, 32, 64, 128), (3, 3, 6), [1, 2, 3, 2, 4, 6]),
        ("small", (48, 48, 80, 128), (3, 3, 6), [1, 2, 3, 2, 4, 6]),
        ("base", (48, 48, 80, 128), (3, 3, 9), [1, 2, 3, 1, 2, 3, 2, 4, 6]),
    ])
    def test_variant_presets(self, variant, channels, repeats, stage3):
        cfg = EncoderConfig.variant_preset(variant)
        assert cfg.channels == channels
        assert tuple(len(cfg.dilation_schedule[s]) for s in range(3)) == repeats
        assert cfg.dilation_schedule[0] == [1, 2, 3]
        assert cfg.dilation_schedule[1] == [1, 2, 3]
        assert cfg.dilation_schedule[2] == stage3

    def test_empty_stage_rejected(self):
        cfg = EncoderConfig.variant_preset("tiny")
        cfg.dilation_schedule = ([1, 2], [], [1, 2, 3, 2, 4, 6])
        with pytest.raises(ValueError, match="dilation_schedule: stage 2 has no blocks"):
            cfg.validate()

    def test_schedule_alone_sets_stage_depths(self):
        cfg = EncoderConfig.variant_preset("tiny", dilation_schedule=([1, 2], [1], [1, 2, 5]))
        enc = DepthEncoder(cfg)
        assert [sum(isinstance(b, DilatedConvBlock) for b in stage)
                for stage in enc.stages] == [2, 1, 3]

    def test_heads_divisibility_enforced(self):
        with pytest.raises(ValueError, match="heads"):
            EncoderConfig.variant_preset("tiny", heads=(5, 4, 8))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            EncoderConfig.variant_preset("huge")

    def test_dilation_ablation_forces_unit_rates(self):
        # the ablation grid's no_dilation row: an all-ones schedule
        cfg = EncoderConfig.variant_preset("base", dilation_schedule=([1] * 3, [1] * 3, [1] * 9))
        enc = DepthEncoder(cfg)
        blocks = [b for stage in enc.stages for b in stage if isinstance(b, DilatedConvBlock)]
        assert len(blocks) == 15
        assert {b.dilation for b in blocks} == {1}


class TestChannelAttention:
    def test_single_channel_single_head_returns_v(self, rng):
        q, k, v = (Tensor(rng.standard_normal((1, 10, 1))) for _ in range(3))
        out = xca_attention(q, k, v, heads=1)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_shapes_and_buffer_size(self, rng, attention_sizes):
        q, k, v = (Tensor(rng.standard_normal((1, 100, 64))) for _ in range(3))
        out = xca_attention(q, k, v, heads=4)
        assert out.shape == (1, 100, 64)
        assert attention_sizes == [4 * 16 * 16]

    def test_single_token_matches_direct_oracle(self, rng):
        q, k, v = (rng.standard_normal((1, 1, 8)) for _ in range(3))
        out = xca_attention(Tensor(q), Tensor(k), Tensor(v), heads=2)
        np.testing.assert_allclose(out.data[0], xca_oracle(q[0], k[0], v[0], 2),
                                   atol=1e-12)

    @pytest.mark.parametrize("with_temperature", [True, False])
    def test_matches_oracle_on_random_inputs(self, with_temperature, rng):
        for _ in range(5):
            q, k, v = (rng.standard_normal((1, 12, 8)) for _ in range(3))
            temps = rng.uniform(0.5, 2.0, size=2) if with_temperature else None
            out = xca_attention(Tensor(q), Tensor(k), Tensor(v), heads=2,
                                temperature=None if temps is None else Tensor(temps))
            ref = xca_oracle(q[0], k[0], v[0], 2, temps)
            np.testing.assert_allclose(out.data[0], ref, atol=1e-10)

    def test_mixing_weights_sum_to_one_per_output_channel(self, rng):
        # with constant-per-channel V, each output channel is the same convex
        # mixture of the channel constants, so outputs stay in their hull
        consts = rng.standard_normal(6)
        v = np.tile(consts, (1, 20, 1))
        q, k = rng.standard_normal((2, 1, 20, 6))
        out = xca_attention(Tensor(q), Tensor(k), Tensor(v), heads=1).data
        assert out.min() >= consts.min() - 1e-6
        assert out.max() <= consts.max() + 1e-6
        # and an all-ones V must map to exactly ones (weights sum to 1)
        ones = xca_attention(Tensor(q), Tensor(k), Tensor(np.ones((1, 20, 6))),
                             heads=1).data
        np.testing.assert_allclose(ones, 1.0, atol=1e-6)

    def test_buffer_constant_in_token_count(self, rng, attention_sizes):
        for n_tok in (64, 256, 1024):
            q, k, v = (Tensor(rng.standard_normal((1, n_tok, 32))) for _ in range(3))
            xca_attention(q, k, v, heads=4)
        assert attention_sizes == [4 * 8 * 8] * 3

    def test_spatial_probe_scales_quadratically(self, rng, attention_sizes,
                                                spatial_attention_probe):
        for n_tok in (16, 32, 64):
            q, k, v = (Tensor(rng.standard_normal((1, n_tok, 8))) for _ in range(3))
            spatial_attention_probe(q, k, v, heads=2)
        # heads * N^2 elements per batch item
        assert attention_sizes == [2 * 16 * 16, 2 * 32 * 32, 2 * 64 * 64]

    def test_indivisible_heads_rejected(self, rng):
        q = Tensor(rng.standard_normal((1, 4, 6)))
        with pytest.raises(ValueError, match="heads"):
            xca_attention(q, q, q, heads=4)

    def test_grad_check(self, rng):
        q, k, v = (Tensor(rng.standard_normal((1, 5, 4))) for _ in range(3))
        t = Tensor(np.ones(2))
        wts = Tensor(rng.standard_normal((1, 5, 4)))

        def f(qi, ki, vi, ti):
            return (xca_attention(qi, ki, vi, 2, ti) * wts).sum()

        assert grad_check(f, [q, k, v, t]) < 1e-4


class TestDilatedConvBlock:
    def test_zero_projection_makes_identity(self, rng):
        block = DilatedConvBlock(8, dilation=2, rng=rng)
        block.project.weight.data[...] = 0.0
        x = Tensor(np.random.default_rng(0).standard_normal((2, 8, 6, 6)))
        np.testing.assert_array_equal(block(x).data, x.data)

    @pytest.mark.parametrize("r", [1, 2, 3, 6])
    def test_shape_preserving(self, r, rng):
        block = DilatedConvBlock(8, dilation=r, rng=rng)
        x = Tensor(np.random.default_rng(0).standard_normal((1, 8, 12, 12)))
        assert block(x).shape == x.shape

    @pytest.mark.parametrize("r,support", [(1, 3), (3, 7)])
    def test_depthwise_impulse_support(self, r, support, rng):
        from litedepth.engine import conv2d
        block = DilatedConvBlock(1, dilation=r, rng=rng)
        block.dwconv.weight.data[...] = 1.0
        x = np.zeros((1, 1, 15, 15))
        x[0, 0, 7, 7] = 1.0
        out = conv2d(Tensor(x), block.dwconv.weight, None, block.dwconv.spec).data[0, 0]
        rows = np.nonzero(out.sum(axis=1))[0]
        assert rows.max() - rows.min() + 1 == support

    def test_grad_check_small_block(self, rng):
        block = DilatedConvBlock(4, dilation=2, rng=rng, expansion=2)
        x = Tensor(rng.standard_normal((1, 4, 4, 4)))
        wts = Tensor(rng.standard_normal((1, 4, 4, 4)))

        def f(xi, wi, bi):
            block.expand.weight, block.expand.bias = wi, bi
            return (block(xi) * wts).sum()

        w0 = Tensor(block.expand.weight.data.copy())
        b0 = Tensor(block.expand.bias.data.copy())
        assert grad_check(f, [x, w0, b0]) < 1e-4


class TestAttentionBlock:
    def test_shape_preserved(self, rng):
        block = AttentionBlock(48, heads=4, rng=rng)
        x = Tensor(np.random.default_rng(0).standard_normal((1, 48, 8, 8)))
        assert block(x).shape == (1, 48, 8, 8)

    def test_zero_qk_and_projections_bounded_perturbation(self, rng):
        block = AttentionBlock(8, heads=2, rng=rng)
        block.wq.weight.data[...] = 0.0
        block.wk.weight.data[...] = 0.0
        block.project.weight.data[...] = 0.0     # feed-forward output path off
        block.project.bias.data[...] = 0.0
        x = Tensor(np.random.default_rng(0).standard_normal((1, 8, 4, 4)))
        out = block(x)
        diff = out.data - x.data
        assert np.abs(diff).max() > 0          # attention still mixes V
        assert np.isfinite(diff).all()
        # the perturbation is the projected attention output, so it is
        # bounded by the norms of the value path
        assert np.abs(diff).max() < 10 * np.abs(x.data).max()

    def test_zero_value_path_gives_exact_identity(self, rng):
        block = AttentionBlock(8, heads=2, rng=rng)
        block.wq.weight.data[...] = 0.0
        block.wk.weight.data[...] = 0.0
        block.wv.weight.data[...] = 0.0
        for layer in (block.attn_proj, block.project):
            layer.weight.data[...] = 0.0
            layer.bias.data[...] = 0.0
        x = Tensor(np.random.default_rng(0).standard_normal((1, 8, 4, 4)))
        np.testing.assert_array_equal(block(x).data, x.data)

    def test_memory_probe_constant_at_fixed_channels(self, rng, attention_sizes):
        block = AttentionBlock(16, heads=4, rng=rng)
        for hw in ((8, 8), (16, 16), (32, 32)):
            x = Tensor(np.random.default_rng(0).standard_normal((1, 16, *hw)))
            block(x)
        assert attention_sizes == [4 * 4 * 4] * 3

    def test_grad_check_small_block(self, rng):
        block = AttentionBlock(4, heads=2, rng=rng, expansion=2)
        x = Tensor(rng.standard_normal((1, 4, 3, 3)))
        wts = Tensor(rng.standard_normal((1, 4, 3, 3)))

        def f(xi):
            return (block(xi) * wts).sum()

        assert grad_check(f, [x]) < 1e-4

    def test_train_call_is_one_node_over_tokens_and_own_parameters(self, rng, monkeypatch):
        # nothing outside the block reads its tokens or the attended tokens
        # between its two halves, so one node holds both residual adds
        from litedepth import encoder
        nodes = []

        def record(fn, *inputs, params=()):
            out = recompute(fn, *inputs, params=params)
            nodes.append(out[0])
            return out

        monkeypatch.setattr(encoder, "recompute", record)
        block = AttentionBlock(8, heads=2, rng=rng).train()
        x = Tensor(rng.standard_normal((2, 8, 3, 5)), requires_grad=True)
        out = block(x)
        assert len(nodes) == 1
        tokens, *params = nodes[0]._parents
        assert tokens.shape == (2, 15, 8)
        np.testing.assert_array_equal(tokens.data, x.data.reshape(2, 8, 15).transpose(0, 2, 1))
        own = list(block.parameters())
        assert len(own) == len(params) == 12
        assert all(p is q for p, q in zip(params, own))
        # the block's output is that node's, reshaped back to the map
        assert out._parents[0]._parents[0] is nodes[0]


class _StageEntry(Module):
    """A stage's first dilated block, whose input the next downsampling also
    reads as its carry: that input sums three gradient terms, one of them a
    `recompute` node's."""

    def __init__(self, rng):
        super().__init__()
        self.block = DilatedConvBlock(8, 2, rng)
        self.down = ConvBnGelu(16, 8, rng, stride=2)

    def __call__(self, x):
        return self.down(concat([self.block(x), x], axis=1))


class TestFeedForwardNode:
    """Each conv block and each attention block as one `recompute` node
    against the same block run as a plain graph."""

    BLOCKS = {
        "conv-bn-gelu": lambda rng: ConvBnGelu(8, 8, rng, stride=2),
        # a ConvBnGelu on an input that needs no gradient, as the stem reads
        # the image: only its parameters make the node
        "stem": lambda rng: ConvBnGelu(8, 8, rng, stride=2),
        "dilated": lambda rng: DilatedConvBlock(8, 2, rng),
        "stage-entry": _StageEntry,
        "attention": lambda rng: AttentionBlock(8, 2, rng),
    }

    @pytest.mark.parametrize("default", ["f32", "f64"])
    @pytest.mark.parametrize("kind", list(BLOCKS))
    # a random upstream with a column of -0, or -0 everywhere, where every
    # gradient is a signed zero
    @pytest.mark.parametrize("upstream", ["random", "zero"])
    def test_matches_plain_graph_bit_for_bit(self, default, kind, upstream, monkeypatch,
                                             plain_graph, assert_same_bits):
        # batch norm's running statistics are compared after the forward and
        # after the backward, so an update from a re-run, or a second one,
        # shows
        results = []
        for plain in (False, True):
            with using_dtype(default), monkeypatch.context() as patch:
                if plain:
                    plain_graph(patch)
                rng = np.random.default_rng(7)
                block = self.BLOCKS[kind](rng).train()
                # nonzero biases and norm parameters, so every input matters
                for p in block.parameters():
                    p.data[...] = rng.standard_normal(p.shape) * 0.5
                dt = default_dtype()
                x = Tensor(rng.standard_normal((2, 8, 5, 7)).astype(dt),
                           requires_grad=kind != "stem")
                out = block(x)
                after_forward = [b.copy() for _, b in block.named_buffers()]
                g = rng.standard_normal(out.shape).astype(dt)
                g[..., 0] = -0.0
                if upstream == "zero":
                    g[...] = -0.0
                (out * Tensor(g)).sum().backward()
                results.append([out.data, x.grad]
                               + [p.grad for p in block.parameters()]
                               + after_forward + [b for _, b in block.named_buffers()])
        assert len(results[0]) == len(results[1])
        for new, old in zip(*results):
            assert_same_bits(new, old)

    def test_forward_left_alive_is_bounded(self):
        # What one tiny encoder forward leaves alive for backward on a 64x32
        # batch-4 f32 frame: 2.3 MiB with each conv block and each attention
        # block one recompute node, 2.4 MiB when each attention half was its
        # own node, against 3.9 MiB when the attention halves were plain
        # graphs, 6.4 MiB when each conv block's batch norm and the
        # stem and downsampling blocks were too, and 13.8 MiB when the graph
        # also kept each feed-forward's two 6C-wide maps. The bound is 25%
        # above the two-node 2.4 MiB.
        with using_dtype("f32"):
            enc = DepthEncoder(EncoderConfig.variant_preset("tiny"), seed=0).train()
            image = Tensor(np.random.default_rng(0).random((4, 3, 32, 64), dtype=np.float32))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                features = enc(image)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert all(f.requires_grad for f in features)
        assert held <= 3.0 * 2 ** 20


def run_stem(enc, x):
    for conv in enc.stem:
        x = conv(x)
    return x


class TestEncoderForward:
    def test_tiny_smoke_output_sizes(self, rng):
        enc = DepthEncoder(EncoderConfig.variant_preset("tiny"), seed=0)
        x = Tensor(np.random.default_rng(0).random((1, 3, 32, 64)))
        with no_grad():
            stem = run_stem(enc, x)
            stages = enc(x)
        assert stem.shape == (1, 32, 16, 32)
        assert [s.shape for s in stages] == [(1, 32, 8, 16), (1, 64, 4, 8), (1, 128, 2, 4)]

    def test_base_full_resolution_table_sizes(self):
        set_default_dtype("f32")
        enc = DepthEncoder(EncoderConfig.variant_preset("base"), seed=0)
        x = Tensor(np.random.default_rng(0).random((1, 3, 192, 640)).astype(np.float32))
        with no_grad():
            stem = run_stem(enc, x)
            stages = enc(x)
        assert stem.shape == (1, 48, 96, 320)
        assert [s.shape for s in stages] == [(1, 48, 48, 160), (1, 80, 24, 80),
                                             (1, 128, 12, 40)]

    def test_indivisible_input_rejected_before_compute(self, rng):
        enc = DepthEncoder(EncoderConfig.variant_preset("tiny"), seed=0)
        with pytest.raises(ValueError, match="divisible by 32"):
            enc(Tensor(np.zeros((1, 3, 30, 64))))

    def test_zeroed_blocks_degenerate_to_stem_downsample_chain(self, rng):
        enc = DepthEncoder(EncoderConfig.variant_preset("tiny"), seed=3)
        for blocks in enc.stages:
            for block in blocks:
                block.project.weight.data[...] = 0.0
                if isinstance(block, AttentionBlock):
                    block.attn_proj.weight.data[...] = 0.0
        enc.eval()
        x = Tensor(np.random.default_rng(0).random((1, 3, 32, 64)))
        with no_grad():
            stages = enc(x)
            # manual stem + downsample chain with the same weights
            pooled = []
            p = x
            for _ in range(3):
                p = avg_pool(p)
                pooled.append(p)
            y = run_stem(enc, x)
            d1 = enc.down[0](concat([y, pooled[0]], axis=1))
            d2 = enc.down[1](concat([d1, pooled[1], d1], axis=1))
            d3 = enc.down[2](concat([d2, pooled[2], d2], axis=1))
        for got, want in zip(stages, (d1, d2, d3)):
            np.testing.assert_array_equal(got.data, want.data)

    def test_ablations_shrink_downsample_inputs(self):
        full = DepthEncoder(EncoderConfig.variant_preset("tiny"), seed=0)
        lean = DepthEncoder(EncoderConfig.variant_preset(
            "tiny", use_pooled_concat=False), seed=0)
        assert lean.down[0].conv.weight.shape[1] == \
            full.down[0].conv.weight.shape[1] - 3

    def test_forward_runs_without_pooled_or_cross_stage(self, rng):
        cfg = EncoderConfig.variant_preset(
            "tiny", use_pooled_concat=False, use_cross_stage=False, use_lgfi=False)
        enc = DepthEncoder(cfg, seed=0)
        with no_grad():
            stages = enc(Tensor(np.random.default_rng(0).random((1, 3, 32, 32))))
        assert stages[2].shape == (1, 128, 2, 2)


class TestBudgets:
    @pytest.mark.parametrize("variant,target", [
        ("tiny", 2.0e6), ("small", 2.3e6), ("base", 2.9e6),
    ])
    def test_param_budgets_within_ten_percent(self, variant, target):
        p = count_params(EncoderConfig.variant_preset(variant))
        assert abs(p - target) / target < 0.10

    def test_param_count_deterministic(self):
        cfg = EncoderConfig.variant_preset("small")
        assert count_params(cfg) == count_params(cfg)

    def test_lgfi_ablation_budget(self):
        delta = (count_params(EncoderConfig.variant_preset("base"))
                 - count_params(EncoderConfig.variant_preset("base", use_lgfi=False)))
        assert 0.3e6 <= delta <= 0.5e6

    def test_base_flop_budget(self):
        macs = count_flops(EncoderConfig.variant_preset("base"), (640, 192))
        assert abs(macs - 4.4e9) / 4.4e9 < 0.15

    def test_conv_flops_double_with_input_area(self):
        cfg = EncoderConfig.variant_preset("tiny", use_lgfi=False)
        m1 = count_flops(cfg, (64, 32))
        m2 = count_flops(cfg, (128, 32))
        # pure conv stacks are linear in pixel count
        assert m2 == 2 * m1
