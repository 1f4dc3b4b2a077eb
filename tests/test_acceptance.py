"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured value against its pinned tolerance."""

import numpy as np
import pytest

from litedepth.config import TrainConfig
from litedepth.data import SyntheticSource, generate_synthetic_sequence
from litedepth.decoder import DepthDecoder
from litedepth.encoder import (
    EncoderConfig, count_flops, count_params, xca_attention,
)
from litedepth.engine import Tensor, no_grad, using_dtype
from litedepth.losses import (
    LossConfig, min_reprojection, photometric_loss, smoothness, ssim,
)
from litedepth.metrics import METRIC_COLUMNS, depth_metrics
from litedepth.posenet import pose_to_matrix, rotation_from_axis_angle
from litedepth.trainer import (
    AdamW, build_models, checkpoint_entries, evaluate, load_checkpoint, restore_checkpoint,
    save_checkpoint, saved_config_text, train,
)
from litedepth.warp import CameraIntrinsics, backproject, project, synthesize

from test_metrics import metrics_oracle


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


class TestCriterion01ParameterBudgets:
    def test_budgets(self):
        rows = []
        for variant, enc_ref, full_ref in (("tiny", 2.0e6, 2.2e6),
                                           ("small", 2.3e6, 2.5e6),
                                           ("base", 2.9e6, 3.1e6)):
            cfg = EncoderConfig.variant_preset(variant)
            enc = count_params(cfg)
            dec = DepthDecoder(cfg.channels[1:], seed=0).num_params()
            assert abs(enc - enc_ref) / enc_ref < 0.10, variant
            assert 0.15e6 <= dec <= 0.25e6, variant
            assert abs((enc + dec) - full_ref) / full_ref < 0.10, variant
            rows.append(f"{variant} enc {enc / 1e6:.2f}M dec {dec / 1e6:.2f}M")
        report("1 parameter budgets", "; ".join(rows))


class TestCriterion02FlopBudget:
    def test_base_encoder_flops(self):
        macs = count_flops(EncoderConfig.variant_preset("base"), (640, 192))
        rel = abs(macs - 4.4e9) / 4.4e9
        assert rel < 0.15
        report("2 flop budget", f"base encoder {macs / 1e9:.2f}G vs 4.4G ({rel:+.1%})")


class TestCriterion03LgfiAblationBudget:
    def test_lgfi_delta(self):
        base = count_params(EncoderConfig.variant_preset("base"))
        ablated = count_params(EncoderConfig.variant_preset("base", use_lgfi=False))
        delta = base - ablated
        assert 0.3e6 <= delta <= 0.5e6
        report("3 attention ablation budget",
               f"delta {delta / 1e6:.3f}M in [0.3M, 0.5M]")


class TestCriterion04GradientSuite:
    def test_every_check_passes(self, kink_margins):
        from litedepth.gradsuite import run_suite
        results = run_suite(seed=0)
        failed = [r for r in results if not r.passed]
        assert not failed, [f"{r.name}: {r.max_rel_err:.2e}" for r in failed]
        # total_loss_8x8 checks the masked objective away from its kinks
        margins = kink_margins()
        worst = max(results, key=lambda r: r.max_rel_err / r.tol)
        report("4 gradient suite",
               f"{len(results)} checks; worst {worst.name} "
               f"{worst.max_rel_err:.2e} (tol {worst.tol:.0e}); total_loss_8x8 "
               f"kept {', '.join(f'{k:.2f}' for k, _ in margins)}, smallest "
               f"margin {min(m for _, m in margins):.2e}")


class TestCriterion05AttentionComplexity:
    def test_channel_buffer_constant_spatial_quadratic(self, rng, attention_sizes,
                                                        spatial_attention_probe):
        d, h = 64, 4
        for n_tok in (64, 256, 1024):
            q, k, v = (Tensor(rng.standard_normal((1, n_tok, d))) for _ in range(3))
            xca_attention(q, k, v, heads=h)
            spatial_attention_probe(q, k, v, heads=h)
        xca_sizes, spatial_sizes = attention_sizes[0::2], attention_sizes[1::2]
        assert xca_sizes[0] == xca_sizes[1] == xca_sizes[2] == h * (d // h) ** 2
        assert spatial_sizes[1] == 16 * spatial_sizes[0]
        assert spatial_sizes[2] == 16 * spatial_sizes[1]
        report("5 attention complexity",
               f"channel buffer {xca_sizes[0]} elements at every N; "
               f"spatial probe {spatial_sizes[0]} -> {spatial_sizes[2]} (N^2)")


class TestCriterion06GeometryIdentities:
    def test_identity_warp(self, rng):
        intr = CameraIntrinsics(20.0, 22.0, 7.5, 5.5, 16, 12)
        img = Tensor(rng.random((1, 3, 12, 16)))
        depth = Tensor(rng.uniform(2.0, 9.0, size=(1, 1, 12, 16)))
        identity = pose_to_matrix(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
        out, _ = synthesize(img, depth, identity, intr)
        err = np.abs(out.data - img.data).max()
        assert err < 1e-6

        pts = backproject(depth, intr)
        coords, _ = project(pts, intr, Tensor(np.eye(4).reshape(1, 4, 4)))
        us, vs = np.meshgrid(np.arange(16.0), np.arange(12.0))
        rt = max(np.abs(coords.data[0, :, :, 0] - us).max(),
                 np.abs(coords.data[0, :, :, 1] - vs).max())
        assert rt < 1e-9

        vecs = rng.standard_normal((1000, 3)) * 2
        rots = rotation_from_axis_angle(Tensor(vecs)).data
        orth = np.abs(rots @ np.swapaxes(rots, 1, 2) - np.eye(3)).max()
        assert orth < 1e-6
        report("6 geometry identities",
               f"identity warp {err:.1e}; roundtrip {rt:.1e}; "
               f"orthonormality {orth:.1e} over 1000 poses")


class TestCriterion07LossIdentities:
    def test_all(self, rng, reconstruction_grad):
        x = Tensor(rng.random((1, 3, 8, 8)))
        ssim_err = np.abs(ssim(x, x).data - 1.0).max()
        assert ssim_err < 1e-6
        assert photometric_loss(x, x, 0.85).data.max() == 0.0

        disp = Tensor(rng.uniform(0.2, 0.8, size=(1, 1, 6, 6)))
        img = Tensor(rng.random((1, 3, 6, 6)))
        base = smoothness(disp, img).data
        np.testing.assert_array_equal(smoothness(disp * 4.0, img).data, base)

        maps = [Tensor(rng.random((1, 1, 5, 5))) for _ in range(3)]
        best = min_reprojection(maps).data
        assert all(np.all(best <= m.data) for m in maps)

        z = Tensor(np.zeros((1, 1, 4, 4)))
        _, grad = reconstruction_grad([z], [z], np.ones((1, 1, 4, 4)))
        assert not grad.any()
        report("7 loss identities",
               f"ssim self-similarity {ssim_err:.1e}; exact smoothness scale "
               "invariance; min below inputs; tie-masked static frames")


class TestCriterion08RendererWarperCrossValidation:
    def test_gt_warp(self, relative_transform, occlusion_boundary_mask):
        seq = generate_synthetic_sequence(7, 6, (128, 64), motion_scale=0.7)
        t, s = 2, 3
        tf = Tensor(relative_transform(seq, t, s)[None])
        errs = {}
        with no_grad():
            for label, scale in (("gt", 1.0), ("double", 2.0)):
                warped, valid = synthesize(
                    Tensor(seq.frames[s][None]),
                    Tensor(scale * seq.depths[t][None, None]), tf, seq.intrinsics)
                err = np.abs(warped.data[0] - seq.frames[t]).mean(axis=0)
                keep = valid[0, 0] & ~occlusion_boundary_mask(seq.depths[t])
                errs[label] = float(err[keep].mean())
        assert errs["gt"] < 0.02
        assert errs["gt"] < errs["double"]
        report("8 renderer/warper cross-validation",
               f"gt warp error {errs['gt']:.4f} < 0.02, doubled depth "
               f"{errs['double']:.4f} strictly worse")


class TestCriterion10AutoMaskMover:
    def test_mover_masked(self, relative_transform, reconstruction_grad):
        seq = generate_synthetic_sequence(11, 6, (128, 64), mover=True)
        t = 2
        tgt = Tensor(seq.frames[t][None])
        unwarped, warped, valid = [], [], []
        with no_grad():
            for s in (t - 1, t + 1):
                out, ok = synthesize(
                    Tensor(seq.frames[s][None]), Tensor(seq.depths[t][None, None]),
                    Tensor(relative_transform(seq, t, s)[None]), seq.intrinsics)
                warped.append(photometric_loss(out, tgt, 0.85))
                unwarped.append(photometric_loss(Tensor(seq.frames[s][None]),
                                                 tgt, 0.85))
                valid.append(ok)
        _, grad = reconstruction_grad(unwarped, warped, np.logical_or.reduce(valid))
        mover = seq.mover_mask[t]
        frac = (grad[0, 0][mover] == 0).mean()
        static_kept = (grad[0, 0][~mover] != 0).mean()
        assert mover.sum() > 100
        assert frac >= 0.90
        assert static_kept > 0.5
        report("10 auto-mask mover",
               f"{frac:.1%} of mover pixels masked out, {static_kept:.1%} of "
               "static pixels trained")


class TestCriterion11MetricsOracle:
    def test_oracle_agreement(self, rng):
        worst = 0.0
        for _ in range(100):
            gt = rng.uniform(0.5, 90.0, size=(6, 7))
            gt[rng.random((6, 7)) < 0.2] = 0.0
            pred = rng.uniform(0.5, 90.0, size=(6, 7))
            ours = depth_metrics(pred, gt, median_scale=False)
            ref = metrics_oracle(pred, gt, median_scale=False)
            for got, want in zip([getattr(ours, c) for c in METRIC_COLUMNS], ref):
                worst = max(worst, abs(got - want))
        assert worst < 1e-9

        gt = rng.uniform(1.0, 40.0, size=(8, 8))
        m = depth_metrics(1.3 * gt, gt, median_scale=False)
        assert abs(m.abs_rel - 0.3) < 1e-12
        assert m.delta1 == 0.0 and m.delta2 == 1.0
        report("11 metrics oracle",
               f"100 random pairs, max deviation {worst:.1e}; "
               "1.3x case abs_rel 0.3, delta1 0, delta2 1")


class TestCriterion12Determinism:
    def test_curves_and_checkpoints(self, tmp_path):
        src = SyntheticSource(seed=5, n_frames=5, size=(64, 32))
        cfg = TrainConfig(batch_size=2, steps=3, lr0=5e-4, seed=1, augment=True)
        tiny = EncoderConfig.variant_preset("tiny")
        a = train(cfg, tiny, src, out_dir=tmp_path / "a")
        b = train(cfg, tiny, src, out_dir=tmp_path / "b")
        assert [r["total"] for r in a.curve] == [r["total"] for r in b.curve]

        p1 = tmp_path / "a" / "checkpoints" / "final.lmck"
        entries = load_checkpoint(p1)
        with using_dtype(cfg.precision):
            models = build_models(tiny, seed=9)
        opt = AdamW(dict(models.named_parameters()))
        restore_checkpoint(entries, models, opt)
        save_checkpoint(tmp_path / "resaved.lmck", checkpoint_entries(
            models, opt, int(entries["meta.epoch"][0]), saved_config_text(entries)))
        assert p1.read_bytes() == (tmp_path / "resaved.lmck").read_bytes()
        report("12 determinism",
               f"{len(a.curve)}-step curves bit-identical; checkpoint "
               "round trip byte-equal")
