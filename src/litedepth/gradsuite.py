"""Finite-difference verification suite over every differentiable op and
the composite blocks, runnable from the CLI and the acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .encoder import AttentionBlock, DilatedConvBlock, xca_attention
from .engine import (
    ConvSpec, Tensor, avg_pool, batch_norm, bilinear_sample, concat, conv2d,
    elu, gelu, grad_check, layer_norm, resize_bilinear, same_padding, sigmoid,
    softmax, using_dtype,
)
from .losses import LossConfig, photometric_loss, smoothness, ssim, total_loss
from .nn import Conv2d
from .posenet import pose_to_matrix, rotation_from_axis_angle
from .warp import CameraIntrinsics, project, synthesize

__all__ = ["CheckResult", "run_suite"]

OP_TOL = 1e-4          # single ops
END_TO_END_TOL = 1e-3  # long composite chains
EPS = 1e-5


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _weighted(rng, shape):
    w = Tensor(rng.standard_normal(shape))
    return lambda out: (out * w).sum()


def _sum_sq(out: Tensor) -> Tensor:
    return (out * out).sum()


def run_suite(seed: int = 0) -> List[CheckResult]:
    """Run every check in 64-bit and return one result per op/block."""
    results: List[CheckResult] = []
    with using_dtype("f64"):
        rng = np.random.default_rng(seed)

        def check(name, f, inputs, tol=OP_TOL):
            results.append(CheckResult(name, grad_check(f, inputs, eps=EPS), tol))

        # ---- primitive ops over random small shapes
        x = Tensor(rng.standard_normal((2, 3)))
        y = Tensor(rng.standard_normal((2, 3)) + 0.2)
        check("add", lambda a, b: (a + b).sum(), [x, y])
        check("mul", lambda a, b: (a * b).sum(), [x, y])
        check("div", lambda a, b: (a / (b * b + 1.0)).sum(), [x, y])
        check("matmul", lambda a, b: (a @ b.transpose(1, 0)).sum(), [x, y])
        check("exp", lambda a: a.exp().sum(), [Tensor(rng.standard_normal((3, 3)))])
        check("log", lambda a: (a * a + 1.0).log().sum(),
              [Tensor(rng.standard_normal((3, 3)))])
        check("sqrt", lambda a: (a * a + 1.0).sqrt().sum(),
              [Tensor(rng.standard_normal((3, 3)))])

        xc = Tensor(rng.standard_normal((1, 4, 6, 6)))
        wc = Tensor(rng.standard_normal((4, 4, 3, 3)) * 0.3)
        bc = Tensor(rng.standard_normal(4) * 0.1)
        check("conv2d", lambda a, w, b: _sum_sq(conv2d(a, w, b, ConvSpec(padding=1))),
              [xc, wc, bc])
        wd = Tensor(rng.standard_normal((4, 1, 3, 3)) * 0.3)
        check("conv2d_depthwise_dilated", lambda a, w: _sum_sq(conv2d(
            a, w, None, ConvSpec(padding=same_padding(3, 2), dilation=2, groups=4))),
              [xc, wd])
        check("avg_pool", lambda a: _sum_sq(avg_pool(a)), [xc])
        check("resize_bilinear", lambda a: _sum_sq(resize_bilinear(a, size=(6, 8))),
              [Tensor(rng.standard_normal((1, 2, 3, 4)))])

        src = Tensor(rng.standard_normal((1, 2, 5, 5)))
        coords = Tensor(rng.uniform(0.3, 3.4, size=(1, 3, 3, 2)))
        check("bilinear_sample", lambda s, c: _sum_sq(bilinear_sample(s, c)),
              [src, coords])

        xb = Tensor(rng.standard_normal((2, 3, 4, 4)))
        sb, bb = Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3))
        wt = _weighted(rng, (2, 3, 4, 4))
        check("batch_norm", lambda a, s, b: wt(batch_norm(a, s, b)[0]), [xb, sb, bb])
        xl = Tensor(rng.standard_normal((3, 5)))
        sl, bl = Tensor(rng.standard_normal(5)), Tensor(rng.standard_normal(5))
        wl = _weighted(rng, (3, 5))
        check("layer_norm", lambda a, s, b: wl(layer_norm(a, s, b)), [xl, sl, bl])

        for name, fn in (("gelu", gelu), ("elu", elu), ("sigmoid", sigmoid),
                         ("softmax", lambda a: softmax(a, axis=-1))):
            check(name, lambda a, fn=fn: (fn(a) * fn(a)).sum(),
                  [Tensor(rng.standard_normal((2, 4)))])

        q, k, v = (Tensor(rng.standard_normal((1, 5, 4))) for _ in range(3))
        temp = Tensor(np.ones(2))
        wq = _weighted(rng, (1, 5, 4))
        check("xca_attention", lambda a, b, c, t: wq(xca_attention(a, b, c, 2, t)),
              [q, k, v, temp])

        aa = Tensor(rng.standard_normal((2, 3)) * 0.5)
        tr = Tensor(rng.standard_normal((2, 3)))
        wp = _weighted(rng, (2, 4, 4))
        check("pose_to_matrix", lambda a, t: wp(pose_to_matrix(a, t)), [aa, tr])

        sa = Tensor(rng.random((1, 3, 6, 6)))
        sbm = Tensor(rng.random((1, 3, 6, 6)))
        check("ssim", lambda a, b: ssim(a, b).sum(), [sa, sbm])
        dsp = Tensor(rng.uniform(0.2, 0.8, size=(1, 1, 4, 4)))
        img = Tensor(rng.random((1, 3, 4, 4)))
        check("smoothness", lambda d: smoothness(d, img), [dsp])

        # ---- composite blocks
        cdc = DilatedConvBlock(4, dilation=2, rng=rng, expansion=2)
        xi = Tensor(rng.standard_normal((1, 4, 4, 4)))
        wcdc = _weighted(rng, (1, 4, 4, 4))
        check("cdc_block", lambda a: wcdc(cdc(a)), [xi])

        lgfi = AttentionBlock(4, heads=2, rng=rng, expansion=2)
        wlg = _weighted(rng, (1, 4, 3, 3))
        check("lgfi_block", lambda a: wlg(lgfi(a)),
              [Tensor(rng.standard_normal((1, 4, 3, 3)))])

        pre = Conv2d(6, 4, 3, rng)
        post = Conv2d(7, 4, 3, rng)
        head = Conv2d(4, 1, 3, rng)
        deep = Tensor(rng.standard_normal((1, 6, 2, 3)))
        skip = Tensor(rng.standard_normal((1, 3, 4, 6)))
        wdec = _weighted(rng, (1, 1, 8, 12))

        def decoder_level(d, s):
            z = resize_bilinear(elu(pre(d)), size=(4, 6))
            z = elu(post(concat([z, s], axis=1)))
            return wdec(sigmoid(resize_bilinear(head(z), size=(8, 12))))

        check("decoder_level", decoder_level, [deep, skip])

        intr = CameraIntrinsics(6.0, 6.0, 3.5, 3.5, 8, 8)
        img8 = Tensor(resize_bilinear(Tensor(rng.random((1, 3, 2, 2))),
                                      size=(8, 8)).data)
        tgt8 = Tensor(resize_bilinear(Tensor(rng.random((1, 3, 2, 2))),
                                      size=(8, 8)).data)
        depth8 = Tensor(rng.uniform(2.0, 4.0, size=(1, 1, 8, 8)))
        aa8 = Tensor(rng.standard_normal((1, 3)) * 0.02)
        tr8 = Tensor(rng.standard_normal((1, 3)) * 0.05)

        # bilinear sampling is piecewise linear: finite differences are only
        # meaningful away from its kinks, so weight out pixels whose warped
        # coordinates sit on the integer lattice or at the border clamp
        from .engine import no_grad
        from .warp import backproject
        with no_grad():
            coords0, _ = project(backproject(depth8, intr), intr,
                                 pose_to_matrix(aa8, tr8))
        frac = np.abs(coords0.data - np.round(coords0.data))
        interior = ((frac.min(axis=-1) > 0.05)
                    & (coords0.data[..., 0] > 0.6) & (coords0.data[..., 0] < 6.4)
                    & (coords0.data[..., 1] > 0.6) & (coords0.data[..., 1] < 6.4))
        smooth_w = Tensor(interior[:, None].astype(np.float64))

        def synth_loss(d, a, t):
            out, _ = synthesize(img8, d, pose_to_matrix(a, t), intr)
            err = out - tgt8
            return (err * err * smooth_w).sum()

        check("synthesize", synth_loss, [depth8, aa8, tr8])

        cfgl = LossConfig()
        src8 = [Tensor(resize_bilinear(Tensor(rng.random((1, 3, 2, 2))),
                                       size=(8, 8)).data) for _ in range(2)]
        tfs = [pose_to_matrix(Tensor(rng.standard_normal((1, 3)) * 0.01),
                              Tensor(rng.standard_normal((1, 3)) * 0.05))
               for _ in range(2)]
        d0 = Tensor(rng.uniform(0.2, 0.5, size=(1, 1, 8, 8)))
        d1 = Tensor(rng.uniform(0.2, 0.5, size=(1, 1, 4, 4)))
        d2 = Tensor(rng.uniform(0.2, 0.5, size=(1, 1, 2, 2)))

        def full_loss(a, b, c):
            loss, _ = total_loss((a, b, c), tgt8, src8, tfs, intr, cfgl)
            return loss

        check("total_loss_8x8", full_loss, [d0, d1, d2], tol=END_TO_END_TOL)

        rot_in = Tensor(rng.standard_normal((2, 3)))
        wr = _weighted(rng, (2, 3, 3))
        check("rodrigues", lambda a: wr(rotation_from_axis_angle(a)), [rot_in])

        # ---- drawn last, so every earlier check keeps its inputs
        for name, shape, spec in (
                ("conv2d_pointwise", (5, 4, 1, 1), ConvSpec()),
                ("conv2d_grouped_stride2", (6, 2, 3, 3),
                 ConvSpec(stride=2, padding=1, groups=2))):
            check(name, lambda a, w, spec=spec: _sum_sq(conv2d(a, w, None, spec)),
                  [xc, Tensor(rng.standard_normal(shape) * 0.3)])
        target = Tensor(rng.random((1, 3, 5, 7)))
        wss = _weighted(rng, (1, 3, 5, 7))
        check("ssim_target_fixed", lambda a: wss(ssim(a, target)),
              [Tensor(rng.random((1, 3, 5, 7)))])
        mean_e, var_e = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        we = _weighted(rng, (2, 3, 4, 4))
        xe, se, be = (Tensor(rng.standard_normal(shape)) for shape in ((2, 3, 4, 4), 3, 3))
        check("batch_norm_eval", lambda a, s, b: we(batch_norm(
            a, s, b, (mean_e, var_e))[0]), [xe, se, be])
        # both images with grad; independent uniform draws almost surely
        # miss the kinks at pred == target and SSIM == 1
        wph = _weighted(rng, (1, 1, 5, 7))
        check("photometric_loss", lambda a, b: wph(photometric_loss(a, b, 0.85)),
              [Tensor(rng.random((1, 3, 5, 7))), Tensor(rng.random((1, 3, 5, 7)))])
        # depths of 2-4 keep every point off the z clamp
        pts = Tensor(np.concatenate([rng.uniform(-1.0, 1.0, (1, 2, 3, 4)),
                                     rng.uniform(2.0, 4.0, (1, 1, 3, 4))], axis=1))
        wpr = _weighted(rng, (1, 3, 4, 2))
        check("project", lambda p, t: wpr(project(p, intr, t)[0]),
              [pts, Tensor(pose_to_matrix(Tensor(rng.standard_normal((1, 3)) * 0.1),
                                          Tensor(rng.standard_normal((1, 3)) * 0.1)).data)])
    return results
