import tracemalloc
from itertools import product

import numpy as np
import pytest

from litedepth import losses
from litedepth.engine import (
    Tensor, as_tensor, concat, grad_check, recompute, resize_bilinear, using_dtype,
)
from litedepth.losses import (
    LossConfig, SSIM_C1, SSIM_C2, auto_mask, min_reprojection, photometric_loss,
    smoothness, ssim, total_loss,
)
from litedepth.posenet import pose_to_matrix
from litedepth.warp import Z_EPS, CameraIntrinsics, synthesize


def smooth_image(rng, h, w, c=3, batch=1):
    coarse = rng.random((batch, c, max(h // 4, 2), max(w // 4, 2)))
    return resize_bilinear(Tensor(coarse), size=(h, w)).data


def const_ssim(a, b):
    """Closed form for two constant patches (variances and covariance zero)."""
    return (2 * a * b + SSIM_C1) / (a * a + b * b + SSIM_C1)


class TestSsim:
    def test_self_similarity_is_one(self, rng):
        x = Tensor(rng.random((1, 3, 8, 8)))
        np.testing.assert_allclose(ssim(x, x).data, 1.0, atol=1e-6)

    def test_constant_patch_closed_form(self):
        a, b = 0.2, 0.7
        out = ssim(Tensor(np.full((1, 1, 6, 6), a)), Tensor(np.full((1, 1, 6, 6), b)))
        np.testing.assert_allclose(out.data, const_ssim(a, b), atol=1e-12)
        assert const_ssim(a, b) < 1.0

    def test_symmetry(self, rng):
        x = Tensor(rng.random((1, 3, 6, 6)))
        y = Tensor(rng.random((1, 3, 6, 6)))
        np.testing.assert_allclose(ssim(x, y).data, ssim(y, x).data, atol=1e-9)

    def test_range(self, rng):
        for _ in range(5):
            x = Tensor(rng.random((1, 1, 8, 8)))
            y = Tensor(rng.random((1, 1, 8, 8)))
            s = ssim(x, y).data
            assert s.min() >= -1.0 - 1e-9 and s.max() <= 1.0 + 1e-9

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            ssim(Tensor(rng.random((1, 1, 4, 4))), Tensor(rng.random((1, 1, 4, 5))))


def box3(x):
    """Mean over each 3x3 window of an NCHW tensor at stride 1, one node: the
    window's columns, then its rows, then a division by 9."""
    d = x.data
    ho, wo = d.shape[2] - 2, d.shape[3] - 2
    cols = d[..., 0: wo] + d[..., 1: wo + 1] + d[..., 2: wo + 2]
    out = (cols[:, :, 0: ho] + cols[:, :, 1: ho + 1] + cols[:, :, 2: ho + 2]) / 9

    def bw(g):
        gx = np.zeros_like(d)
        for ki, kj in np.ndindex(3, 3):
            gx[:, :, ki: ki + ho, kj: kj + wo] += g / 9
        return (gx,)

    return Tensor._from_op(out, (x,), bw)


def ssim_oracle(a, b):
    """SSIM composed from pad, pool and elementwise ops, one node each."""
    def mean3(x):
        x = concat([x[:, :, 1:2], x, x[:, :, -2:-1]], axis=2)
        x = concat([x[:, :, :, 1:2], x, x[:, :, :, -2:-1]], axis=3)
        return box3(x)

    a, b = as_tensor(a), as_tensor(b)
    mu_a, mu_b = mean3(a), mean3(b)
    var_a = mean3(a * a) - mu_a * mu_a
    var_b = mean3(b * b) - mu_b * mu_b
    cov = mean3(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return num / den


MAP_SHAPES = [(1, 1, 3, 3), (2, 3, 5, 7), (4, 3, 32, 64)]
# (default dtype, prediction dtype, target dtype); f32 training warps an f64
# prediction against an f32 target, and the last mix gives the prediction a
# gradient it must round down to
DTYPE_MIXES = [("f32", np.float32, np.float32), ("f64", np.float64, np.float64),
               ("f32", np.float64, np.float32), ("f64", np.float32, np.float64)]


class TestFusedSsim:
    """The one-node SSIM against its composite oracle."""

    @pytest.mark.parametrize("shape", MAP_SHAPES)
    @pytest.mark.parametrize("default, a_dtype, b_dtype", [
        ("f32", np.float32, np.float32),
        ("f64", np.float64, np.float64),
        ("f32", np.float64, np.float32),   # f32 training: warped prediction, f32 target
        ("f64", np.float64, np.float32),
    ])
    def test_forward_is_bit_identical(self, shape, default, a_dtype, b_dtype, rng):
        with using_dtype(default):
            a = Tensor(rng.random(shape).astype(a_dtype))
            b = Tensor(rng.random(shape).astype(b_dtype))
            fused, oracle = ssim(a, b).data, ssim_oracle(a, b).data
        assert fused.dtype == oracle.dtype
        np.testing.assert_array_equal(fused, oracle)

    @pytest.mark.parametrize("shape", MAP_SHAPES)
    @pytest.mark.parametrize("b_grad", [True, False])
    def test_backward_matches_composite(self, shape, b_grad, rng):
        upstream = Tensor(rng.standard_normal(shape))
        a_data, b_data = rng.random(shape), rng.random(shape)
        grads = []
        for f in (ssim, ssim_oracle):
            a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=b_grad)
            (f(a, b) * upstream).sum().backward()
            grads.append((a.grad, b.grad))
        (ga, gb), (ra, rb) = grads
        assert np.abs(ga - ra).max() <= 1e-12 * np.abs(ra).max()
        if b_grad:
            assert np.abs(gb - rb).max() <= 1e-12 * np.abs(rb).max()
        else:
            assert gb is None and rb is None

    # maps two wide or two high, where both ends of a row or column reflect
    # onto the same neighbour, odd sizes, and inputs that are not C-contiguous
    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 2, 5), (2, 3, 7, 2), (3, 2, 5, 9)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("strided", [False, True])
    def test_filter_matches_padded_windows(self, shape, dtype, strided, rng):
        x = rng.standard_normal(shape).astype(dtype)
        if strided:
            x = np.repeat(x, 2, axis=3)[..., ::2]
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="reflect")
        out, oracle = losses._box3(x), box3(Tensor(padded)).data
        assert out.dtype == oracle.dtype == dtype
        assert out.tobytes() == oracle.tobytes()

    # on maps two wide or two high the reflected terms fold back onto the end
    # entries themselves
    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 2, 5), (2, 3, 7, 2), (3, 2, 5, 9)])
    @pytest.mark.parametrize("strided", [False, True])
    def test_adjoint_is_the_filter_transpose(self, shape, strided, rng):
        # <box3(x), g> = <x, box3_adjoint(g)>
        x, g = rng.standard_normal(shape), rng.standard_normal(shape)
        if strided:
            g = np.repeat(g, 2, axis=3)[..., ::2]
        fx, ag = losses._box3(x), losses._box3_adjoint(g)
        assert ag.shape == x.shape
        scale = np.vdot(np.abs(fx), np.abs(g))
        assert abs(np.vdot(fx, g) - np.vdot(x, ag)) <= 1e-12 * scale

    def test_one_node(self, count_nodes, rng):
        a = Tensor(rng.random((1, 3, 6, 6)), requires_grad=True)
        b = Tensor(rng.random((1, 3, 6, 6)))
        assert count_nodes(lambda: ssim(a, b)) == 1

    def test_single_row_rejected(self, rng):
        with pytest.raises(ValueError, match="2x2"):
            ssim(Tensor(rng.random((1, 1, 1, 4))), Tensor(rng.random((1, 1, 1, 4))))


def branch_inputs(rng, n, h, w, per_sample):
    """Cameras (one for the batch, or per sample with every other one
    flipped) and the depth, transform, source and target arrays of one
    warped branch. Sample 0 keeps the identity transform."""
    intr = CameraIntrinsics(0.58 * w, 1.92 * h, w / 2, h / 2, w, h)
    cams = [intr.flipped() if i % 2 else intr for i in range(n)] if per_sample else intr
    depth = rng.uniform(1.0, 10.0, (n, 1, h, w))
    # after sample 0's identity transform: below the z clamp, and on it
    depth[0, 0, 0, :2] = 0.0, Z_EPS
    transform = np.tile(np.eye(4), (n, 1, 1))
    transform[1:, :3] += rng.normal(0.0, 0.05, (n - 1, 3, 4))
    return (cams, depth, transform,
            smooth_image(rng, h, w, batch=n), smooth_image(rng, h, w, batch=n))


class TestWarpedBranch:
    """One warped branch of the objective, synthesis then photometric error,
    as a `recompute` node against the same branch run as a plain graph."""

    @pytest.mark.parametrize("n, h, w", [(1, 3, 3), (2, 5, 7), (4, 32, 64)])
    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("default, p_dtype, t_dtype", DTYPE_MIXES)
    # which of the branch's inputs need a gradient: depth and transform
    # (training's), source and target
    @pytest.mark.parametrize("geometry_grad, image_grad", list(product([True, False], repeat=2)))
    @pytest.mark.parametrize("alpha", [0.0, 0.85])
    def test_matches_plain_graph_bit_for_bit(self, n, h, w, per_sample, default, p_dtype,
                                             t_dtype, geometry_grad, image_grad, alpha, rng,
                                             assert_same_bits):
        # p_dtype for depth and source, t_dtype for transform and target
        cams, depth, transform, source, target = branch_inputs(rng, n, h, w, per_sample)
        upstream = rng.standard_normal((n, 1, h, w))
        upstream[..., 0] = -0.0
        branch = losses._warped_error(cams, alpha)
        results = []
        with using_dtype(default):
            # equal top rows: |synth - target| = 0, and SSIM = 1 ties the clamp
            synth, _ = synthesize(Tensor(source.astype(p_dtype)), Tensor(depth.astype(p_dtype)),
                                  Tensor(transform.astype(t_dtype)), cams)
            target[:, :, :2] = synth.data[:, :, :2]
            for run in (recompute, lambda fn, *inputs, params=(): fn(*inputs)):
                leaves = [Tensor(depth.astype(p_dtype), requires_grad=geometry_grad),
                          Tensor(transform.astype(t_dtype), requires_grad=geometry_grad),
                          Tensor(source.astype(p_dtype), requires_grad=image_grad),
                          Tensor(target.astype(t_dtype), requires_grad=image_grad)]
                error, valid = run(branch, *leaves)
                assert error.requires_grad == (geometry_grad or image_grad)
                if error.requires_grad:
                    (error * Tensor(upstream.astype(error.dtype))).sum().backward()
                results.append((error.data, valid, *(leaf.grad for leaf in leaves)))
        for new, old in zip(*results):
            assert_same_bits(new, old)

    def test_one_node(self, count_nodes, rng):
        # the warp and the photometric error add no node of their own
        cams, *arrays = branch_inputs(rng, 2, 6, 8, per_sample=False)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        for alpha in (0.0, 0.85):
            branch = losses._warped_error(cams, alpha)
            assert count_nodes(lambda: recompute(branch, *leaves)) == 1


class TestPhotometric:
    def test_identical_images_zero(self, rng):
        x = Tensor(rng.random((1, 3, 8, 8)))
        np.testing.assert_allclose(photometric_loss(x, x, 0.85).data, 0.0, atol=1e-9)

    def test_alpha_zero_is_pure_l1(self, rng):
        x = Tensor(rng.random((1, 3, 8, 8)))
        y = Tensor(rng.random((1, 3, 8, 8)))
        out = photometric_loss(x, y, alpha=0.0).data
        np.testing.assert_allclose(out, np.abs(x.data - y.data).mean(axis=1,
                                                                     keepdims=True),
                                   atol=1e-12)

    def test_constant_shift_closed_form(self):
        a, shift, alpha = 0.3, 0.1, 0.85
        x = Tensor(np.full((1, 3, 6, 6), a))
        y = Tensor(np.full((1, 3, 6, 6), a + shift))
        expected = alpha * (1 - const_ssim(a, a + shift)) / 2 + (1 - alpha) * shift
        np.testing.assert_allclose(photometric_loss(y, x, alpha).data, expected,
                                   atol=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(5):
            x = Tensor(rng.random((1, 3, 6, 6)))
            y = Tensor(rng.random((1, 3, 6, 6)))
            assert photometric_loss(x, y, 0.85).data.min() >= -1e-12


class TestMinReprojection:
    def test_single_map_identity(self, rng):
        m = Tensor(rng.random((1, 1, 4, 4)))
        assert min_reprojection([m]) is m

    def test_pointwise_min(self):
        a = Tensor(np.full((1, 1, 2, 2), 0.3))
        b = Tensor(np.full((1, 1, 2, 2), 0.1))
        np.testing.assert_array_equal(min_reprojection([a, b]).data, 0.1)

    def test_below_every_input(self, rng):
        maps = [Tensor(rng.random((1, 1, 5, 5))) for _ in range(3)]
        out = min_reprojection(maps).data
        for m in maps:
            assert np.all(out <= m.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            min_reprojection([])


class TestAutoMask:
    """The auto-mask as the objective applies it, through the
    reconstruction term."""

    def test_identical_static_frames_fully_masked(self, reconstruction_grad):
        z = Tensor(np.zeros((1, 1, 4, 4)))
        value, grad = reconstruction_grad([z], [z], np.ones((1, 1, 4, 4)))
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)   # strict inequality fails on ties

    def test_strictly_better_warp_kept(self, reconstruction_grad):
        unwarped = Tensor(np.full((1, 1, 2, 2), 0.5))
        warped = Tensor(np.full((1, 1, 2, 2), 0.2))
        value, grad = reconstruction_grad([unwarped], [warped], np.ones((1, 1, 2, 2)))
        assert value == pytest.approx(0.2, rel=1e-12)
        np.testing.assert_array_equal(grad, 0.25)

    def test_masked_pixels_keep_the_identity_floor(self, rng, reconstruction_grad):
        u = [Tensor(rng.random((1, 1, 6, 6))) for _ in range(2)]
        w = [Tensor(rng.random((1, 1, 6, 6))) for _ in range(2)]
        valid = rng.random((1, 1, 6, 6)) < 0.8
        best_u = np.minimum(u[0].data, u[1].data)
        best_w = np.minimum(w[0].data, w[1].data)
        keep = valid & (best_u > best_w)
        value, grad = reconstruction_grad(u, w, valid)
        assert 0 < keep.sum() < keep.size
        assert value == pytest.approx(np.where(keep, best_w, best_u).mean(), rel=1e-12)
        np.testing.assert_array_equal(grad, keep / keep.size)

    def test_binary_values(self, rng):
        u = Tensor(rng.random((1, 1, 6, 6)).astype(np.float32))
        w = Tensor(rng.random((1, 1, 6, 6)).astype(np.float32))
        mu = auto_mask(u, w)
        assert mu.dtype == np.float32
        np.testing.assert_array_equal(mu, u.data > w.data)


class TestSmoothness:
    def test_constant_disp_zero(self, rng):
        disp = Tensor(np.full((1, 1, 6, 6), 0.4))
        img = Tensor(rng.random((1, 3, 6, 6)))
        np.testing.assert_allclose(smoothness(disp, img).data, 0.0, atol=1e-12)

    def test_scale_invariance(self, rng):
        disp = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 6, 6)))
        img = Tensor(rng.random((1, 3, 6, 6)))
        base = smoothness(disp, img).data
        # power-of-two scaling is exact in floating point
        np.testing.assert_array_equal(smoothness(disp * 4.0, img).data, base)
        np.testing.assert_allclose(smoothness(disp * np.pi, img).data, base,
                                   rtol=1e-12)

    def test_edge_aligned_with_image_edge_cheaper(self):
        # vertical step edge in disp; the image either shares it or is flat
        disp = np.ones((1, 1, 4, 4))
        disp[:, :, :, 2:] = 2.0
        edge_img = np.zeros((1, 3, 4, 4))
        edge_img[:, :, :, 2:] = 1.0
        flat_img = np.zeros((1, 3, 4, 4))
        aligned = smoothness(Tensor(disp), Tensor(edge_img)).data
        flat = smoothness(Tensor(disp), Tensor(flat_img)).data
        assert aligned < flat

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="zero mean"):
            smoothness(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 3, 4, 4))))

    def test_y_only_variation_penalized_by_the_y_term(self):
        # rows 1, 1, 2, 2 normalize to 2/3, 2/3, 4/3, 4/3: one of the three
        # row differences is 2/3, so the y term averages to 2/9; x adds 0
        disp = np.ones((1, 1, 4, 4))
        disp[:, :, 2:, :] = 2.0
        img = np.full((1, 3, 4, 4), 0.5)
        np.testing.assert_allclose(smoothness(Tensor(disp), Tensor(img)).data, 2 / 9,
                                   rtol=1e-12)

    def test_grad_check(self, rng):
        disp = Tensor(rng.uniform(0.2, 0.8, size=(1, 1, 4, 4)))
        img = Tensor(rng.random((1, 3, 4, 4)))
        assert grad_check(lambda d: smoothness(d, img), [disp]) < 1e-4


def build_inputs(rng, h=8, w=8, n_sources=2):
    intr = CameraIntrinsics(fx=6.0, fy=6.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                            width=w, height=h)
    target = Tensor(smooth_image(rng, h, w))
    sources = [Tensor(smooth_image(rng, h, w)) for _ in range(n_sources)]
    transforms = []
    for _ in range(n_sources):
        transforms.append(pose_to_matrix(Tensor(rng.standard_normal((1, 3)) * 0.01),
                                         Tensor(rng.standard_normal((1, 3)) * 0.05)))
    disps = (Tensor(rng.uniform(0.2, 0.5, size=(1, 1, h, w))),
             Tensor(rng.uniform(0.2, 0.5, size=(1, 1, h // 2, w // 2))),
             Tensor(rng.uniform(0.2, 0.5, size=(1, 1, h // 4, w // 4))))
    return intr, target, sources, transforms, disps


class TestTotalLoss:
    def test_identical_frames_lambda_zero_gives_zero(self, rng):
        intr, target, _, transforms, disps = build_inputs(rng)
        cfg = LossConfig(lambda_smooth=0.0)
        sources = [target, target]
        total, diag = total_loss(disps, target, sources,
                                 transforms, intr, cfg)
        assert float(total.data) == 0.0   # every pixel automasked by the tie

    def test_total_is_mean_of_scales(self, rng):
        intr, target, sources, transforms, disps = build_inputs(rng)
        cfg = LossConfig()
        total, diag = total_loss(disps, target, sources,
                                 transforms, intr, cfg)
        np.testing.assert_allclose(float(total.data), np.mean(diag["per_scale"]),
                                   rtol=1e-12)

    def test_diagnostics_are_floats(self, rng):
        # per-scale terms only: no map of the step outlives the loss tensor
        intr, target, sources, transforms, disps = build_inputs(rng)
        cfg = LossConfig()
        total, diag = total_loss(disps, target, sources, transforms, intr, cfg)
        assert set(diag) == {"reconstruction", "smoothness", "per_scale", "total"}
        assert diag["total"] == float(total.data)
        for level in range(3):
            assert all(type(diag[k][level]) is float
                       for k in ("reconstruction", "smoothness", "per_scale"))
            weight = cfg.lambda_smooth / 2 ** level
            assert diag["per_scale"][level] == pytest.approx(
                diag["reconstruction"][level] + weight * diag["smoothness"][level],
                rel=1e-12)

    def test_unwarped_minimum_is_built_once(self, rng, monkeypatch):
        # the identity-warp floor is the same at every scale
        reduced = []
        monkeypatch.setattr(losses, "min_reprojection",
                            lambda maps: reduced.append(maps) or min_reprojection(maps))
        intr, target, sources, transforms, disps = build_inputs(rng)
        total_loss(disps, target, sources, transforms, intr, LossConfig())
        assert len(reduced) == 4   # the unwarped maps once, the warped once per scale

    @staticmethod
    def _step_inputs(n, h, w, per_sample=False, image_grad=False, dtype=np.float32):
        """A training step's objective inputs at n x 3 x h x w: disparities,
        target, two sources, two transforms and the cameras, with leaves
        that require grad where training's do."""
        rng = np.random.default_rng(0)
        disps = [Tensor(rng.uniform(0.01, 0.3, (n, 1, h >> k, w >> k)).astype(dtype),
                        requires_grad=True) for k in range(3)]
        target, *sources = (Tensor(rng.random((n, 3, h, w)).astype(dtype),
                                   requires_grad=image_grad) for _ in range(3))
        transforms = [Tensor(pose_to_matrix(
            Tensor(rng.standard_normal((n, 3)) * 0.01),
            Tensor(rng.standard_normal((n, 3)) * 0.05)).data.astype(dtype),
            requires_grad=True) for _ in sources]
        intr = CameraIntrinsics(0.58 * w, 1.92 * h, w / 2, h / 2, w, h)
        cams = [intr, intr.flipped()] * (n // 2) if per_sample else intr
        return disps, target, sources, transforms, cams

    def test_graph_left_alive_is_bounded(self):
        # What total_loss leaves alive for backward on a tiny 64x32 batch-4
        # f32 step: 2.4 MiB with one recompute node per warped branch, which
        # keeps only its inputs, against 12.0 MiB when each branch's
        # photometric node kept SSIM's four maps and its bilinear sample the
        # slopes and inside masks.
        with using_dtype("f32"):
            inputs = self._step_inputs(4, 32, 64)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                loss, _ = total_loss(*inputs, LossConfig())
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert loss.requires_grad
        assert held <= 4 * 2 ** 20

    @pytest.mark.parametrize("default", ["f32", "f64"])
    @pytest.mark.parametrize("per_sample", [False, True])
    @pytest.mark.parametrize("image_grad", [False, True])
    def test_branches_match_plain_graph_bit_for_bit(self, default, per_sample, image_grad,
                                                   monkeypatch, plain_graph, assert_same_bits):
        # the objective with each warped branch one recompute node, against
        # the same objective with every branch run as a plain graph
        dtype = np.float32 if default == "f32" else np.float64
        results = []
        for plain in (False, True):
            with using_dtype(default), monkeypatch.context() as patch:
                if plain:
                    plain_graph(patch)
                disps, target, sources, transforms, cams = self._step_inputs(
                    2, 12, 16, per_sample, image_grad, dtype)
                loss, _ = total_loss(disps, target, sources, transforms, cams, LossConfig())
                loss.backward()
                results.append(([loss.data] + [t.grad for t in (*disps, *transforms, *sources)],
                                target.grad))
        (new, new_target), (old, old_target) = results
        for a, b in zip(new, old):
            assert_same_bits(a, b)
        # A branch hands the target one gradient, its SSIM and L1 terms
        # already summed, where the plain graph adds each term to the sum of
        # all the target's other terms: the two round apart.
        assert (new_target is None) == (old_target is None)
        if image_grad:
            assert (np.abs(new_target - old_target).max()
                    <= 4 * np.finfo(dtype).eps * np.abs(old_target).max())

    def test_source_transform_count_mismatch(self, rng):
        intr, target, sources, transforms, disps = build_inputs(rng)
        with pytest.raises(ValueError, match="transforms"):
            total_loss(disps, target, sources, transforms[:1],
                       intr, LossConfig())

    @staticmethod
    def _end_to_end(rng):
        intr, target, sources, transforms, disps = build_inputs(rng)
        aa = Tensor(np.array([[0.01, -0.02, 0.015]]))
        # at a y translation of 0.01 one valid pixel sits 3.7 EPS from a kink
        tr = Tensor(np.array([[0.03, 0.02, -0.04]]))

        def f(d0, d1, d2, a_, t_):
            tfs = [pose_to_matrix(a_, t_), transforms[1]]
            total, _ = total_loss((d0, d1, d2), target, sources,
                                  tfs, intr, LossConfig())
            return total
        return grad_check(f, [*disps, aa, tr])

    def test_end_to_end_grad_check(self, rng, kink_margins):
        # the objective training runs, auto-mask included
        assert self._end_to_end(rng) < 1e-3
        kink_margins()

    def test_end_to_end_grad_check_fails_a_detached_warp(self, rng, monkeypatch):
        # a planted defect: the warped image stops carrying depth gradients
        synthesize = losses.synthesize

        def detached(*args):
            image, valid = synthesize(*args)
            return Tensor(image.data), valid

        monkeypatch.setattr(losses, "synthesize", detached)
        assert self._end_to_end(rng) > 1e-3
