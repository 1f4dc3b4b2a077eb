import numpy as np

from litedepth.engine import Tensor, grad_check
from litedepth.posenet import pose_to_matrix
from litedepth.warp import CameraIntrinsics, backproject, project, synthesize


INTR = CameraIntrinsics(fx=20.0, fy=22.0, cx=7.5, cy=5.5, width=16, height=12)


def smooth_image(rng, h, w, c=3):
    """Band-limited random image so bilinear interpolation is benign."""
    coarse = rng.random((1, c, max(h // 4, 2), max(w // 4, 2)))
    from litedepth.engine import resize_bilinear
    return resize_bilinear(Tensor(coarse), size=(h, w)).data


class TestBackproject:
    def test_principal_point_maps_to_axis(self):
        depth = np.full((1, 1, 12, 16), 3.0)
        pts = backproject(Tensor(depth), INTR).data[0]
        # nearest pixel-center to the principal point (7.5, 5.5) sits half a
        # pixel off-axis; evaluate at an intrinsics with integer center
        intr = CameraIntrinsics(20.0, 22.0, 7.0, 5.0, 16, 12)
        pts = backproject(Tensor(depth), intr).data[0]
        np.testing.assert_allclose(pts[:, 5, 7], [0.0, 0.0, 3.0], atol=1e-12)

    def test_unit_depth_gives_normalized_plane(self):
        depth = np.ones((1, 1, 12, 16))
        pts = backproject(Tensor(depth), INTR).data[0]
        us, vs = np.meshgrid(np.arange(16.0), np.arange(12.0))
        np.testing.assert_allclose(pts[0], (us - INTR.cx) / INTR.fx, atol=1e-12)
        np.testing.assert_allclose(pts[1], (vs - INTR.cy) / INTR.fy, atol=1e-12)
        np.testing.assert_allclose(pts[2], 1.0, atol=1e-12)

    def test_training_mode_clamps(self):
        depth = np.full((1, 1, 4, 4), -1.0)
        intr = CameraIntrinsics(2.0, 2.0, 1.5, 1.5, 4, 4)
        pts = backproject(Tensor(depth), intr).data
        assert np.all(pts[0, 2] > 0)


class TestProject:
    def test_roundtrip_recovers_pixel_grid(self, rng):
        depth = Tensor(rng.uniform(1.0, 10.0, size=(1, 1, 12, 16)))
        pts = backproject(depth, INTR)
        coords, valid = project(pts, INTR, Tensor(np.eye(4).reshape(1, 4, 4)))
        us, vs = np.meshgrid(np.arange(16.0), np.arange(12.0))
        np.testing.assert_allclose(coords.data[0, :, :, 0], us, atol=1e-9)
        np.testing.assert_allclose(coords.data[0, :, :, 1], vs, atol=1e-9)
        assert valid[0, 0, 1:-1, 1:-1].all()

    def test_z_translation_contracts_toward_principal_point(self):
        d, tz = 5.0, 2.0
        depth = Tensor(np.full((1, 1, 12, 16), d))
        pts = backproject(depth, INTR)
        t = np.eye(4)
        t[2, 3] = tz
        coords, _ = project(pts, INTR, Tensor(t.reshape(1, 4, 4)))
        us, vs = np.meshgrid(np.arange(16.0), np.arange(12.0))
        # similar triangles: offsets from the principal point shrink by d/(d+tz)
        np.testing.assert_allclose(coords.data[0, :, :, 0] - INTR.cx,
                                   (us - INTR.cx) * d / (d + tz), atol=1e-9)
        np.testing.assert_allclose(coords.data[0, :, :, 1] - INTR.cy,
                                   (vs - INTR.cy) * d / (d + tz), atol=1e-9)

    def test_point_behind_camera_masked(self):
        depth = Tensor(np.full((1, 1, 4, 4), 1.0))
        intr = CameraIntrinsics(2.0, 2.0, 1.5, 1.5, 4, 4)
        pts = backproject(depth, intr)
        t = np.eye(4)
        t[2, 3] = -5.0      # push every point behind the camera
        _, valid = project(pts, intr, Tensor(t.reshape(1, 4, 4)))
        assert not valid.any()

    def test_mask_monotone_in_translation(self, rng):
        depth = Tensor(np.full((1, 1, 12, 16), 4.0))
        pts = backproject(depth, INTR)
        prev = None
        for tx in (0.0, 0.3, 0.6, 1.2, 2.4):
            t = np.eye(4)
            t[0, 3] = tx
            _, valid = project(pts, INTR, Tensor(t.reshape(1, 4, 4)))
            if prev is not None:
                # growing the translation never revalidates a pixel
                assert not np.any(valid & ~prev)
            prev = valid


class TestSynthesize:
    def test_identity_warp_reproduces_source(self, rng):
        img = Tensor(rng.random((1, 3, 12, 16)))
        depth = Tensor(rng.uniform(2.0, 9.0, size=(1, 1, 12, 16)))
        identity = pose_to_matrix(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
        out, valid = synthesize(img, depth, identity, INTR)
        np.testing.assert_allclose(out.data, img.data, atol=1e-6)

    def test_accepts_plain_matrix(self, rng):
        img = Tensor(rng.random((1, 3, 12, 16)))
        depth = Tensor(np.full((1, 1, 12, 16), 5.0))
        out, valid = synthesize(img, depth, np.eye(4)[None], INTR)
        np.testing.assert_allclose(out.data, img.data, atol=1e-9)

    def test_differentiable_wrt_depth_and_pose(self, rng):
        intr = CameraIntrinsics(6.0, 6.0, 3.5, 3.5, 8, 8)
        img = Tensor(smooth_image(rng, 8, 8))
        tgt = Tensor(smooth_image(rng, 8, 8))
        depth0 = Tensor(rng.uniform(2.0, 4.0, size=(1, 1, 8, 8)))
        aa0 = Tensor(rng.standard_normal((1, 3)) * 0.02)
        tr0 = Tensor(rng.standard_normal((1, 3)) * 0.05)

        def f(depth, aa, tr):
            out, _ = synthesize(img, depth, pose_to_matrix(aa, tr), intr)
            diff = out - tgt
            return (diff * diff).sum()

        assert grad_check(f, [depth0, aa0, tr0]) < 1e-4

    def test_lateral_shift_samples_neighbor(self):
        # one bright column at u=8; shifting the camera by one disparity
        # moves the column by exactly one pixel
        h, w = 12, 16
        img = np.zeros((1, 3, h, w))
        img[:, :, :, 8] = 1.0
        d = 4.0
        depth = Tensor(np.full((1, 1, h, w), d))
        tx = d / INTR.fx          # one-pixel disparity at this depth
        t = np.eye(4)
        t[0, 3] = tx
        out, valid = synthesize(Tensor(img), depth, Tensor(t[None]), INTR)
        np.testing.assert_allclose(out.data[0, 0, :, 7], 1.0, atol=1e-9)
        np.testing.assert_allclose(out.data[0, 0, :, 8], 0.0, atol=1e-9)
