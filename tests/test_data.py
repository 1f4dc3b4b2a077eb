import numpy as np
import pytest

from litedepth.data import (
    DirectorySource, SyntheticSource, Triplet, augment,
    generate_synthetic_sequence, load_triplet_dir, occlusion_boundary_mask,
    save_dataset,
)
from litedepth.data import _jitter
from litedepth.engine import Tensor, no_grad
from litedepth.losses import auto_mask, photometric_loss
from litedepth.warp import CameraIntrinsics, backproject, project, synthesize


SIZE = (64, 32)


class TestRenderer:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic_sequence(5, 4, SIZE)
        b = generate_synthetic_sequence(5, 4, SIZE)
        np.testing.assert_array_equal(a.frames, b.frames)
        np.testing.assert_array_equal(a.depths, b.depths)
        np.testing.assert_array_equal(a.poses, b.poses)

    def test_different_seed_differs(self):
        a = generate_synthetic_sequence(5, 2, SIZE)
        b = generate_synthetic_sequence(6, 2, SIZE)
        assert np.abs(a.frames - b.frames).max() > 0.01

    def test_static_trajectory_identical_frames(self):
        seq = generate_synthetic_sequence(5, 4, SIZE, motion_scale=0.0)
        for i in range(1, 4):
            np.testing.assert_array_equal(seq.frames[i], seq.frames[0])

    def test_depth_within_scene_budget(self):
        seq = generate_synthetic_sequence(9, 3, SIZE)
        assert seq.depths.min() >= 2.0
        assert seq.depths.max() <= 50.0

    def test_frames_in_unit_range(self):
        seq = generate_synthetic_sequence(9, 3, SIZE)
        assert seq.frames.min() >= 0.0 and seq.frames.max() <= 1.0

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            generate_synthetic_sequence(1, 2, SIZE, n_rects=0)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            generate_synthetic_sequence(1, 2, (60, 34))

    def test_per_frame_camera_step_in_learnable_band(self):
        seq = generate_synthetic_sequence(3, 16, SIZE)
        steps = np.linalg.norm(np.diff(seq.poses[:, :3, 3], axis=0), axis=1)
        assert steps.min() >= 0.05 and steps.max() <= 0.2


class TestRendererWarperCrossValidation:
    """The renderer and the differentiable warper implement the same
    geometry independently; warping a neighbor frame with ground-truth
    depth and pose must reproduce the target almost exactly."""

    # motion_scale 0.7 keeps per-frame steps inside the learnable band while
    # leaving margin to the photometric budget at the bad-luck seeds
    def test_gt_warp_error_below_budget(self):
        seq = generate_synthetic_sequence(7, 6, (128, 64), motion_scale=0.7)
        t, s = 2, 3
        with no_grad():
            warped, valid = synthesize(
                Tensor(seq.frames[s][None]), Tensor(seq.depths[t][None, None]),
                seq.relative_transform(t, s), seq.intrinsics)
        err = np.abs(warped.data[0] - seq.frames[t]).mean(axis=0)
        keep = valid[0, 0] & ~occlusion_boundary_mask(seq.depths[t])
        assert keep.mean() > 0.4
        assert err[keep].mean() < 0.02

    def test_gt_depth_strictly_beats_doubled_depth(self):
        seq = generate_synthetic_sequence(7, 6, (128, 64), motion_scale=0.7)
        t, s = 2, 3
        tf = seq.relative_transform(t, s)
        errs = []
        with no_grad():
            for scale in (1.0, 2.0):
                warped, valid = synthesize(
                    Tensor(seq.frames[s][None]),
                    Tensor(scale * seq.depths[t][None, None]), tf, seq.intrinsics)
                err = np.abs(warped.data[0] - seq.frames[t]).mean(axis=0)
                keep = valid[0, 0] & ~occlusion_boundary_mask(seq.depths[t])
                errs.append(err[keep].mean())
        assert errs[0] < errs[1]

    def test_previous_frame_also_warps(self):
        seq = generate_synthetic_sequence(21, 6, (128, 64), motion_scale=0.7)
        t, s = 2, 1
        with no_grad():
            warped, valid = synthesize(
                Tensor(seq.frames[s][None]), Tensor(seq.depths[t][None, None]),
                seq.relative_transform(t, s), seq.intrinsics)
        err = np.abs(warped.data[0] - seq.frames[t]).mean(axis=0)
        keep = valid[0, 0] & ~occlusion_boundary_mask(seq.depths[t])
        assert err[keep].mean() < 0.02


class TestMoverAutoMask:
    def test_camera_speed_mover_is_masked_out(self):
        seq = generate_synthetic_sequence(11, 6, (128, 64), mover=True)
        t = 2
        tgt = Tensor(seq.frames[t][None])
        unwarped, warped = [], []
        with no_grad():
            for s in (t - 1, t + 1):
                out, _ = synthesize(
                    Tensor(seq.frames[s][None]), Tensor(seq.depths[t][None, None]),
                    seq.relative_transform(t, s), seq.intrinsics)
                warped.append(photometric_loss(out, tgt, 0.85))
                unwarped.append(photometric_loss(Tensor(seq.frames[s][None]), tgt, 0.85))
        mu = auto_mask(unwarped, warped)
        mover = seq.mover_mask[t]
        assert mover.sum() > 100
        assert (mu[0, 0][mover] == 0).mean() >= 0.90
        # the static remainder keeps most pixels
        assert mu[0, 0][~mover].mean() > 0.5


class TestAugment:
    MIRROR = np.diag([-1.0, 1.0, 1.0, 1.0])

    def make_triplet(self, seed=4):
        # an off-center principal point, so that a flip changes cx
        intr = CameraIntrinsics(fx=57.6, fy=57.6, cx=36.0, cy=15.5,
                                width=SIZE[0], height=SIZE[1])
        seq = generate_synthetic_sequence(seed, 3, SIZE, intrinsics=intr)
        return Triplet(frames=(seq.frames[0], seq.frames[1], seq.frames[2]),
                       intrinsics=seq.intrinsics, gt_depth=seq.depths[1],
                       gt_poses=seq.poses)

    def test_deterministic_per_seed(self):
        t = self.make_triplet()
        a = augment(t, seed=12)
        b = augment(t, seed=12)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)
        if a.frames_jittered is not None:
            for fa, fb in zip(a.frames_jittered, b.frames_jittered):
                np.testing.assert_array_equal(fa, fb)

    def test_forcing_the_natural_flip_keeps_every_draw(self):
        t = self.make_triplet()
        for seed in range(20):
            free = augment(t, seed=seed)
            natural = free.intrinsics.cx != t.intrinsics.cx
            forced = augment(t, seed=seed, force_flip=natural)
            assert forced.intrinsics == free.intrinsics
            assert (forced.frames_jittered is None) == (free.frames_jittered is None)
            for fa, fb in zip(forced.frames + forced.network_frames(),
                              free.frames + free.network_frames()):
                np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(forced.gt_depth, free.gt_depth)
            np.testing.assert_array_equal(forced.gt_poses, free.gt_poses)

    def test_forced_flip_is_involution(self):
        t = self.make_triplet()
        once = augment(t, seed=0, force_flip=True)
        twice = augment(once, seed=0, force_flip=True)
        for fa, fb in zip(twice.frames, t.frames):
            np.testing.assert_array_equal(fa, fb)
        assert twice.intrinsics.cx == pytest.approx(t.intrinsics.cx)
        np.testing.assert_array_equal(twice.gt_poses, t.gt_poses)

    def test_flip_mirrors_principal_point(self):
        t = self.make_triplet()
        flipped = augment(t, seed=0, force_flip=True)
        w = t.intrinsics.width
        assert flipped.intrinsics.cx == pytest.approx(w - 1 - t.intrinsics.cx)
        # the poses follow the mirrored world: source-from-target becomes
        # M @ T @ M, the transform the warp of a flipped triplet needs
        def rel(poses):
            return np.linalg.inv(poses[2]) @ poses[1]
        np.testing.assert_allclose(rel(flipped.gt_poses),
                                   self.MIRROR @ rel(t.gt_poses) @ self.MIRROR,
                                   rtol=0, atol=1e-12)

    def test_brightness_clamp_keeps_white_white(self):
        white = np.ones((3, 8, 8))
        out = _jitter(white, order=[0], brightness=1.2, contrast=1.0,
                      saturation=1.0, hue=0.0)
        np.testing.assert_array_equal(out, white)

    def test_jitter_preserves_shape_and_range(self):
        t = self.make_triplet()
        out = _jitter(t.frames[0], order=[0, 1, 2, 3], brightness=1.2,
                      contrast=0.8, saturation=1.2, hue=0.07)
        assert out.shape == t.frames[0].shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_hue_roundtrip_identity(self):
        from litedepth.data import _hsv_to_rgb, _rgb_to_hsv
        rng = np.random.default_rng(0)
        img = rng.random((3, 5, 5))
        back = _hsv_to_rgb(_rgb_to_hsv(img))
        np.testing.assert_allclose(back, img, atol=1e-12)

    def test_targets_stay_clean_by_default(self):
        t = self.make_triplet()
        flips_seen = set()
        for seed in range(10):
            out = augment(t, seed=seed)
            if out.frames_jittered is None:
                continue
            flipped = out.intrinsics.cx != t.intrinsics.cx
            flips_seen.add(flipped)
            for clean, net, orig in zip(out.frames, out.network_frames(), t.frames):
                # clean targets equal the (possibly flipped) originals ...
                np.testing.assert_array_equal(
                    clean, orig[:, :, ::-1] if flipped else orig)
                # ... while the networks see the jittered versions
                assert not np.array_equal(net, clean)
        # seeds 0-9 hold jittered draws with and without a flip
        assert flips_seen == {False, True}

    def test_flip_with_mirrored_cx_preserves_warp_geometry(self):
        """Flipping frames, depth and cx together reproduces the unflipped
        warp; keeping the original cx breaks it. An off-center principal
        point makes the mirroring non-trivial."""
        intr = CameraIntrinsics(fx=115.2, fy=115.2, cx=70.0, cy=31.5,
                                width=128, height=64)
        seq = generate_synthetic_sequence(13, 4, (128, 64), intrinsics=intr)
        t, s = 1, 2
        tf = seq.relative_transform(t, s)
        tf_flipped = self.MIRROR @ tf @ self.MIRROR
        w = intr.width

        def warp_error(frames_s, depth_t, target, intr, transform):
            with no_grad():
                out, valid = synthesize(Tensor(frames_s[None]),
                                        Tensor(depth_t[None, None]),
                                        transform, intr)
            err = np.abs(out.data[0] - target).mean(axis=0)
            return err[valid[0, 0]].mean()

        def sampling_coords(depth_t, intr, transform):
            with no_grad():
                points = backproject(Tensor(depth_t[None, None]), intr)
                coords, valid = project(points, intr, Tensor(transform[None]))
            return coords.data[0], valid[0, 0]

        def mirrored_back(coords):
            back = coords[:, ::-1].copy()
            back[..., 0] = w - 1 - back[..., 0]
            return back

        depth_flipped = seq.depths[t][:, ::-1].copy()
        base, base_valid = sampling_coords(seq.depths[t], seq.intrinsics, tf)
        flip, flip_valid = sampling_coords(depth_flipped, seq.intrinsics.flipped(),
                                           tf_flipped)
        stale, _ = sampling_coords(depth_flipped, seq.intrinsics, tf_flipped)

        # proper mirroring samples the mirrored source at the mirrored
        # points, to rounding, and masks the same pixels
        np.testing.assert_allclose(mirrored_back(flip), base, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(flip_valid[:, ::-1], base_valid)
        photo_base = warp_error(seq.frames[s], seq.depths[t], seq.frames[t],
                                seq.intrinsics, tf)
        photo_flip = warp_error(seq.frames[s][:, :, ::-1].copy(), depth_flipped,
                                seq.frames[t][:, :, ::-1].copy(),
                                seq.intrinsics.flipped(), tf_flipped)
        assert abs(photo_flip - photo_base) < 1e-9

        # A stale cx misplaces every ray. Backprojecting and projecting with
        # cx off by delta, under a pure translation (tx, ty, tz), moves a
        # pixel at depth Z by |delta * tz| / (Z + tz) along u; the scene's
        # sub-degree rotation only perturbs that per pixel. The smallest
        # value of the term, at the farthest depth, floors the mean shift
        # (0.043 px here; the stale warp measures about 0.19 px).
        delta = abs(intr.cx - (w - 1 - intr.cx))
        tz = tf[2, 3]
        floor = delta * abs(tz) / (seq.depths[t].max() + tz)
        shift = np.linalg.norm(mirrored_back(stale) - base, axis=-1)
        assert shift[base_valid].mean() > floor


class TestIntrinsics:
    def test_resize_scales_focal_lengths(self):
        intr = CameraIntrinsics(100.0, 100.0, 63.5, 31.5, 128, 64)
        half = intr.scaled(64, 32)
        assert half.fx == 50.0 and half.fy == 50.0
        assert half.cx == 31.75 and half.cy == 15.75


class TestDatasetDirectory:
    def test_roundtrip_and_resize(self, tmp_path):
        seq = generate_synthetic_sequence(3, 4, (128, 64))
        save_dataset(seq, tmp_path)
        trip = load_triplet_dir(tmp_path, 1)
        assert trip.frames[1].shape == (3, 64, 128)
        # 8-bit quantization bounds the reload error
        assert np.abs(trip.frames[1] - seq.frames[1]).max() < 1.0 / 255.0 + 1e-9
        np.testing.assert_allclose(trip.gt_depth, seq.depths[1], atol=1e-6)
        np.testing.assert_allclose(trip.gt_poses, seq.poses[0:3], atol=1e-12)

        half = load_triplet_dir(tmp_path, 1, size=(64, 32))
        assert half.frames[1].shape == (3, 32, 64)
        assert half.intrinsics.fx == pytest.approx(seq.intrinsics.fx / 2)
        assert half.intrinsics.cx == pytest.approx(seq.intrinsics.cx / 2)

    def test_boundary_indices_rejected(self, tmp_path):
        seq = generate_synthetic_sequence(3, 3, SIZE)
        save_dataset(seq, tmp_path)
        with pytest.raises(IndexError, match="neighbors"):
            load_triplet_dir(tmp_path, 0)
        with pytest.raises(IndexError, match="neighbors"):
            load_triplet_dir(tmp_path, 2)

    def test_missing_directory_errors_with_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="frames"):
            load_triplet_dir(tmp_path / "nope", 1)

    def test_sources(self, tmp_path):
        src = SyntheticSource(seed=1, n_frames=5, size=SIZE)
        assert len(src) == 3
        trip = src.triplet(0)
        assert trip.gt_depth is not None and trip.gt_poses.shape == (3, 4, 4)

        save_dataset(src.sequence, tmp_path)
        dsrc = DirectorySource(tmp_path, size=SIZE)
        assert len(dsrc) == 3
        trip2 = dsrc.triplet(0)
        assert trip2.frames[1].shape == trip.frames[1].shape
