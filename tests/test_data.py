import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from litedepth import data
from litedepth.data import (
    DirectorySource, SyntheticSource, Triplet, augment,
    generate_synthetic_sequence, resize_depth, save_dataset,
)
from litedepth.data import _jitter
from litedepth.engine import Tensor, no_grad
from litedepth.losses import photometric_loss
from litedepth.pngio import write_f32
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

    def test_per_frame_camera_step_in_learnable_band(self):
        seq = generate_synthetic_sequence(3, 16, SIZE)
        steps = np.linalg.norm(np.diff(seq.poses[:, :3, 3], axis=0), axis=1)
        assert steps.min() >= 0.05 and steps.max() <= 0.2


def value_noise_oracle(u, v, cell, salt):
    """Per-pixel value noise: the four lattice corners of each pixel's cell
    hashed anew for every pixel."""
    def lattice_hash(ix, iy):
        h = np.sin(ix * 12.9898 + iy * 78.233 + salt) * 43758.5453
        return h - np.floor(h)

    x, y = u / cell, v / cell
    ix, iy = np.floor(x), np.floor(y)
    sx = 0.5 - 0.5 * np.cos(np.pi * (x - ix))
    sy = 0.5 - 0.5 * np.cos(np.pi * (y - iy))
    v00 = lattice_hash(ix, iy)
    v10 = lattice_hash(ix + 1, iy)
    v01 = lattice_hash(ix, iy + 1)
    v11 = lattice_hash(ix + 1, iy + 1)
    return (v00 * (1 - sx) * (1 - sy) + v10 * sx * (1 - sy)
            + v01 * (1 - sx) * sy + v11 * sx * sy)


def texture_oracle(rect, u, v):
    color = np.broadcast_to(rect.base_color[:, None], (3, u.size)).copy()
    for cell, salts, amp in zip(rect.cells, rect.salts, rect.amps):
        for ch in range(3):
            color[ch] += amp * (2.0 * value_noise_oracle(u, v, cell, salts[ch]) - 1.0)
    return np.clip(color, 0.02, 0.98)


def render_frame_oracle(rects, rays_world, cam_pos, mover_shift):
    """Ray-casting that keeps every rect's hit points for the whole frame
    and textures with `texture_oracle`."""
    hit_depth = np.full(rays_world.shape[1], np.inf)
    hit_index = np.full(rays_world.shape[1], -1, dtype=np.int64)
    hits = []
    for k, rect in enumerate(rects):
        center = rect.center.copy()
        if rect.moving:
            center += mover_shift
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (center[2] - cam_pos[2]) / rays_world[2]
        px = cam_pos[0] + s * rays_world[0] - center[0]
        py = cam_pos[1] + s * rays_world[1] - center[1]
        inside = ((s > 0.1) & np.isfinite(s)
                  & (np.abs(px) <= rect.half[0]) & (np.abs(py) <= rect.half[1]))
        closer = inside & (s < hit_depth)
        hit_depth = np.where(closer, s, hit_depth)
        hit_index = np.where(closer, k, hit_index)
        hits.append((px, py))
    frame = np.zeros((3, rays_world.shape[1]))
    for k, rect in enumerate(rects):
        sel = hit_index == k
        if sel.any():
            px, py = hits[k]
            frame[:, sel] = texture_oracle(rect, px[sel], py[sel])
    return frame, hit_depth, hit_index


class TestRendererOracle:
    """The renderer hashes each lattice point once per channel and keeps
    only the nearest hit per ray; its output must equal the per-pixel
    oracle's bit for bit."""

    def test_texture_on_rect_local_coordinates(self, monkeypatch):
        calls = []
        texture = data._texture

        def record(rect, u, v):
            calls.append((rect, u, v, texture(rect, u, v)))
            return calls[-1][-1]

        monkeypatch.setattr(data, "_texture", record)
        generate_synthetic_sequence(7, 3, (128, 64), mover=True)
        # every rect is hit, and the floors of negative coordinates are taken
        assert len({id(rect) for rect, *_ in calls}) == data._N_RECTS + 2
        assert min(u.min() for _, u, _, _ in calls) < 0
        assert min(v.min() for _, _, v, _ in calls) < 0
        for rect, u, v, color in calls:
            np.testing.assert_array_equal(color, texture_oracle(rect, u, v))

    @pytest.mark.parametrize("kwargs", [
        dict(size=(128, 64), intrinsics=CameraIntrinsics(
            fx=70.0, fy=95.0, cx=50.3, cy=20.7, width=128, height=64)),
        dict(size=(64, 32), mover=True),
        dict(size=(64, 32), motion_scale=0.0),
        dict(size=(96, 64)),
        # 320x96 is two render chunks and a partial one, whose boundaries
        # fall mid-row; the oracle renders each frame in one piece
        dict(size=(320, 96)),
        dict(size=(320, 96), mover=True),
    ], ids=["custom-intrinsics", "mover", "static", "rotated", "chunks", "chunks-mover"])
    def test_sequence_equals_the_oracle_path(self, kwargs, monkeypatch):
        seq = generate_synthetic_sequence(11, 4, **kwargs)
        monkeypatch.setattr(data, "_render_frame", render_frame_oracle)
        ref = generate_synthetic_sequence(11, 4, **kwargs)
        np.testing.assert_array_equal(seq.frames, ref.frames)
        np.testing.assert_array_equal(seq.depths, ref.depths)
        np.testing.assert_array_equal(seq.poses, ref.poses)
        if kwargs.get("mover"):
            assert seq.mover_mask.any()
            np.testing.assert_array_equal(seq.mover_mask, ref.mover_mask)
        else:
            assert seq.mover_mask is None and ref.mover_mask is None
        if "motion_scale" not in kwargs and "mover" not in kwargs:
            # rotation is on: some camera's axes leave the world's
            assert not np.allclose(seq.poses[:, :3, :3], np.eye(3))

    def test_render_temporaries_stay_bounded(self):
        # what one 640x192 frame allocates beyond the arrays it returns:
        # 11.6 MiB rendering in chunks, 25.5 MiB in one piece (numpy 2.4.6).
        # The bound is 25% above the first. A small render first, so lazy
        # imports do not count
        generate_synthetic_sequence(0, 1, (64, 32))
        tracemalloc.start()
        try:
            seq = generate_synthetic_sequence(0, 1, (640, 192))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = seq.frames.nbytes + seq.depths.nbytes + seq.poses.nbytes
        assert peak - returned <= 14.5 * 2 ** 20


class TestRendererWarperCrossValidation:
    """The renderer and the differentiable warper implement the same
    geometry independently; warping a neighbor frame with ground-truth
    depth and pose must reproduce the target almost exactly."""

    # motion_scale 0.7 keeps per-frame steps inside the learnable band while
    # leaving margin to the photometric budget at the bad-luck seeds
    def test_gt_warp_error_below_budget(self, relative_transform,
                                        occlusion_boundary_mask):
        seq = generate_synthetic_sequence(7, 6, (128, 64), motion_scale=0.7)
        t, s = 2, 3
        with no_grad():
            warped, valid = synthesize(
                Tensor(seq.frames[s][None]), Tensor(seq.depths[t][None, None]),
                Tensor(relative_transform(seq, t, s)[None]), seq.intrinsics)
        err = np.abs(warped.data[0] - seq.frames[t]).mean(axis=0)
        keep = valid[0, 0] & ~occlusion_boundary_mask(seq.depths[t])
        assert keep.mean() > 0.4
        assert err[keep].mean() < 0.02

    def test_gt_depth_strictly_beats_doubled_depth(self, relative_transform,
                                                   occlusion_boundary_mask):
        seq = generate_synthetic_sequence(7, 6, (128, 64), motion_scale=0.7)
        t, s = 2, 3
        tf = Tensor(relative_transform(seq, t, s)[None])
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

    def test_previous_frame_also_warps(self, relative_transform,
                                       occlusion_boundary_mask):
        seq = generate_synthetic_sequence(21, 6, (128, 64), motion_scale=0.7)
        t, s = 2, 1
        with no_grad():
            warped, valid = synthesize(
                Tensor(seq.frames[s][None]), Tensor(seq.depths[t][None, None]),
                Tensor(relative_transform(seq, t, s)[None]), seq.intrinsics)
        err = np.abs(warped.data[0] - seq.frames[t]).mean(axis=0)
        keep = valid[0, 0] & ~occlusion_boundary_mask(seq.depths[t])
        assert err[keep].mean() < 0.02


class TestMoverAutoMask:
    def test_camera_speed_mover_is_masked_out(self, relative_transform,
                                              reconstruction_grad):
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
                unwarped.append(photometric_loss(Tensor(seq.frames[s][None]), tgt, 0.85))
                valid.append(ok)
        # the objective training runs passes no gradient to masked pixels
        _, grad = reconstruction_grad(unwarped, warped, np.logical_or.reduce(valid))
        mover = seq.mover_mask[t]
        assert mover.sum() > 100
        assert (grad[0, 0][mover] == 0).mean() >= 0.90
        # the static remainder keeps most pixels
        assert (grad[0, 0][~mover] != 0).mean() > 0.5


# augment's first draw flips at seed 2 and does not at seed 0
NO_FLIP_SEED, FLIP_SEED = 0, 2


class TestAugment:
    MIRROR = np.diag([-1.0, 1.0, 1.0, 1.0])

    def make_sequence(self, seed=4):
        # an off-center principal point, so that a flip changes cx
        intr = CameraIntrinsics(fx=57.6, fy=57.6, cx=36.0, cy=15.5,
                                width=SIZE[0], height=SIZE[1])
        return generate_synthetic_sequence(seed, 3, SIZE, intrinsics=intr)

    def make_triplet(self, seed=4):
        seq = self.make_sequence(seed)
        return Triplet(frames=(seq.frames[0], seq.frames[1], seq.frames[2]),
                       intrinsics=seq.intrinsics, gt_depth=seq.depths[1])

    def test_deterministic_per_seed(self):
        t = self.make_triplet()
        a = augment(t, seed=12)
        b = augment(t, seed=12)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)
        if a.frames_jittered is not None:
            for fa, fb in zip(a.frames_jittered, b.frames_jittered):
                np.testing.assert_array_equal(fa, fb)

    def test_flip_is_involution(self):
        t = self.make_triplet()
        once = augment(t, seed=FLIP_SEED)
        assert once.intrinsics.cx != t.intrinsics.cx
        twice = augment(once, seed=FLIP_SEED)
        for fa, fb in zip(twice.frames, t.frames):
            np.testing.assert_array_equal(fa, fb)
        assert twice.intrinsics.cx == pytest.approx(t.intrinsics.cx)
        np.testing.assert_array_equal(twice.gt_depth, t.gt_depth)

    def test_flip_mirrors_principal_point(self):
        t = self.make_triplet()
        flipped = augment(t, seed=FLIP_SEED)
        w = t.intrinsics.width
        assert flipped.intrinsics.cx == pytest.approx(w - 1 - t.intrinsics.cx)

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

    def test_mixed_flip_batch_warps_each_sample_with_its_camera(self):
        """One warp call over an unflipped and a flipped sample, each with its
        own camera (cx 36 and 27), gives the flipped sample the mirror image
        of the unflipped one's sampling points and warped image."""
        seq = self.make_sequence()
        t = self.make_triplet()
        batch = [augment(t, seed=seed) for seed in (NO_FLIP_SEED, FLIP_SEED)]
        cams = [b.intrinsics for b in batch]
        assert [c.cx for c in cams] == [36.0, 27.0]
        source = Tensor(np.stack([b.frames[2] for b in batch]))
        depth = Tensor(np.stack([b.gt_depth for b in batch])[:, None])
        # next-camera-from-target from the renderer's world-from-camera
        # poses; mirroring the world's and every camera's x axis maps it to
        # M @ T @ M for the flipped sample
        rel = np.linalg.inv(seq.poses[2]) @ seq.poses[1]
        transform = Tensor(np.stack([rel, self.MIRROR @ rel @ self.MIRROR]))
        with no_grad():
            coords, valid = project(backproject(depth, cams), cams, transform)
            warped, _ = synthesize(source, depth, transform, cams)
        mirrored = coords.data[1][:, ::-1].copy()
        mirrored[..., 0] = SIZE[0] - 1 - mirrored[..., 0]
        np.testing.assert_allclose(mirrored, coords.data[0], rtol=0, atol=1e-9)
        np.testing.assert_array_equal(valid[1, 0][:, ::-1], valid[0, 0])
        assert valid[0, 0].mean() > 0.5
        np.testing.assert_allclose(warped.data[1][:, :, ::-1], warped.data[0],
                                   rtol=0, atol=1e-9)

    def test_flip_with_mirrored_cx_preserves_warp_geometry(self, relative_transform):
        """Flipping frames, depth and cx together reproduces the unflipped
        warp; keeping the original cx breaks it. An off-center principal
        point makes the mirroring non-trivial."""
        intr = CameraIntrinsics(fx=115.2, fy=115.2, cx=70.0, cy=31.5,
                                width=128, height=64)
        seq = generate_synthetic_sequence(13, 4, (128, 64), intrinsics=intr)
        t, s = 1, 2
        tf = relative_transform(seq, t, s)
        tf_flipped = self.MIRROR @ tf @ self.MIRROR
        w = intr.width

        def warp_error(frames_s, depth_t, target, intr, transform):
            with no_grad():
                out, valid = synthesize(Tensor(frames_s[None]),
                                        Tensor(depth_t[None, None]),
                                        Tensor(transform[None]), intr)
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


class TestResizeDepth:
    def test_interpolates_inverse_depth(self):
        # inverse depths 1 and 1/4 blend to 13/16 and 7/16 between the
        # pixel centers; the borders clamp
        depth = np.array([[1.0, 4.0]] * 2)
        np.testing.assert_allclose(resize_depth(depth, (2, 4)),
                                   [[1.0, 16 / 13, 16 / 7, 4.0]] * 2, rtol=1e-12)

    def test_same_shape_passes_through(self):
        depth = np.ones((2, 3))
        assert resize_depth(depth, (2, 3)) is depth


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
        trip = DirectorySource(tmp_path).triplet(0)
        assert trip.frames[1].shape == (3, 64, 128)
        # 8-bit quantization bounds the reload error
        assert np.abs(trip.frames[1] - seq.frames[1]).max() < 1.0 / 255.0 + 1e-9
        np.testing.assert_allclose(trip.gt_depth, seq.depths[1], atol=1e-6)

        half = DirectorySource(tmp_path, size=(64, 32)).triplet(0)
        assert half.frames[1].shape == (3, 32, 64)
        assert half.intrinsics.fx == pytest.approx(seq.intrinsics.fx / 2)
        assert half.intrinsics.cx == pytest.approx(seq.intrinsics.cx / 2)
        np.testing.assert_array_equal(half.gt_depth, trip.gt_depth)

    def test_sparse_ground_truth_keeps_its_stored_resolution(self, tmp_path):
        # every other row invalid: resizing to the frames' size would blend
        # the zeros into valid depths and mark every pixel valid
        seq = generate_synthetic_sequence(3, 3, (128, 64))
        save_dataset(seq, tmp_path)
        sparse = seq.depths[1].astype(np.float32)
        sparse[::2] = 0.0
        write_f32(tmp_path / "depth" / "000001.f32", sparse)
        trip = DirectorySource(tmp_path, size=(64, 32)).triplet(0)
        assert trip.frames[1].shape == (3, 32, 64)
        np.testing.assert_array_equal(trip.gt_depth, sparse)
        assert (trip.gt_depth > 0).mean() == 0.5

    @pytest.mark.parametrize("kind", ["directory", "synthetic"])
    @pytest.mark.parametrize("i", [-1, 1])
    def test_boundary_indices_rejected(self, kind, i, tmp_path):
        # three frames make one triplet; -1 would wrap round to the last
        # frame in memory, 1 would run past the end
        if kind == "directory":
            save_dataset(generate_synthetic_sequence(3, 3, SIZE), tmp_path)
            src = DirectorySource(tmp_path)
        else:
            src = SyntheticSource(3, 3, SIZE)
        with pytest.raises(IndexError,
                           match=f"^triplet {i} needs neighbors; valid range is 0..0$"):
            src.triplet(i)

    def test_missing_directory_errors_with_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="frames"):
            DirectorySource(tmp_path / "nope")

    def test_text_files_are_read_once(self, tmp_path, monkeypatch):
        save_dataset(generate_synthetic_sequence(3, 5, SIZE), tmp_path)
        src = DirectorySource(tmp_path)
        first = [src.triplet(i) for i in range(len(src))]
        (tmp_path / "intrinsics.txt").unlink()
        monkeypatch.setattr(Path, "glob", lambda *a: pytest.fail("frames globbed again"))
        for i, trip in enumerate(first):
            assert src.triplet(i).intrinsics == trip.intrinsics

    @pytest.mark.parametrize("name,text,message", [
        ("intrinsics.txt", "50 50 31.5\n", "expected 4 numbers.*found 3"),
        ("intrinsics.txt", "50 50 31.5 15.5 7\n", "expected 4 numbers.*found 5"),
        ("intrinsics.txt", "a b c d\n", "could not convert"),
        ("intrinsics.txt", "0 50 31.5 15.5\n", "focal lengths must be positive"),
        ("intrinsics.txt", "50 -50 31.5 15.5\n", "focal lengths must be positive"),
    ], ids=["three", "five", "words", "zero-fx", "negative-fy"])
    def test_malformed_text_names_the_file(self, tmp_path, name, text, message):
        save_dataset(generate_synthetic_sequence(3, 3, SIZE), tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            DirectorySource(tmp_path)
        assert str(tmp_path / name) in str(info.value)

    def test_sources(self, tmp_path):
        src = SyntheticSource(seed=1, n_frames=5, size=SIZE)
        assert len(src) == 3
        trip = src.triplet(0)
        assert trip.gt_depth is not None

        save_dataset(src.sequence, tmp_path)
        dsrc = DirectorySource(tmp_path, size=SIZE)
        assert len(dsrc) == 3
        trip2 = dsrc.triplet(0)
        assert trip2.frames[1].shape == trip.frames[1].shape
