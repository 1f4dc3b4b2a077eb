"""Synthetic scenes with exact ground truth, frame triplets, augmentation
and dataset directory handling.

The renderer ray-casts textured fronto-parallel rectangles over a background
plane, entirely in plain numpy: an implementation of the scene geometry that
shares no code with the differentiable warper, so the two can cross-validate
each other. Everything is a deterministic function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .engine import Tensor, no_grad, resize_bilinear
from .pngio import load_image, read_f32, save_image, write_f32
from .warp import CameraIntrinsics

__all__ = [
    "SyntheticSequence", "Triplet", "augment",
    "generate_synthetic_sequence", "load_triplet_dir", "occlusion_boundary_mask",
    "save_dataset", "SyntheticSource", "DirectorySource",
]

DEPTH_RANGE = (2.0, 50.0)        # scene depth budget in world units
# layout and trajectory are sized together so that per-frame disparities
# span several pixels in the foreground and stay measurable on the
# background, which is what makes the toy task learnable at 64x32
_RECT_DEPTHS = (2.5, 12.0)       # rectangles live well inside the budget
_BACKGROUND_DEPTH = 18.0
_MOVER_DEPTH = 2.2               # in front of everything else, never occluded
_FORWARD_STEP = 0.06             # per-frame dolly, world units
_LATERAL_AMP = (0.44, 0.12)      # x / y sway amplitude over the sequence
_ROTATION_AMP = 0.015            # radians of yaw/pitch sway
_MIRROR_X = np.diag([-1.0, 1.0, 1.0, 1.0])   # horizontal flip of a pose


@dataclass
class _Rect:
    center: np.ndarray           # world (x, y, z) at frame 0
    half: Tuple[float, float]
    base_color: np.ndarray       # (3,)
    cells: np.ndarray            # (octaves,) noise cell size, world units
    salts: np.ndarray            # (octaves, 3) per-channel hash salts
    amps: np.ndarray             # (octaves,)
    moving: bool = False


@dataclass
class SyntheticSequence:
    """Rendered frames plus exact geometry ground truth."""

    frames: np.ndarray           # (n, 3, H, W) in [0, 1]
    depths: np.ndarray           # (n, H, W) camera-frame depth of frame i
    poses: np.ndarray            # (n, 4, 4) world-from-camera
    intrinsics: CameraIntrinsics
    mover_mask: Optional[np.ndarray] = None   # (n, H, W) bool, mover pixels

    def __len__(self) -> int:
        return self.frames.shape[0]

    def relative_transform(self, target: int, source: int) -> np.ndarray:
        """Source-camera-from-target-camera matrix from ground-truth poses."""
        return np.linalg.inv(self.poses[source]) @ self.poses[target]


def _lattice_hash(ix: np.ndarray, iy: np.ndarray, salt: float) -> np.ndarray:
    h = np.sin(ix * 12.9898 + iy * 78.233 + salt) * 43758.5453
    return h - np.floor(h)


def _value_noise(u: np.ndarray, v: np.ndarray, cell: float, salt: float) -> np.ndarray:
    """Aperiodic smooth noise in [0, 1] via cosine-interpolated lattice
    hashing. Aperiodicity matters: a repeating texture would let wrong depths
    that shift sampling by one period match photometrically."""
    x, y = u / cell, v / cell
    ix, iy = np.floor(x), np.floor(y)
    sx = 0.5 - 0.5 * np.cos(np.pi * (x - ix))
    sy = 0.5 - 0.5 * np.cos(np.pi * (y - iy))
    v00 = _lattice_hash(ix, iy, salt)
    v10 = _lattice_hash(ix + 1, iy, salt)
    v01 = _lattice_hash(ix, iy + 1, salt)
    v11 = _lattice_hash(ix + 1, iy + 1, salt)
    return (v00 * (1 - sx) * (1 - sy) + v10 * sx * (1 - sy)
            + v01 * (1 - sx) * sy + v11 * sx * sy)


def _texture(rect: _Rect, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smooth procedural color at rectangle-local coordinates; anchoring the
    texture to the rectangle keeps co-moving objects pixel-identical."""
    color = np.broadcast_to(rect.base_color[:, None], (3, u.size)).copy()
    for cell, salts, amp in zip(rect.cells, rect.salts, rect.amps):
        for ch in range(3):
            color[ch] += amp * (2.0 * _value_noise(u, v, cell, salts[ch]) - 1.0)
    return np.clip(color, 0.02, 0.98)


def _camera_pose(i: int, n: int, rotate: bool, motion_scale: float) -> np.ndarray:
    """Smooth world-from-camera pose along the trajectory."""
    phase = 2.0 * np.pi * i / n
    c = motion_scale * np.array([_LATERAL_AMP[0] * np.sin(phase),
                                 _LATERAL_AMP[1] * np.sin(2.0 * phase),
                                 _FORWARD_STEP * i])
    pose = np.eye(4)
    if rotate and motion_scale != 0.0:
        yaw = motion_scale * _ROTATION_AMP * np.sin(phase)
        pitch = 0.5 * motion_scale * _ROTATION_AMP * np.cos(phase)
        cy_, sy_ = np.cos(yaw), np.sin(yaw)
        cp_, sp_ = np.cos(pitch), np.sin(pitch)
        r_yaw = np.array([[cy_, 0, sy_], [0, 1, 0], [-sy_, 0, cy_]])
        r_pitch = np.array([[1, 0, 0], [0, cp_, -sp_], [0, sp_, cp_]])
        pose[:3, :3] = r_yaw @ r_pitch
    pose[:3, 3] = c
    return pose


def generate_synthetic_sequence(seed: int, n_frames: int,
                                size: Tuple[int, int],
                                mover: bool = False,
                                n_rects: int = 7,
                                motion_scale: float = 1.0,
                                intrinsics: Optional[CameraIntrinsics] = None
                                ) -> SyntheticSequence:
    """Render a deterministic pinhole sequence with exact depth and poses.

    size is (width, height), both divisible by 32. The camera dollies
    forward with lateral sway; rotation is disabled when a mover is present
    so the co-moving rectangle renders pixel-identically in every frame.
    ``motion_scale`` scales the whole trajectory (0 pins the camera).
    Occlusion resolves to the nearest surface.
    """
    w, h = size
    if w % 32 or h % 32:
        raise ValueError(f"size {w}x{h} must be divisible by 32")
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if n_rects < 1:
        raise ValueError("degenerate layout: need at least one rectangle")
    rng = np.random.default_rng(seed)
    if intrinsics is None:
        intr = CameraIntrinsics(fx=0.9 * w, fy=0.9 * w,
                                cx=(w - 1) / 2.0, cy=(h - 1) / 2.0,
                                width=w, height=h)
    else:
        if (intrinsics.width, intrinsics.height) != (w, h):
            raise ValueError(
                f"intrinsics size {intrinsics.width}x{intrinsics.height} "
                f"does not match render size {w}x{h}")
        intr = intrinsics

    def make_rect(depth, ang_x, ang_y, frac, moving=False):
        span_x = depth * w / (2.0 * intr.fx)
        span_y = depth * h / (2.0 * intr.fy)
        # apparent noise cells of ~8 and ~5 pixels: coarse enough that
        # bilinear resampling stays well under the photometric budget, fine
        # enough to carry a parallax signal
        cells = np.array([p * depth / intr.fx * rng.uniform(0.9, 1.1)
                          for p in (8.0, 5.0)])
        return _Rect(
            center=np.array([ang_x * span_x, ang_y * span_y, depth]),
            half=(frac * span_x, frac * span_y),
            base_color=rng.uniform(0.25, 0.75, size=3),
            cells=cells,
            salts=rng.uniform(0.0, 1000.0, size=(2, 3)),
            amps=np.array([0.14, 0.06]),
            moving=moving,
        )

    rects: List[_Rect] = []
    lo, hi = _RECT_DEPTHS
    for _ in range(n_rects):
        depth = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        rects.append(make_rect(depth, rng.uniform(-0.7, 0.7),
                               rng.uniform(-0.7, 0.7), rng.uniform(0.22, 0.45)))
    if mover:
        rects.append(make_rect(_MOVER_DEPTH, rng.uniform(-0.2, 0.2),
                               rng.uniform(-0.2, 0.2), 0.3, moving=True))
    background = make_rect(_BACKGROUND_DEPTH, 0.0, 0.0, 1.0)
    background.half = (1e6, 1e6)
    rects.append(background)

    us, vs = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    rays_cam = intr.inverse_matrix() @ np.stack(
        [us, vs, np.ones_like(us)]).reshape(3, -1)     # (3, HW), z row == 1

    frames = np.zeros((n_frames, 3, h, w))
    depths = np.zeros((n_frames, h, w))
    poses = np.zeros((n_frames, 4, 4))
    mover_mask = np.zeros((n_frames, h, w), dtype=bool) if mover else None

    for i in range(n_frames):
        pose = _camera_pose(i, max(n_frames, 2), rotate=not mover,
                            motion_scale=motion_scale)
        poses[i] = pose
        cam_pos, rot = pose[:3, 3], pose[:3, :3]
        rays_world = rot @ rays_cam                     # (3, HW)

        hit_depth = np.full(rays_cam.shape[1], np.inf)
        hit_index = np.full(rays_cam.shape[1], -1, dtype=np.int64)
        hits = []
        for k, rect in enumerate(rects):
            center = rect.center.copy()
            if rect.moving:
                center += cam_pos - poses[0][:3, 3]     # same velocity as camera
            dz = rays_world[2]
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (center[2] - cam_pos[2]) / dz
            px = cam_pos[0] + s * rays_world[0] - center[0]
            py = cam_pos[1] + s * rays_world[1] - center[1]
            inside = ((s > 0.1) & np.isfinite(s)
                      & (np.abs(px) <= rect.half[0]) & (np.abs(py) <= rect.half[1]))
            closer = inside & (s < hit_depth)
            hit_depth = np.where(closer, s, hit_depth)
            hit_index = np.where(closer, k, hit_index)
            hits.append((px, py))

        frame = np.zeros((3, rays_cam.shape[1]))
        for k, rect in enumerate(rects):
            sel = hit_index == k
            if not sel.any():
                continue
            px, py = hits[k]
            frame[:, sel] = _texture(rect, px[sel], py[sel])
        frames[i] = frame.reshape(3, h, w)
        depths[i] = hit_depth.reshape(h, w)
        if mover_mask is not None:
            mover_idx = next(k for k, r in enumerate(rects) if r.moving)
            mover_mask[i] = (hit_index == mover_idx).reshape(h, w)

    return SyntheticSequence(frames, depths, poses, intr, mover_mask)


def occlusion_boundary_mask(depth: np.ndarray, rel_jump: float = 0.03,
                            dilate: int = 2) -> np.ndarray:
    """True near depth discontinuities; used to exclude pixels whose warp is
    undefined by construction (disocclusions)."""
    jump = np.zeros_like(depth, dtype=bool)
    rel = np.abs(np.diff(depth, axis=1)) / np.minimum(depth[:, 1:], depth[:, :-1])
    jump[:, 1:] |= rel > rel_jump
    jump[:, :-1] |= rel > rel_jump
    rel = np.abs(np.diff(depth, axis=0)) / np.minimum(depth[1:], depth[:-1])
    jump[1:] |= rel > rel_jump
    jump[:-1] |= rel > rel_jump
    out = jump
    for _ in range(dilate):
        grown = out.copy()
        grown[1:] |= out[:-1]
        grown[:-1] |= out[1:]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


# -------------------------------------------------------------------- triplets


@dataclass
class Triplet:
    """Previous/target/next frames with intrinsics and optional ground truth.

    ``frames`` are the clean images the losses compare against; when
    augmentation adds color jitter, ``frames_jittered`` carries the versions
    the networks see.
    """

    frames: Tuple[np.ndarray, np.ndarray, np.ndarray]
    intrinsics: CameraIntrinsics
    gt_depth: Optional[np.ndarray] = None
    gt_poses: Optional[np.ndarray] = None      # (3, 4, 4) world-from-camera
    frames_jittered: Optional[Tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        shapes = {f.shape for f in self.frames}
        if len(shapes) != 1:
            raise ValueError(f"triplet frames disagree in shape: {shapes}")
        _, h, w = self.frames[0].shape
        if h % 32 or w % 32:
            raise ValueError(f"triplet size {w}x{h} must be divisible by 32")

    def network_frames(self) -> Tuple[np.ndarray, ...]:
        return self.frames_jittered if self.frames_jittered is not None else self.frames


def _rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    r, g, b = img
    maxc = img.max(axis=0)
    minc = img.min(axis=0)
    v = maxc
    span = maxc - minc
    s = np.where(maxc > 0, span / np.maximum(maxc, 1e-12), 0.0)
    safe = np.where(span > 0, span, 1.0)
    rc, gc, bc = (maxc - r) / safe, (maxc - g) / safe, (maxc - b) / safe
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(span > 0, (h / 6.0) % 1.0, 0.0)
    return np.stack([h, s, v])


def _hsv_to_rgb(img: np.ndarray) -> np.ndarray:
    h, s, v = img
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    choices = [np.stack(ch) for ch in
               ((v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q))]
    out = np.zeros_like(img)
    for k, ch in enumerate(choices):
        out = np.where(i[None] == k, ch, out)
    return out


def _jitter(frame: np.ndarray, order, brightness, contrast, saturation, hue):
    gray_w = np.array([0.299, 0.587, 0.114])

    def apply_brightness(x):
        return np.clip(x * brightness, 0.0, 1.0)

    def apply_contrast(x):
        mean = (gray_w @ x.reshape(3, -1)).mean()
        return np.clip(mean + (x - mean) * contrast, 0.0, 1.0)

    def apply_saturation(x):
        gray = np.tensordot(gray_w, x, axes=([0], [0]))[None]
        return np.clip(gray + (x - gray) * saturation, 0.0, 1.0)

    def apply_hue(x):
        hsv = _rgb_to_hsv(x)
        hsv[0] = (hsv[0] + hue) % 1.0
        return np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)

    ops = [apply_brightness, apply_contrast, apply_saturation, apply_hue]
    out = frame
    for idx in order:
        out = ops[idx](out)
    return out


def augment(triplet: Triplet, seed: int, force_flip: Optional[bool] = None) -> Triplet:
    """Horizontal flip and color jitter, each with 50% probability.

    The flip applies to all frames, the depth and the poses consistently,
    with the principal point mirrored; color jitter
    (brightness/contrast/saturation +-0.2, hue +-0.1, random order) is
    identical across the three frames and only feeds the networks, leaving
    the loss targets clean. ``force_flip`` overrides the flip decision and
    leaves every other draw of the seed as it is.
    """
    rng = np.random.default_rng(seed)
    do_flip = bool(rng.random() < 0.5)
    if force_flip is not None:
        do_flip = force_flip
    do_jitter = bool(rng.random() < 0.5)
    brightness, saturation, contrast = rng.uniform(0.8, 1.2, size=3)
    hue = rng.uniform(-0.1, 0.1)
    order = rng.permutation(4)

    frames = tuple(f.copy() for f in triplet.frames)
    intr = triplet.intrinsics
    gt_depth = triplet.gt_depth
    gt_poses = triplet.gt_poses
    if do_flip:
        frames = tuple(f[:, :, ::-1].copy() for f in frames)
        intr = intr.flipped()
        if gt_depth is not None:
            gt_depth = gt_depth[:, ::-1].copy()
        if gt_poses is not None:
            # mirroring the world's and every camera's x axis maps each
            # relative transform T to M @ T @ M as well
            gt_poses = _MIRROR_X @ gt_poses @ _MIRROR_X

    jittered = None
    if do_jitter:
        jittered = tuple(_jitter(f, order, brightness, contrast, saturation, hue)
                         for f in frames)
    return replace(triplet, frames=frames, intrinsics=intr, gt_depth=gt_depth,
                   gt_poses=gt_poses, frames_jittered=jittered)


def _resize_frame(frame: np.ndarray, size: Tuple[int, int]) -> np.ndarray:
    w, h = size
    if frame.shape[1:] == (h, w):
        return frame
    with no_grad():
        out = resize_bilinear(Tensor(frame[None]), size=(h, w))
    return out.data[0]


def load_triplet_dir(path: Union[str, Path], index: int,
                     size: Optional[Tuple[int, int]] = None) -> Triplet:
    """Load frames (index-1, index, index+1) from a dataset directory.

    Layout: frames/NNNNNN.png, intrinsics.txt with "fx fy cx cy", optional
    depth/NNNNNN.f32 and poses.txt. Frames are resized to `size` (width,
    height) with the intrinsics rescaled to match.
    """
    root = Path(path)
    frame_dir = root / "frames"
    frame_files = sorted(frame_dir.glob("*.png"))
    if not frame_files:
        raise FileNotFoundError(f"no frames found under {frame_dir}")
    if index < 1 or index > len(frame_files) - 2:
        raise IndexError(
            f"index {index} needs neighbors; valid range is 1..{len(frame_files) - 2}")
    intr_file = root / "intrinsics.txt"
    if not intr_file.exists():
        raise FileNotFoundError(f"missing {intr_file}")
    fx, fy, cx, cy = (float(v) for v in intr_file.read_text().split()[:4])

    frames = []
    for i in (index - 1, index, index + 1):
        frames.append(load_image(frame_files[i]))
    _, h0, w0 = frames[0].shape
    intr = CameraIntrinsics(fx, fy, cx, cy, width=w0, height=h0)
    if size is not None:
        frames = [_resize_frame(f, size) for f in frames]
        intr = intr.scaled(*size)

    gt_depth = None
    depth_file = root / "depth" / f"{frame_files[index].stem}.f32"
    if depth_file.exists():
        gt_depth = read_f32(depth_file)[0]
        if size is not None and gt_depth.shape != (size[1], size[0]):
            gt_depth = _resize_frame(gt_depth[None], size)[0]

    gt_poses = None
    pose_file = root / "poses.txt"
    if pose_file.exists():
        rows = np.loadtxt(pose_file).reshape(-1, 4, 4)
        gt_poses = rows[index - 1: index + 2]

    return Triplet(tuple(frames), intr, gt_depth=gt_depth, gt_poses=gt_poses)


def save_dataset(seq: SyntheticSequence, outdir: Union[str, Path]) -> None:
    """Write the documented directory layout: frames/NNNNNN.png,
    intrinsics.txt, depth/NNNNNN.f32 and poses.txt."""
    root = Path(outdir)
    (root / "frames").mkdir(parents=True, exist_ok=True)
    (root / "depth").mkdir(parents=True, exist_ok=True)
    intr = seq.intrinsics
    (root / "intrinsics.txt").write_text(
        f"{intr.fx} {intr.fy} {intr.cx} {intr.cy}\n")
    for i in range(len(seq)):
        save_image(root / "frames" / f"{i:06d}.png", seq.frames[i])
        write_f32(root / "depth" / f"{i:06d}.f32", seq.depths[i])
    np.savetxt(root / "poses.txt", seq.poses.reshape(len(seq), 16))


# --------------------------------------------------------------- frame sources


class SyntheticSource:
    """In-memory triplet source over a rendered synthetic sequence."""

    def __init__(self, seed: int, n_frames: int, size: Tuple[int, int],
                 mover: bool = False):
        self.sequence = generate_synthetic_sequence(seed, n_frames, size, mover)

    def __len__(self) -> int:
        return max(len(self.sequence) - 2, 0)

    def triplet(self, i: int) -> Triplet:
        t = i + 1
        seq = self.sequence
        return Triplet(
            frames=(seq.frames[t - 1], seq.frames[t], seq.frames[t + 1]),
            intrinsics=seq.intrinsics,
            gt_depth=seq.depths[t],
            gt_poses=seq.poses[t - 1: t + 2],
        )


class DirectorySource:
    """Triplet source over a dataset directory."""

    def __init__(self, path: Union[str, Path],
                 size: Optional[Tuple[int, int]] = None):
        self.path = Path(path)
        self.size = size
        n = len(sorted((self.path / "frames").glob("*.png")))
        if n < 3:
            raise ValueError(f"{path}: need at least 3 frames, found {n}")
        self._count = n - 2

    def __len__(self) -> int:
        return self._count

    def triplet(self, i: int) -> Triplet:
        return load_triplet_dir(self.path, i + 1, self.size)
