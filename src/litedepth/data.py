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
    "SyntheticSequence", "Triplet", "augment", "generate_synthetic_sequence",
    "resize_depth", "resize_frame", "save_dataset", "SyntheticSource",
    "DirectorySource",
]

# layout and trajectory are sized together so that per-frame disparities
# span several pixels in the foreground and stay measurable on the
# background, which is what makes the toy task learnable at 64x32
_N_RECTS = 7                     # textured rectangles in front of the background
_RECT_DEPTHS = (2.5, 12.0)       # rectangles sit in front of the background
_BACKGROUND_DEPTH = 18.0
_MOVER_DEPTH = 2.2               # in front of everything else, never occluded
_FORWARD_STEP = 0.06             # per-frame dolly, world units
_LATERAL_AMP = (0.44, 0.12)      # x / y sway amplitude over the sequence
_ROTATION_AMP = 0.015            # radians of yaw/pitch sway
# rays cast and textured at a time, a tenth of a 640x192 frame: the passes'
# temporaries then stay ~1.3 MiB whatever the resolution (~9 MiB for that
# frame in one piece), while 8 Ki chunks already render ~10% slower from
# their extra numpy calls
_RENDER_CHUNK = 12 * 1024


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


def _lattice_hash(ix: np.ndarray, iy: np.ndarray, salt: float) -> np.ndarray:
    h = np.sin(ix * 12.9898 + iy * 78.233 + salt) * 43758.5453
    return h - np.floor(h)


def _texture(rect: _Rect, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smooth procedural color at rectangle-local coordinates; anchoring the
    texture to the rectangle keeps co-moving objects pixel-identical.

    Each octave and channel adds value noise: lattice hashes, cosine-blended
    between the four corners of each pixel's cell (Perlin 1985). It is
    aperiodic, so wrong depths that shift sampling by one period cannot
    match photometrically. An octave's cell geometry serves all three
    channels, and each lattice point is hashed once; the values are
    bit-identical to hashing each pixel's four corners.
    """
    color = np.broadcast_to(rect.base_color[:, None], (3, u.size)).copy()
    for cell, salts, amp in zip(rect.cells, rect.salts, rect.amps):
        x, y = u / cell, v / cell
        ix, iy = np.floor(x), np.floor(y)
        sx = 0.5 - 0.5 * np.cos(np.pi * (x - ix))
        sy = 0.5 - 0.5 * np.cos(np.pi * (y - iy))
        tx, ty = 1 - sx, 1 - sy
        x0, y0 = ix.min(), iy.min()
        gx = x0 + np.arange(int(ix.max() - x0) + 2)      # lattice columns
        gy = y0 + np.arange(int(iy.max() - y0) + 2)      # lattice rows
        i00 = (iy - y0).astype(np.int64) * gx.size + (ix - x0).astype(np.int64)
        for ch in range(3):
            lattice = _lattice_hash(gx, gy[:, None], salts[ch])
            # products left to right, never tx * ty first: rounding stays put
            noise = (lattice.take(i00) * tx * ty + lattice.take(i00 + 1) * sx * ty
                     + lattice.take(i00 + gx.size) * tx * sy
                     + lattice.take(i00 + gx.size + 1) * sx * sy)
            color[ch] += amp * (2.0 * noise - 1.0)
    return np.clip(color, 0.02, 0.98)


def _render_frame(rects: List[_Rect], rays_world: np.ndarray, cam_pos: np.ndarray,
                  mover_shift: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-cast one frame: color (3, P), depth (P,) and the index of the
    rect each of the P rays hits. The moving rect is displaced by
    ``mover_shift``. A first pass keeps only the nearest hit per ray; the
    second recomputes the hit point of each rect's winning rays alone.

    Both passes run over ``_RENDER_CHUNK`` rays at a time. Every value is
    computed per ray, and a lattice point hashes to the same value whichever
    chunk asks for it, so the chunks change no bit of the output."""
    centers = [r.center + mover_shift if r.moving else r.center for r in rects]
    n = rays_world.shape[1]
    frame = np.zeros((3, n))
    hit_depth = np.full(n, np.inf)
    hit_index = np.full(n, -1, dtype=np.int64)
    for start in range(0, n, _RENDER_CHUNK):
        span = slice(start, start + _RENDER_CHUNK)
        dx, dy, dz = rays_world[:, span]
        color, depth, index = frame[:, span], hit_depth[span], hit_index[span]
        for k, (rect, center) in enumerate(zip(rects, centers)):
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (center[2] - cam_pos[2]) / dz
            px = cam_pos[0] + s * dx - center[0]
            py = cam_pos[1] + s * dy - center[1]
            # s < depth also rejects s = inf and NaN
            closer = ((s > 0.1) & (s < depth) & (np.abs(px) <= rect.half[0])
                      & (np.abs(py) <= rect.half[1]))
            depth[closer] = s[closer]
            index[closer] = k

        for k, (rect, center) in enumerate(zip(rects, centers)):
            sel = np.flatnonzero(index == k)
            if sel.size:
                s = depth[sel]
                color[:, sel] = _texture(rect, cam_pos[0] + s * dx[sel] - center[0],
                                         cam_pos[1] + s * dy[sel] - center[1])
    return frame, hit_depth, hit_index


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
                                motion_scale: float = 1.0,
                                intrinsics: Optional[CameraIntrinsics] = None
                                ) -> SyntheticSequence:
    """Render a deterministic pinhole sequence with exact depth and poses.

    size is (width, height), any size. The camera dollies forward with
    lateral sway; rotation is disabled when a mover is present so the
    co-moving rectangle renders pixel-identically in every frame.
    ``motion_scale`` scales the whole trajectory (0 pins the camera).
    Occlusion resolves to the nearest surface.
    """
    w, h = size
    if n_frames < 1:
        raise ValueError("need at least one frame")
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
    for _ in range(_N_RECTS):
        depth = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        rects.append(make_rect(depth, rng.uniform(-0.7, 0.7),
                               rng.uniform(-0.7, 0.7), rng.uniform(0.22, 0.45)))
    if mover:
        rects.append(make_rect(_MOVER_DEPTH, rng.uniform(-0.2, 0.2),
                               rng.uniform(-0.2, 0.2), 0.3, moving=True))
    background = make_rect(_BACKGROUND_DEPTH, 0.0, 0.0, 1.0)
    background.half = (1e6, 1e6)
    rects.append(background)

    rays_cam = intr.inverse_matrix() @ np.stack(      # (3, HW), z row == 1
        [*np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)),
         np.ones((h, w))]).reshape(3, -1)

    frames = np.zeros((n_frames, 3, h, w))
    depths = np.zeros((n_frames, h, w))
    poses = np.zeros((n_frames, 4, 4))
    mover_mask = np.zeros((n_frames, h, w), dtype=bool) if mover else None

    for i in range(n_frames):
        pose = _camera_pose(i, max(n_frames, 2), rotate=not mover,
                            motion_scale=motion_scale)
        poses[i] = pose
        cam_pos = pose[:3, 3]
        frame, hit_depth, hit_index = _render_frame(
            rects, pose[:3, :3] @ rays_cam, cam_pos,
            cam_pos - poses[0][:3, 3])                  # same velocity as camera
        frames[i] = frame.reshape(3, h, w)
        depths[i] = hit_depth.reshape(h, w)
        if mover_mask is not None:
            mover_idx = next(k for k, r in enumerate(rects) if r.moving)
            mover_mask[i] = (hit_index == mover_idx).reshape(h, w)
        del frame, hit_depth, hit_index       # not held through the next render

    return SyntheticSequence(frames, depths, poses, intr, mover_mask)


# -------------------------------------------------------------------- triplets


@dataclass
class Triplet:
    """Previous/target/next frames with intrinsics and, optionally, the
    target's ground-truth depth at its stored resolution.

    ``frames`` are the clean images the losses compare against; when
    augmentation adds color jitter, ``frames_jittered`` carries the versions
    the networks see.
    """

    frames: Tuple[np.ndarray, np.ndarray, np.ndarray]
    intrinsics: CameraIntrinsics
    gt_depth: Optional[np.ndarray] = None
    frames_jittered: Optional[Tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        shapes = {f.shape for f in self.frames}
        if len(shapes) != 1:
            raise ValueError(f"triplet frames disagree in shape: {shapes}")

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


def augment(triplet: Triplet, seed: int) -> Triplet:
    """Horizontal flip and color jitter, each with 50% probability.

    The flip applies to all frames and the depth consistently, with the
    principal point mirrored; color jitter
    (brightness/contrast/saturation +-0.2, hue +-0.1, random order) is
    identical across the three frames and only feeds the networks, leaving
    the loss targets clean.
    """
    rng = np.random.default_rng(seed)
    do_flip = bool(rng.random() < 0.5)
    do_jitter = bool(rng.random() < 0.5)
    brightness, saturation, contrast = rng.uniform(0.8, 1.2, size=3)
    hue = rng.uniform(-0.1, 0.1)
    order = rng.permutation(4)

    frames = tuple(f.copy() for f in triplet.frames)
    intr = triplet.intrinsics
    gt_depth = triplet.gt_depth
    if do_flip:
        frames = tuple(f[:, :, ::-1].copy() for f in frames)
        intr = intr.flipped()
        if gt_depth is not None:
            gt_depth = gt_depth[:, ::-1].copy()

    jittered = None
    if do_jitter:
        jittered = tuple(_jitter(f, order, brightness, contrast, saturation, hue)
                         for f in frames)
    return replace(triplet, frames=frames, intrinsics=intr, gt_depth=gt_depth,
                   frames_jittered=jittered)


def resize_frame(frame: np.ndarray, size: Tuple[int, int]) -> np.ndarray:
    """A (C, H, W) image resized bilinearly to size (width, height)."""
    w, h = size
    if frame.shape[1:] == (h, w):
        return frame
    with no_grad():
        out = resize_bilinear(Tensor(frame[None]), size=(h, w))
    return out.data[0]


def resize_depth(depth: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """A depth map (H, W) at shape (h, w): its inverse resized bilinearly,
    then inverted back."""
    if depth.shape == shape:
        return depth
    return 1.0 / resize_frame(1.0 / depth[None], shape[::-1])[0]


def save_dataset(seq: SyntheticSequence, outdir: Union[str, Path]) -> None:
    """Write the documented directory layout: frames/NNNNNN.png,
    intrinsics.txt, depth/NNNNNN.f32 and poses.txt. The poses record the
    renderer's exact trajectory; no reader of the layout parses them."""
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


def _check_triplet_index(i: int, n: int) -> None:
    """Refuse a triplet index outside 0..n-1 of a source with n triplets."""
    if not 0 <= i < n:
        raise IndexError(f"triplet {i} needs neighbors; valid range is 0..{n - 1}")


class SyntheticSource:
    """In-memory triplet source over a rendered synthetic sequence."""

    def __init__(self, seed: int, n_frames: int, size: Tuple[int, int],
                 mover: bool = False):
        self.sequence = generate_synthetic_sequence(seed, n_frames, size, mover)

    def __len__(self) -> int:
        return max(len(self.sequence) - 2, 0)

    def triplet(self, i: int) -> Triplet:
        """Frames i, i + 1 and i + 2, centred on frame i + 1."""
        _check_triplet_index(i, len(self))
        t = i + 1
        seq = self.sequence
        return Triplet(
            frames=(seq.frames[t - 1], seq.frames[t], seq.frames[t + 1]),
            intrinsics=seq.intrinsics,
            gt_depth=seq.depths[t],
        )


class DirectorySource:
    """Triplet source over a dataset directory.

    Layout: frames/NNNNNN.png, intrinsics.txt with "fx fy cx cy" and
    optional depth/NNNNNN.f32; a poses.txt is not read. The frame list and
    the camera are read once, here; each triplet reads its three frames and
    its depth. Frames are resized to `size` (width, height) with the
    intrinsics rescaled to match; the depth keeps its stored resolution, so
    resizing never blends invalid zeros into valid depths. A malformed
    intrinsics.txt raises ValueError naming the file.
    """

    def __init__(self, path: Union[str, Path],
                 size: Optional[Tuple[int, int]] = None):
        self.path = Path(path)
        self.size = size
        frame_dir = self.path / "frames"
        self.frame_files = sorted(frame_dir.glob("*.png"))
        if not self.frame_files:
            raise FileNotFoundError(f"no frames found under {frame_dir}")
        n = len(self.frame_files)
        if n < 3:
            raise ValueError(f"{path}: need at least 3 frames, found {n}")
        self.camera = _read_camera(self.path / "intrinsics.txt")

    def __len__(self) -> int:
        return len(self.frame_files) - 2

    def triplet(self, i: int) -> Triplet:
        """Frames i, i + 1 and i + 2, centred on frame i + 1."""
        _check_triplet_index(i, len(self))
        files = self.frame_files[i: i + 3]
        frames = [load_image(f) for f in files]
        _, h0, w0 = frames[0].shape
        intr = CameraIntrinsics(*self.camera, width=w0, height=h0)
        if self.size is not None:
            frames = [resize_frame(f, self.size) for f in frames]
            intr = intr.scaled(*self.size)

        depth_file = self.path / "depth" / f"{files[1].stem}.f32"
        gt_depth = read_f32(depth_file)[0] if depth_file.exists() else None
        return Triplet(tuple(frames), intr, gt_depth=gt_depth)


def _read_camera(path: Path) -> Tuple[float, float, float, float]:
    """fx fy cx cy from intrinsics.txt: exactly four numbers, positive focal
    lengths."""
    if not path.exists():
        raise FileNotFoundError(f"missing {path}")
    try:
        values = [float(v) for v in path.read_text().split()]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(values) != 4:
        raise ValueError(f"{path}: expected 4 numbers (fx fy cx cy), found {len(values)}")
    fx, fy, cx, cy = values
    if not (fx > 0 and fy > 0):
        raise ValueError(f"{path}: focal lengths must be positive, got fx={fx}, fy={fy}")
    return fx, fy, cx, cy

