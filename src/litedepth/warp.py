"""Differentiable novel-view synthesis: backproject a depth map, rigidly
move the points, project into the source camera and sample it bilinearly.

Pixel coordinates refer to pixel centers, matching the package-wide
half-pixel bilinear convention, so an identity-pose warp reproduces
the source exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .engine import Tensor, as_tensor, bilinear_sample, concat, maximum, stack
from .posenet import Pose, pose_to_matrix

__all__ = ["CameraIntrinsics", "Z_EPS", "backproject", "project", "synthesize"]

Z_EPS = 1e-3   # scene units; points closer than this to the camera plane are invalid


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    def inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix())

    def scaled(self, width: int, height: int) -> "CameraIntrinsics":
        """Intrinsics after resizing the image to width x height."""
        sx, sy = width / self.width, height / self.height
        return CameraIntrinsics(self.fx * sx, self.fy * sy,
                                self.cx * sx, self.cy * sy, width, height)

    def flipped(self) -> "CameraIntrinsics":
        """Intrinsics after mirroring the image horizontally."""
        return CameraIntrinsics(self.fx, self.fy, self.width - 1 - self.cx,
                                self.cy, self.width, self.height)


def _pixel_rays(intr: CameraIntrinsics, h: int, w: int) -> np.ndarray:
    """K^-1 applied to every homogeneous pixel center: (3, H*W)."""
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    ones = np.ones_like(us)
    grid = np.stack([us, vs, ones]).reshape(3, -1)
    return intr.inverse_matrix() @ grid


def backproject(depth: Tensor, intr: CameraIntrinsics, strict: bool = True) -> Tensor:
    """Lift a depth map (N, 1, H, W) to camera-frame points (N, 3, H, W).

    strict mode rejects non-positive depth; otherwise depth is clamped to
    Z_EPS (the training-path behavior, where sigmoid outputs keep depth
    positive anyway).
    """
    depth = as_tensor(depth)
    if depth.ndim != 4 or depth.shape[1] != 1:
        raise ValueError(f"depth must be (N, 1, H, W), got {depth.shape}")
    n, _, h, w = depth.shape
    if strict:
        if np.any(depth.data <= 0):
            raise ValueError("non-positive depth in strict mode")
    else:
        depth = maximum(depth, Z_EPS)
    rays = Tensor(_pixel_rays(intr, h, w).astype(depth.dtype))   # (3, HW)
    points = depth.reshape(n, 1, h * w) * rays
    return points.reshape(n, 3, h, w)


def project(points: Tensor, intr: CameraIntrinsics,
            transform: Tensor) -> Tuple[Tensor, np.ndarray]:
    """Rigidly transform points (N, 3, H, W) and project to pixel coords.

    Returns coords (N, H, W, 2) and a boolean validity mask (N, 1, H, W)
    that is false behind the camera (z <= Z_EPS) or outside the image.
    """
    points = as_tensor(points)
    transform = as_tensor(transform)
    n, three, h, w = points.shape
    if three != 3:
        raise ValueError(f"points must be (N, 3, H, W), got {points.shape}")
    flat = points.reshape(n, 3, h * w)
    ones = Tensor(np.ones((n, 1, h * w), dtype=points.dtype))
    hom = concat([flat, ones], axis=1)                 # (N, 4, HW)
    cam = transform @ hom                              # (N, 4, HW)
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]          # (N, HW)
    z_safe = maximum(z, Z_EPS)
    u = x / z_safe * intr.fx + intr.cx
    v = y / z_safe * intr.fy + intr.cy
    coords = stack([u, v], axis=-1).reshape(n, h, w, 2)
    valid = ((z.data > Z_EPS)
             & (u.data >= 0.0) & (u.data <= intr.width - 1.0)
             & (v.data >= 0.0) & (v.data <= intr.height - 1.0))
    return coords, valid.reshape(n, 1, h, w)


def synthesize(source: Tensor, depth: Tensor,
               pose: Union[Pose, Tensor, np.ndarray],
               intr: CameraIntrinsics) -> Tuple[Tensor, np.ndarray]:
    """Warp `source` (N, C, H, W) into the target view given the target's
    depth map and the source-from-target transform.

    Returns the synthesized image and the validity mask (N, 1, H, W).
    Masked-out pixels hold border-clamped samples and are only meaningful
    under the mask. Differentiable w.r.t. source, depth and pose.
    """
    source = as_tensor(source)
    if isinstance(pose, Pose):
        transform = pose_to_matrix(pose)
    else:
        transform = as_tensor(pose)
        if transform.ndim == 2:
            transform = transform.reshape(1, 4, 4)
    if transform.shape[1:] != (4, 4):
        raise ValueError(f"transform must be (N, 4, 4), got {transform.shape}")
    points = backproject(depth, intr, strict=False)
    coords, valid = project(points, intr, transform)
    return bilinear_sample(source, coords), valid
