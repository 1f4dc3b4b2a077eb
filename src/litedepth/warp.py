"""Differentiable novel-view synthesis: backproject a depth map, rigidly
move the points, project into the source camera and sample it bilinearly.

Pixel coordinates refer to pixel centers, matching the package-wide
half-pixel bilinear convention, so an identity-pose warp reproduces
the source exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .engine import Tensor, as_tensor, bilinear_sample, concat, maximum, stack

__all__ = ["CameraIntrinsics", "Cameras", "Z_EPS", "backproject", "project", "synthesize"]

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


Cameras = Union[CameraIntrinsics, Sequence[CameraIntrinsics]]


def _per_sample(intr: Cameras, n: int) -> List[CameraIntrinsics]:
    """One camera per batch sample. A flip mirrors cx for each sample on its
    own, so one training batch can mix principal points."""
    cams = [intr] * n if isinstance(intr, CameraIntrinsics) else list(intr)
    if len(cams) != n:
        raise ValueError(f"{len(cams)} cameras for a batch of {n}")
    return cams


def _pixel_rays(cams: List[CameraIntrinsics], h: int, w: int) -> np.ndarray:
    """Each camera's K^-1 applied to every homogeneous pixel center:
    (N, 3, H*W), or (1, 3, H*W) when the batch shares one camera."""
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    ones = np.ones_like(us)
    grid = np.stack([us, vs, ones]).reshape(3, -1)
    if len(set(cams)) == 1:
        # a one-camera batch shares one copy: each warp, or its node's
        # re-run, holds one camera's rays and inverts K once, not N times
        cams = cams[:1]
    return np.stack([c.inverse_matrix() @ grid for c in cams])


def backproject(depth: Tensor, intr: Cameras) -> Tensor:
    """Lift a depth map (N, 1, H, W) to camera-frame points (N, 3, H, W),
    with one camera for the batch or one per sample. Depth is clamped at
    Z_EPS, so every point lies in front of the camera.
    """
    depth = as_tensor(depth)
    if depth.ndim != 4 or depth.shape[1] != 1:
        raise ValueError(f"depth must be (N, 1, H, W), got {depth.shape}")
    n, _, h, w = depth.shape
    depth = maximum(depth, Z_EPS)
    rays = Tensor(_pixel_rays(_per_sample(intr, n), h, w).astype(depth.dtype))
    points = depth.reshape(n, 1, h * w) * rays          # (N, 3, HW)
    return points.reshape(n, 3, h, w)


def project(points: Tensor, intr: Cameras,
            transform: Tensor) -> Tuple[Tensor, np.ndarray]:
    """Rigidly transform points (N, 3, H, W) and project to pixel coords,
    with one camera for the batch or one per sample.

    Returns coords (N, H, W, 2) and a boolean validity mask (N, 1, H, W)
    that is false behind the camera (z <= Z_EPS) or outside the image.
    Depth is clamped at Z_EPS before the division, so coords stay finite.
    """
    points, transform = as_tensor(points), as_tensor(transform)
    n, three, h, w = points.shape
    if three != 3:
        raise ValueError(f"points must be (N, 3, H, W), got {points.shape}")
    cams = _per_sample(intr, n)
    fx, fy, cx, cy = (Tensor([[getattr(c, k)] for c in cams])
                      for k in ("fx", "fy", "cx", "cy"))
    flat = points.reshape(n, 3, h * w)
    ones = Tensor(np.ones((n, 1, h * w), dtype=points.dtype))
    cam = transform @ concat([flat, ones], axis=1)
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]      # (N, HW)
    z_safe = maximum(z, Z_EPS)
    u = x / z_safe * fx + cx
    v = y / z_safe * fy + cy
    coords = stack([u, v], axis=-1).reshape(n, h, w, 2)
    valid = ((z.data > Z_EPS)
             & (u.data >= 0.0) & (u.data <= cams[0].width - 1.0)
             & (v.data >= 0.0) & (v.data <= cams[0].height - 1.0))
    return coords, valid.reshape(n, 1, h, w)


def synthesize(source: Tensor, depth: Tensor, transform: Tensor,
               intr: Cameras) -> Tuple[Tensor, np.ndarray]:
    """Warp `source` (N, C, H, W) into the target view given the target's
    depth map, the (N, 4, 4) source-from-target transforms and the camera,
    one for the batch or one per sample.

    Returns the synthesized image and the validity mask (N, 1, H, W).
    Masked-out pixels hold border-clamped samples and are only meaningful
    under the mask. Differentiable w.r.t. source, depth and pose.
    """
    source = as_tensor(source)
    transform = as_tensor(transform)
    if transform.shape[1:] != (4, 4):
        raise ValueError(f"transform must be (N, 4, 4), got {transform.shape}")
    points = backproject(depth, intr)
    coords, valid = project(points, intr, transform)
    return bilinear_sample(source, coords), valid
