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

from .engine import Tensor, as_tensor, bilinear_sample, default_dtype, maximum
from .engine.tensor import _unbroadcast

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
        # the graph keeps the rays of every warp; one shared copy keeps a
        # one-camera batch at the memory of a single-camera warp
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


def _intrinsic_columns(cams: List[CameraIntrinsics], dtype) -> List[np.ndarray]:
    """fx, fy, cx and cy as (N, 1) columns in `dtype`."""
    return [np.asarray([[getattr(c, k)] for c in cams], dtype=dtype)
            for k in ("fx", "fy", "cx", "cy")]


def _camera_points(points: np.ndarray,
                   transform: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """transform @ [points; 1], the (N, 4, HW) homogeneous points in the
    source camera, and the (N, 4, HW) homogeneous input [points; 1]."""
    n = points.shape[0]
    flat = points.reshape(n, 3, -1)
    hom = np.concatenate([flat, np.ones((n, 1, flat.shape[2]), dtype=points.dtype)], axis=1)
    return transform @ hom, hom


def project(points: Tensor, intr: Cameras,
            transform: Tensor) -> Tuple[Tensor, np.ndarray]:
    """Rigidly transform points (N, 3, H, W) and project to pixel coords,
    with one camera for the batch or one per sample.

    Returns coords (N, H, W, 2) and a boolean validity mask (N, 1, H, W)
    that is false behind the camera (z <= Z_EPS) or outside the image.

    One graph node from (points, transform) that keeps nothing but its
    inputs. Value and gradients are bit-identical to composing the engine's
    ops (the tests' oracle): the intrinsics and Z_EPS are default-dtype
    constants, as `Tensor` makes them, and the backward rebuilds the
    camera-frame points with the forward's concat and matmul.
    """
    points = as_tensor(points)
    transform = as_tensor(transform)
    n, three, h, w = points.shape
    if three != 3:
        raise ValueError(f"points must be (N, 3, H, W), got {points.shape}")
    cams = _per_sample(intr, n)
    dtype = default_dtype()
    fx, fy, cx, cy = _intrinsic_columns(cams, dtype)
    z_eps = np.asarray(Z_EPS, dtype=dtype)
    cam, _ = _camera_points(points.data, transform.data)
    x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]          # (N, HW)
    z_safe = np.maximum(z, z_eps)
    u = x / z_safe * fx + cx
    v = y / z_safe * fy + cy
    coords = np.stack([u, v], axis=-1).reshape(n, h, w, 2)
    valid = ((z > Z_EPS)
             & (u >= 0.0) & (u <= cams[0].width - 1.0)
             & (v >= 0.0) & (v <= cams[0].height - 1.0))

    def bw(g):
        fx, fy, _, _ = _intrinsic_columns(cams, dtype)
        cam, hom = _camera_points(points.data, transform.data)
        z_safe = np.maximum(cam[:, 2], z_eps)
        zz = z_safe * z_safe
        g = g.reshape(n, h * w, 2)
        # Every step after the matmul runs in coords' dtype; writing a row of
        # g_cam casts it to cam's, as the engine casts each row's gradient.
        # The engine's sum of the rows' zero-filled gradients turns -0 into
        # +0, and so does every sum in the two matmuls below.
        g_cam = np.zeros_like(cam)
        g_qx, g_qy = g[..., 0] * fx, g[..., 1] * fy
        g_cam[:, 0] = g_qx / z_safe
        g_cam[:, 1] = g_qy / z_safe
        g_z = -g_qx * cam[:, 0] / zz + -g_qy * cam[:, 1] / zz   # through u, then v
        g_cam[:, 2] = np.where(z_safe == cam[:, 2], g_z, 0.0)
        g_points = g_transform = None
        if transform.requires_grad:
            g_transform = _unbroadcast(g_cam @ np.swapaxes(hom, -1, -2), transform.shape)
        if points.requires_grad:
            g_hom = (np.swapaxes(transform.data, -1, -2) @ g_cam).astype(hom.dtype, copy=False)
            g_points = g_hom[:, :3].reshape(points.shape)
        return g_points, g_transform

    return Tensor._from_op(coords, (points, transform), bw), valid.reshape(n, 1, h, w)


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
