"""Relative 6-DoF camera pose regression and SE(3) helpers.

The rotation is parameterized as an axis-angle vector and turned into a
matrix through the unnormalized Rodrigues form

    R = I + A(t) [v]x + B(t) [v]x^2,   t = |v|^2,
    A = sin(th)/th,  B = (1 - cos(th))/th^2,  th = |v|

A and B are smooth analytic functions of t, evaluated by series below a
small-angle threshold, so the map is differentiable everywhere including the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, concat, gelu, unary_op
from .nn import Conv2d, ConvBnGelu, Module

__all__ = [
    "Pose", "PoseNet", "pose_to_matrix", "relative_transform",
    "rotation_from_axis_angle",
]

_SERIES_CUTOFF = 1e-6

_E = np.zeros((3, 3, 3))
_E[0, 1, 2], _E[0, 2, 1] = -1.0, 1.0   # d skew / d v_x
_E[1, 0, 2], _E[1, 2, 0] = 1.0, -1.0
_E[2, 0, 1], _E[2, 1, 0] = -1.0, 1.0


def _sin_ratio(t):
    th = np.sqrt(np.maximum(t, 0.0))
    return np.where(t < _SERIES_CUTOFF,
                    1.0 - t / 6.0 + t * t / 120.0,
                    np.sin(th) / np.where(th > 0, th, 1.0))


def _sin_ratio_grad(t):
    th = np.sqrt(np.maximum(t, 0.0))
    safe = np.where(th > 0, th, 1.0)
    exact = (safe * np.cos(th) - np.sin(th)) / (2.0 * safe ** 3)
    return np.where(t < _SERIES_CUTOFF, -1.0 / 6.0 + t / 60.0, exact)


def _cos_deficit(t):
    th = np.sqrt(np.maximum(t, 0.0))
    safe = np.where(t > 0, t, 1.0)
    return np.where(t < _SERIES_CUTOFF,
                    0.5 - t / 24.0 + t * t / 720.0,
                    (1.0 - np.cos(th)) / safe)


def _cos_deficit_grad(t):
    th = np.sqrt(np.maximum(t, 0.0))
    safe = np.where(t > 0, t, 1.0)
    exact = (0.5 * th * np.sin(th) - (1.0 - np.cos(th))) / (safe * safe)
    return np.where(t < _SERIES_CUTOFF, -1.0 / 24.0 + t / 360.0, exact)


def rotation_from_axis_angle(v: Tensor) -> Tensor:
    """Rodrigues rotation matrices (B, 3, 3) from axis-angle vectors (B, 3)."""
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"axis-angle input must be (B, 3), got {v.shape}")
    b = v.shape[0]
    t = (v * v).sum(axis=1, keepdims=True)                 # squared angle
    a_coef = unary_op(t, _sin_ratio, _sin_ratio_grad).reshape(b, 1, 1)
    b_coef = unary_op(t, _cos_deficit, _cos_deficit_grad).reshape(b, 1, 1)
    skew = (v[:, 0].reshape(b, 1, 1) * Tensor(_E[0])
            + v[:, 1].reshape(b, 1, 1) * Tensor(_E[1])
            + v[:, 2].reshape(b, 1, 1) * Tensor(_E[2]))
    eye = Tensor(np.broadcast_to(np.eye(3), (b, 3, 3)).copy())
    return eye + a_coef * skew + b_coef * (skew @ skew)


@dataclass
class Pose:
    """6-DoF relative camera motion: axis-angle rotation plus translation,
    both (B, 3) tensors in scene units / radians."""

    axis_angle: Tensor
    translation: Tensor


def pose_to_matrix(pose: Pose, invert: bool = False) -> Tensor:
    """Assemble (B, 4, 4) rigid transforms; invert=True yields the exact
    inverse [R^T | -R^T t]."""
    rot = rotation_from_axis_angle(pose.axis_angle)
    b = rot.shape[0]
    t = pose.translation.reshape(b, 3, 1)
    if invert:
        rot = rot.swap_last_axes()
        t = -(rot @ t)
    bottom = Tensor(np.broadcast_to(np.array([0.0, 0.0, 0.0, 1.0]), (b, 1, 4)).copy())
    return concat([concat([rot, t], axis=2), bottom], axis=1)


def relative_transform(world_from_target: np.ndarray,
                       world_from_source: np.ndarray) -> np.ndarray:
    """Source-camera-from-target-camera matrix out of two camera-to-world
    poses (plain arrays; used with rendered ground truth)."""
    return np.linalg.inv(world_from_source) @ world_from_target


class _SmallPoseEncoder(Module):
    """Five stride-2 conv blocks, 6 input channels to 256."""

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        chans = (16, 32, 64, 128, 256)
        cin = 6
        self.blocks = []
        for c in chans:
            self.blocks.append(ConvBnGelu(cin, c, rng, stride=2))
            cin = c
        self.out_channels = cin

    def __call__(self, x: Tensor) -> Tensor:
        for b in self.blocks:
            x = b(x)
        return x


class PoseNet(Module):
    """Regress the relative pose between two RGB frames stacked channelwise.

    A strided conv encoder feeds a four-conv decoder; the spatially averaged
    output is scaled by 0.01 so training starts near the identity pose, then
    split into axis-angle and translation.
    """

    OUTPUT_SCALE = 0.01

    def __init__(self, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.encoder = _SmallPoseEncoder(rng)
        c = self.encoder.out_channels
        self.squeeze = Conv2d(c, 256, 1, rng)
        self.conv1 = Conv2d(256, 256, 3, rng)
        self.conv2 = Conv2d(256, 256, 3, rng)
        self.head = Conv2d(256, 6, 1, rng)

    def __call__(self, frame_pair: Tensor) -> Pose:
        if frame_pair.ndim != 4 or frame_pair.shape[1] != 6:
            raise ValueError(
                f"pose input must be (N, 6, H, W) stacked frames, got {frame_pair.shape}")
        x = self.encoder(frame_pair)
        x = gelu(self.squeeze(x))
        x = gelu(self.conv1(x))
        x = gelu(self.conv2(x))
        x = self.head(x)
        pooled = x.mean(axis=(2, 3)) * self.OUTPUT_SCALE    # (N, 6)
        return Pose(axis_angle=pooled[:, 0:3], translation=pooled[:, 3:6])

    def pose_between(self, target: Tensor, source: Tensor,
                     source_is_previous: bool) -> Tensor:
        """Transform taking target-camera points to the source camera.

        The two frames always enter the network in time order (earlier
        first); the prediction is read as later-from-earlier motion and
        inverted when the source frame precedes the target.
        """
        pair = (concat([source, target], axis=1) if source_is_previous
                else concat([target, source], axis=1))
        pose = self(pair)
        return pose_to_matrix(pose, invert=source_is_previous)
