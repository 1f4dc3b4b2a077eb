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

from typing import Tuple

import numpy as np

from .engine import Tensor, concat, gelu, unary_op
from .nn import Conv2d, ConvBnGelu, Module

__all__ = [
    "PoseNet", "pose_to_matrix", "rotation_from_axis_angle",
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


def pose_to_matrix(axis_angle: Tensor, translation: Tensor,
                   invert: bool = False) -> Tensor:
    """Assemble (B, 4, 4) rigid transforms from 6-DoF relative motion: an
    axis-angle rotation and a translation, both (B, 3), in radians and scene
    units. invert=True yields the exact inverse [R^T | -R^T t]."""
    rot = rotation_from_axis_angle(axis_angle)
    b = rot.shape[0]
    t = translation.reshape(b, 3, 1)
    if invert:
        rot = rot.transpose(0, 2, 1)
        t = -(rot @ t)
    bottom = Tensor(np.broadcast_to(np.array([0.0, 0.0, 0.0, 1.0]), (b, 1, 4)).copy())
    return concat([concat([rot, t], axis=2), bottom], axis=1)


class PoseNet(Module):
    """Regress the relative pose between two RGB frames stacked channelwise.

    An encoder of five stride-2 conv blocks, 6 input channels to 256, feeds
    a four-conv decoder; the spatially averaged output is scaled by 0.01 so
    training starts near the identity pose, then split into axis-angle and
    translation, each (N, 3).
    """

    OUTPUT_SCALE = 0.01

    def __init__(self, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        chans = (6, 16, 32, 64, 128, 256)
        self.encoder = [ConvBnGelu(cin, cout, rng, stride=2)
                        for cin, cout in zip(chans, chans[1:])]
        self.squeeze = Conv2d(chans[-1], 256, 1, rng)
        self.conv1 = Conv2d(256, 256, 3, rng)
        self.conv2 = Conv2d(256, 256, 3, rng)
        self.head = Conv2d(256, 6, 1, rng)

    def __call__(self, frame_pair: Tensor) -> Tuple[Tensor, Tensor]:
        if frame_pair.ndim != 4 or frame_pair.shape[1] != 6:
            raise ValueError(
                f"pose input must be (N, 6, H, W) stacked frames, got {frame_pair.shape}")
        x = frame_pair
        for conv in self.encoder:
            x = conv(x)
        x = gelu(self.squeeze(x))
        x = gelu(self.conv1(x))
        x = gelu(self.conv2(x))
        x = self.head(x)
        pooled = x.mean(axis=(2, 3)) * self.OUTPUT_SCALE    # (N, 6)
        return pooled[:, 0:3], pooled[:, 3:6]

    def pose_between(self, target: Tensor, source: Tensor,
                     source_is_previous: bool) -> Tensor:
        """Transform taking target-camera points to the source camera.

        The two frames always enter the network in time order (earlier
        first); the prediction is read as later-from-earlier motion and
        inverted when the source frame precedes the target.
        """
        pair = (concat([source, target], axis=1) if source_is_previous
                else concat([target, source], axis=1))
        return pose_to_matrix(*self(pair), invert=source_is_previous)
