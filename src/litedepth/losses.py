"""Self-supervised objective: photometric reconstruction with per-pixel
minimum over source frames, auto-masking of camera-speed movers, and
edge-aware smoothness on mean-normalized inverse depth."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .engine import (
    Tensor, as_tensor, default_dtype, maximum, minimum, recompute, resize_bilinear,
)
from .decoder import disp_to_depth
from .warp import Cameras, synthesize

__all__ = [
    "LossConfig", "auto_mask", "min_reprojection", "photometric_loss",
    "smoothness", "ssim", "total_loss",
]

SSIM_C1 = 0.01 ** 2   # for images in [0, 1]
SSIM_C2 = 0.03 ** 2


@dataclass
class LossConfig:
    alpha: float = 0.85               # SSIM weight in the photometric mix
    lambda_smooth: float = 1e-3
    min_depth: float = 0.1
    max_depth: float = 100.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"loss.alpha must lie in [0, 1], got {self.alpha}")
        # written so that NaN, which fails every comparison, fails the check
        if not 0 <= self.lambda_smooth < math.inf:
            raise ValueError(
                f"loss.lambda_smooth must be finite and >= 0, got {self.lambda_smooth}")
        if not self.max_depth < math.inf:
            raise ValueError(f"loss.max_depth must be finite, got {self.max_depth}")
        if not 0 < self.min_depth < self.max_depth:
            raise ValueError(f"loss.min_depth must lie in (0, loss.max_depth = "
                             f"{self.max_depth}), got {self.min_depth}")


def _window_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Zero-padded 3-window sums along `axis` of x, each added left to right.

    The sums run over the flattened array, along contiguous memory, a step
    along `axis` apart; the first and last entry of each line along `axis`,
    whose windows straddle two lines, are then rewritten.
    """
    x = np.ascontiguousarray(x)
    step = math.prod(x.shape[axis + 1:])
    flat, out = x.reshape(-1), np.empty(x.shape, x.dtype)
    mid = out.reshape(-1)[step:-step]
    np.add(flat[:-2 * step], flat[step:-step], out=mid)
    mid += flat[2 * step:]
    lines, ends = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    np.add(lines[0], lines[1], out=ends[0])
    np.add(lines[-2], lines[-1], out=ends[-1])
    return out


def _box3(x: np.ndarray) -> np.ndarray:
    """3x3 mean of a reflection-padded NCHW map in the order of a windowed
    mean: the window's columns, then its rows, then a division by 9. Each
    end entry's window adds its reflected neighbour to the zero-padded sum."""
    cols = _window_sum(x, 3)
    cols[..., 0] += x[..., 1]
    cols[..., -1] += x[..., -2]
    out = _window_sum(cols, 2)
    out[:, :, 0] += cols[:, :, 1]
    out[:, :, -1] += cols[:, :, -2]
    out /= 9
    return out


def _box3_adjoint(g: np.ndarray) -> np.ndarray:
    """Transpose of `_box3`: the division by 9, then the same zero-padded
    sums along the same axes, with the reflected terms folded back onto
    entries 1 and n-2."""
    g = g / 9
    cols = _window_sum(g, 3)
    cols[..., 1] += g[..., 0]
    cols[..., -2] += g[..., -1]
    del g   # before the row sums allocate, so the step holds two maps, not three
    out = _window_sum(cols, 2)
    out[:, :, 1] += cols[:, :, 0]
    out[:, :, -2] += cols[:, :, -1]
    return out


def _ssim_maps(ad: np.ndarray, bd: np.ndarray, dtype) -> Tuple[np.ndarray, tuple]:
    """SSIM of two arrays and the six maps its backward reads: the means
    mu_a and mu_b, a1 = 2 mu_a mu_b + C1, a2 = 2 cov + C2,
    b1 = mu_a^2 + mu_b^2 + C1 and b2 = var_a + var_b + C2.

    Each of the five statistics (mu_a, mu_b, E[a^2], E[b^2], E[ab]) is
    filtered in the dtype its inputs give it, and the constants take
    `dtype`, so the value is bit-identical to composing the pad, pool and
    elementwise ops under that default dtype.
    """
    two, c1, c2 = (np.asarray(v, dtype=dtype) for v in (2.0, SSIM_C1, SSIM_C2))
    mu_a, mu_b = _box3(ad), _box3(bd)
    var_a = _box3(ad * ad) - mu_a * mu_a
    var_b = _box3(bd * bd) - mu_b * mu_b
    cov = _box3(ad * bd) - mu_a * mu_b
    a1, b1 = two * mu_a * mu_b + c1, mu_a * mu_a + mu_b * mu_b + c1
    a2, b2 = two * cov + c2, var_a + var_b + c2
    return a1 * a2 / (b1 * b2), (mu_a, mu_b, a1, a2, b1, b2)


def _ssim_grads(g, ad, bd, kept, out, need_a: bool, need_b: bool):
    """Gradients of S = a1 a2 / (b1 b2) with respect to a and b: the
    derivatives with respect to the five filtered maps, through the
    filter's adjoint."""
    mu_a, mu_b, a1, a2, b1, b2 = kept
    gd = 2 * g / (b1 * b2)
    g_ab = gd * a1                              # E[ab]
    g_sq = -g * out / b2                        # E[a^2] and E[b^2]
    g_cross = gd * (a2 - a1)                    # each mean, times the other
    g_own = 2 * g * out * (1 / b2 - 1 / b1)     # each mean, times itself
    sq, ab = _box3_adjoint(g_sq), _box3_adjoint(g_ab)
    ga = gb = None
    if need_a:
        ga = _box3_adjoint(g_cross * mu_b + g_own * mu_a) + 2 * ad * sq + bd * ab
    if need_b:
        gb = _box3_adjoint(g_cross * mu_a + g_own * mu_b) + 2 * bd * sq + ad * ab
    return ga, gb


def _check_ssim_shapes(a: Tensor, b: Tensor, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{what} shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 4 or min(a.shape[2:]) < 2:
        raise ValueError(f"{what} needs NCHW maps of at least 2x2, got {a.shape}")


def ssim(a: Tensor, b: Tensor) -> Tensor:
    """Per-pixel structural similarity with 3x3 mean filters and reflection
    padding; values in [-1, 1], exactly 1 where the inputs agree.

    One graph node, bit-identical to composing the pad, pool and
    elementwise ops (see `_ssim_maps`). The backward keeps the six maps it
    reads: the two means and SSIM's four factors. Every SSIM that records a
    graph in training runs inside a warped branch's `recompute` re-run, whose
    graph lives only for that node's backward, so rebuilding the factors
    would save no memory.
    """
    a, b = as_tensor(a), as_tensor(b)
    _check_ssim_shapes(a, b, "ssim")
    out, kept = _ssim_maps(a.data, b.data, default_dtype())

    def bw(g):
        return _ssim_grads(g, a.data, b.data, kept, out, a.requires_grad, b.requires_grad)

    return Tensor._from_op(out, (a, b), bw)


def photometric_loss(pred: Tensor, target: Tensor, alpha: float = 0.85) -> Tensor:
    """alpha * (1 - SSIM)/2 + (1 - alpha) * L1, channel-averaged to a
    per-pixel (N, 1, H, W) map; zero iff the images agree.

    A composite of engine ops, one node each, so it keeps what they keep.
    `total_loss` runs it inside one `recompute` node per warped source and
    scale, which keeps only the branch's inputs.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    _check_ssim_shapes(pred, target, "photometric")
    l1 = (pred - target).abs().mean(axis=1, keepdims=True)
    # rounding can push SSIM a hair past 1; the clamp keeps the map
    # nonnegative and exact ties exactly zero
    dssim = maximum((1.0 - ssim(pred, target)) * 0.5, 0.0)
    return alpha * dssim.mean(axis=1, keepdims=True) + (1.0 - alpha) * l1


def min_reprojection(loss_maps: Sequence[Tensor]) -> Tensor:
    """Pointwise minimum over per-source photometric maps."""
    maps = list(loss_maps)
    if not maps:
        raise ValueError("min_reprojection needs at least one loss map")
    out = maps[0]
    for m in maps[1:]:
        out = minimum(out, m)
    return out


def auto_mask(best_unwarped: Tensor, best_warped: Tensor) -> np.ndarray:
    """Binary keep-mask over the two `min_reprojection` outputs: 1 where the
    best warped source beats the best unwarped one strictly. Ties mask out,
    so static scenes and objects moving with the camera drop out."""
    return (best_unwarped.data > best_warped.data).astype(best_warped.dtype)


def _x_grad(x: Tensor) -> Tensor:
    return (x[:, :, :, 1:] - x[:, :, :, :-1]).abs()


def _y_grad(x: Tensor) -> Tensor:
    return (x[:, :, 1:, :] - x[:, :, :-1, :]).abs()


def smoothness(disp: Tensor, image: Tensor) -> Tensor:
    """Edge-aware smoothness on mean-normalized inverse depth.

    Disparity gradients are damped where the image has strong gradients
    (channel-averaged, exponentiated). Mean normalization makes the loss
    exactly invariant to positive rescaling of disp. Each axis pairs the
    disparity gradient with the image gradient along the same axis.
    """
    disp, image = as_tensor(disp), as_tensor(image)
    if disp.shape[1] != 1:
        raise ValueError(f"disp must be single-channel, got {disp.shape}")
    if disp.shape[2:] != image.shape[2:]:
        raise ValueError(
            f"disp {disp.shape[2:]} and image {image.shape[2:]} sizes differ")
    mean = disp.mean(axis=(2, 3), keepdims=True)
    if np.any(mean.data == 0):
        raise ValueError("disp has zero mean; cannot normalize")
    d = disp / mean
    ix = _x_grad(image).mean(axis=1, keepdims=True)
    iy = _y_grad(image).mean(axis=1, keepdims=True)
    term_x = _x_grad(d) * (-ix).exp()
    term_y = _y_grad(d) * (-iy).exp()
    return term_x.mean() + term_y.mean()


def _reconstruction_term(best_warped: Tensor, best_unwarped: Tensor,
                         valid_any: np.ndarray) -> Tensor:
    """Reduce the per-pixel reconstruction objective to a scalar.

    The per-pixel value is the warped loss where `auto_mask` keeps the pixel
    and the identity floor elsewhere, averaged over every pixel. Keeping the
    floor (instead of averaging only kept pixels) removes the degenerate
    optimum where the model silences pixels by matching the identity warp,
    since the loss can then only drop below the floor through genuine
    parallax. Fully-invalid pixels contribute their identity floor as well.
    """
    keep = Tensor(valid_any * auto_mask(best_unwarped, best_warped))
    return (best_warped * keep + best_unwarped * (1.0 - keep)).mean()


def _warped_error(intr: Cameras, alpha: float):
    """One warped branch of `total_loss` as a function of its tensors:
    (depth, transform, source, target) -> the photometric error of the
    source synthesized in the target view, and the validity mask."""
    def warped_error(depth: Tensor, transform: Tensor, source: Tensor,
                     target: Tensor) -> Tuple[Tensor, np.ndarray]:
        synth, valid = synthesize(source, depth, transform, intr)
        return photometric_loss(synth, target, alpha), valid
    return warped_error


def total_loss(disps: Sequence[Tensor], target: Tensor, sources: Sequence[Tensor],
               transforms: Sequence[Tensor], intr: Cameras,
               config: LossConfig) -> Tuple[Tensor, Dict[str, object]]:
    """Full objective over scale levels 0, 1 and 2, averaged 1/3 over scales.

    `disps` holds the decoder's inverse depth at levels 0, 1 and 2,
    `transforms` one source-camera-from-target-camera matrix per source
    frame (typically previous and next), and `intr` one camera for the
    batch or one per sample. Lower-scale disparities are
    upsampled to full resolution before synthesis; the smoothness term runs
    at each scale's native resolution with its weight divided by 2^scale.
    Returns the scalar loss and a dict of Python floats: the per-scale
    "reconstruction" and "smoothness" terms and weighted "per_scale"
    losses (lists indexed by level), and the "total".

    Each warped branch, the view synthesis of one source at one scale and
    its photometric error against the target, is one `recompute` node
    (Chen et al. 2016) over (depth, transform, source, target): the graph
    keeps only those inputs, and the backward re-runs the branch. Value and
    gradients are those of the branches as plain graphs, bit for bit, but
    for a target that requires grad: each branch sums its two terms of the
    target's gradient before they join the rest, which rounds apart.
    """
    if len(sources) != len(transforms):
        raise ValueError(f"{len(sources)} sources but {len(transforms)} transforms")
    if not sources:
        raise ValueError("total_loss needs at least one source frame")
    target = as_tensor(target)
    n, _, h, w = target.shape

    warped_error = _warped_error(intr, config.alpha)
    unwarped = [photometric_loss(as_tensor(s), target, config.alpha)
                for s in sources]
    best_unwarped = min_reprojection(unwarped)   # the same at every scale
    scale_losses: List[Tensor] = []
    reconstructions: List[float] = []
    smooths: List[float] = []
    for level in range(3):
        disp = disps[level]
        disp_full = resize_bilinear(disp, size=(h, w))
        depth_full = disp_to_depth(disp_full, config.min_depth, config.max_depth)

        warped_maps, valid_masks = [], []
        for src, tf in zip(sources, transforms):
            error, valid = recompute(warped_error, depth_full, tf, src, target)
            warped_maps.append(error)
            valid_masks.append(valid)

        best_warped = min_reprojection(warped_maps)
        valid_any = np.logical_or.reduce(valid_masks).astype(best_warped.dtype)

        reconstruction = _reconstruction_term(best_warped, best_unwarped, valid_any)

        img_scaled = (target if level == 0
                      else resize_bilinear(target, size=disp.shape[2:]))
        smooth = smoothness(disp, img_scaled)
        weight = config.lambda_smooth / (2.0 ** level)
        scale_losses.append(reconstruction + weight * smooth)

        reconstructions.append(float(reconstruction.data))
        smooths.append(float(smooth.data))

    total = scale_losses[0]
    for sl in scale_losses[1:]:
        total = total + sl
    total = total * (1.0 / len(scale_losses))
    return total, {"reconstruction": reconstructions, "smoothness": smooths,
                   "per_scale": [float(sl.data) for sl in scale_losses],
                   "total": float(total.data)}
