"""The seven standard depth-evaluation metrics with range capping and
median scaling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DEPTH_CAP", "DEPTH_FLOOR", "DepthMetrics", "depth_metrics", "METRIC_COLUMNS"]

METRIC_COLUMNS = ("abs_rel", "sq_rel", "rmse", "rmse_log",
                  "delta1", "delta2", "delta3")

DEPTH_CAP = 80.0
DEPTH_FLOOR = 1e-3    # lower clamp before logs


@dataclass(frozen=True)
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float

    def as_row(self) -> str:
        """One-line table in the conventional column order."""
        return "  ".join(f"{getattr(self, c):8.4f}" for c in METRIC_COLUMNS)

    def as_key_values(self) -> str:
        return "\n".join(f"{c}={getattr(self, c):.6f}" for c in METRIC_COLUMNS)

    @staticmethod
    def header() -> str:
        return "  ".join(f"{c:>8s}" for c in METRIC_COLUMNS)


def depth_metrics(pred: np.ndarray, gt: np.ndarray, cap: float = DEPTH_CAP,
                  median_scale: bool = True) -> DepthMetrics:
    """Evaluate predicted depth against ground truth over valid pixels.

    Validity means gt > 0. With
    median scaling the prediction is first multiplied by
    median(gt)/median(pred), removing the global scale ambiguity of
    monocular training; both maps are then clamped to [DEPTH_FLOOR, cap].
    """
    if not cap > DEPTH_FLOOR:
        raise ValueError(f"depth cap {cap} must be above the {DEPTH_FLOOR} m floor")
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    if np.any(pred <= 0):
        raise ValueError("predicted depth must be positive")
    mask = gt > 0
    if not mask.any():
        raise ValueError("no valid pixels to evaluate")
    p, g = pred[mask], gt[mask]
    if median_scale:
        p = p * (np.median(g) / np.median(p))
    p = np.clip(p, DEPTH_FLOOR, cap)
    g = np.clip(g, DEPTH_FLOOR, cap)

    err = p - g
    ratio = np.maximum(p / g, g / p)
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(err) / g)),
        sq_rel=float(np.mean(err * err / g)),
        rmse=float(np.sqrt(np.mean(err * err))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25 ** 2)),
        delta3=float(np.mean(ratio < 1.25 ** 3)),
    )
