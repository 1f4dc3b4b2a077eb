"""Colorized depth/disparity rendering for human inspection."""

from __future__ import annotations

import numpy as np

__all__ = ["TURBO_TABLE", "colorize"]

# polynomial fit of the turbo rainbow colormap, evaluated once into a
# 256-entry lookup table
_COEFFS = np.array([
    [0.13572138, 4.61539260, -42.66032258, 132.13108234, -152.94239396, 59.28637943],
    [0.09140261, 2.19418839, 4.84296658, -14.18503333, 4.27729857, 2.82956604],
    [0.10667330, 12.64194608, -60.58204836, 110.36276771, -89.90310912, 27.34824973],
])


def _build_table() -> np.ndarray:
    t = np.linspace(0.0, 1.0, 256)
    powers = np.stack([t ** k for k in range(6)])          # (6, 256)
    rgb = _COEFFS @ powers                                 # (3, 256)
    return (np.clip(rgb.T, 0.0, 1.0) * 255.0).round().astype(np.uint8)


TURBO_TABLE = _build_table()


def colorize(values: np.ndarray) -> np.ndarray:
    """Map a scalar field (H, W) to (H, W, 3) uint8 through the table,
    stretched over the field's own range. Near maps to warm colors when fed
    disparity.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        hi = lo + 1e-9
    norm = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    idx = (norm * 255.0).round().astype(np.int64)
    return TURBO_TABLE[idx]
