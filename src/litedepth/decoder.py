"""Depth decoder: upsampling refinement over the encoder pyramid with
sigmoid heads for inverse depth at full, half and quarter resolution."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .engine import Tensor, concat, elu, resize_bilinear, sigmoid
from .nn import Conv2d, Module

__all__ = ["DepthDecoder", "disp_to_depth"]

_DEC_CHANNELS = (16, 32, 64)   # decoder widths at full, half and quarter resolution


def disp_to_depth(disp: Tensor, min_depth: float, max_depth: float) -> Tensor:
    """Map a sigmoid output in (0, 1) to metric depth in [min_depth, max_depth].

    1/depth interpolates linearly between 1/max_depth (disp -> 0) and
    1/min_depth (disp -> 1), so depth decreases monotonically in disp.
    """
    if min_depth >= max_depth:
        raise ValueError(f"min_depth {min_depth} must be below max_depth {max_depth}")
    lo, hi = 1.0 / max_depth, 1.0 / min_depth
    return 1.0 / (lo + (hi - lo) * disp)


class DepthDecoder(Module):
    """Three refinement levels walking the pyramid coarse to fine.

    Each level: 3x3 conv + ELU, bilinear x2 upsample, concat the matching
    encoder skip (none at the finest level), 3x3 conv + ELU. Each level's
    prediction head is a 3x3 conv whose output is upsampled x2 and squashed
    by a sigmoid, emitting disp at 1/4, 1/2 and full resolution.

    Takes the encoder's three stage outputs and returns the inverse-depth
    maps of scale levels 0 (full), 1 (half) and 2 (quarter), each
    (N, 1, H/2^s, W/2^s) with values inside (0, 1), except where the
    sigmoid of a large-magnitude logit rounds to exactly 0 or 1.
    """

    def __init__(self, enc_channels: Tuple[int, int, int], seed: int = 0):
        super().__init__()
        self.enc_channels = tuple(enc_channels)
        rng = np.random.default_rng(seed)
        c2, c3, c4 = self.enc_channels
        d0, d1, d2 = _DEC_CHANNELS

        self.pre = [Conv2d(c4, d2, 3, rng), Conv2d(d2, d1, 3, rng), Conv2d(d1, d0, 3, rng)]
        self.post = [Conv2d(d2 + c3, d2, 3, rng), Conv2d(d1 + c2, d1, 3, rng),
                     Conv2d(d0, d0, 3, rng)]
        self.heads = [Conv2d(d2, 1, 3, rng), Conv2d(d1, 1, 3, rng),
                      Conv2d(d0, 1, 3, rng)]

    def __call__(self, skips: Tuple[Tensor, Tensor, Tensor]
                 ) -> Tuple[Tensor, Tensor, Tensor]:
        for s, (feat, c) in enumerate(zip(skips, self.enc_channels)):
            if feat.shape[1] != c:
                raise ValueError(
                    f"stage {s + 1} features have {feat.shape[1]} channels, "
                    f"decoder was built for {c}")
        x = skips[2]
        disps = [None, None, None]
        for step, level in enumerate((2, 1, 0)):
            h, w = x.shape[2:]
            x = resize_bilinear(elu(self.pre[step](x)), size=(2 * h, 2 * w))
            if level > 0:
                x = concat([x, skips[level - 1]], axis=1)
            x = elu(self.post[step](x))
            disps[level] = sigmoid(resize_bilinear(self.heads[step](x), size=(4 * h, 4 * w)))
        return tuple(disps)
