"""Hybrid convolution/attention depth encoder.

Three size variants share one layout: a three-conv stem at half resolution,
then three stages, each of [strided downsampling conv -> a run of dilated
depthwise residual blocks -> one channel-attention block]. Every downsampling
conv also sees the average-pooled RGB input, and the second and third ones
additionally re-see the previous downsampling output (a residual-style
cross-stage carry).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .engine import Tensor, avg_pool, concat, gelu, recompute, softmax
from .nn import BatchNorm2d, Conv2d, ConvBnGelu, LayerNorm, Linear, Module

__all__ = [
    "AttentionBlock",
    "DepthEncoder",
    "DilatedConvBlock",
    "EncoderConfig",
    "FRAME_MULTIPLE",
    "check_frame_size",
    "count_flops",
    "count_params",
    "xca_attention",
]

_STAGE12_DILATIONS = [1, 2, 3]

FRAME_MULTIPLE = 32     # the pose encoder halves a frame five times, each exactly

_VARIANTS = {
    "tiny": dict(channels=(32, 32, 64, 128), stage3_dilations=[1, 2, 3, 2, 4, 6]),
    "small": dict(channels=(48, 48, 80, 128), stage3_dilations=[1, 2, 3, 2, 4, 6]),
    "base": dict(channels=(48, 48, 80, 128), stage3_dilations=[1, 2, 3, 1, 2, 3, 2, 4, 6]),
}


@dataclass
class EncoderConfig:
    """Per-variant widths, dilation schedule and ablation toggles. Each
    stage runs one dilated block per rate its schedule lists, so the
    schedule alone sets the stage depths."""

    variant: str = "base"
    channels: Tuple[int, int, int, int] = (48, 48, 80, 128)
    dilation_schedule: Tuple[List[int], ...] = ()
    heads: Tuple[int, int, int] = (4, 4, 8)
    expansion: int = 6
    use_lgfi: bool = True
    use_pooled_concat: bool = True
    use_cross_stage: bool = True

    @classmethod
    def variant_preset(cls, name: str, **overrides) -> "EncoderConfig":
        if name not in _VARIANTS:
            raise ValueError(f"unknown variant {name!r}; expected one of {sorted(_VARIANTS)}")
        v = _VARIANTS[name]
        cfg = cls(variant=name, channels=v["channels"],
                  dilation_schedule=(list(_STAGE12_DILATIONS),
                                     list(_STAGE12_DILATIONS),
                                     list(v["stage3_dilations"])))
        cfg = replace(cfg, **overrides)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if len(self.channels) != 4 or min(self.channels) < 1:
            raise ValueError(f"encoder.channels must be four positive widths, got {self.channels}")
        if len(self.heads) != 3 or min(self.heads) < 1:
            raise ValueError(f"encoder.heads must be three positive counts, got {self.heads}")
        if self.expansion < 1:
            raise ValueError(f"encoder.expansion must be >= 1, got {self.expansion}")
        if len(self.dilation_schedule) != 3:
            raise ValueError("encoder.dilation_schedule must cover the three stages")
        for s, dils in enumerate(self.dilation_schedule):
            if not dils:
                raise ValueError(f"encoder.dilation_schedule: stage {s + 1} has no blocks")
            if any(d < 1 for d in dils):
                raise ValueError(
                    f"encoder.dilation_schedule: stage {s + 1} rates must be >= 1")
        for s, (c, h) in enumerate(zip(self.channels[1:], self.heads)):
            if c % h != 0:
                raise ValueError(
                    f"encoder.heads: stage {s + 1} channels {c} not divisible by heads {h}")


def check_frame_size(width: int, height: int, what: str) -> None:
    """Refuse a frame unless both its sides are positive multiples of FRAME_MULTIPLE."""
    if min(width, height) <= 0 or width % FRAME_MULTIPLE or height % FRAME_MULTIPLE:
        raise ValueError(
            f"{what} {width}x{height} must be positive and divisible by {FRAME_MULTIPLE}")


# ------------------------------------------------------------------ attention

def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, n, d = x.shape
    return x.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)  # (B,h,N,dh)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def xca_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                  temperature: Optional[Tensor] = None) -> Tensor:
    """Cross-covariance (channel) attention.

    q, k, v are batched (B, N_tok, d); d must divide by heads.
    Per head the mixing matrix is softmax over the K-channel index of
    K^T Q, a (d/h) x (d/h) array independent of N_tok, so each output
    channel is a convex mixture of input channels. Each channel of Q and K is
    first L2-normalized over tokens, and the logits are scaled by the
    per-head `temperature` when one is given.
    """
    _, _, d = q.shape
    if d % heads != 0:
        raise ValueError(f"token dimension {d} not divisible by heads {heads}")
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    qh = qh / ((qh * qh).sum(axis=2, keepdims=True) + 1e-12).sqrt()
    kh = kh / ((kh * kh).sum(axis=2, keepdims=True) + 1e-12).sqrt()
    logits = kh.transpose(0, 1, 3, 2) @ qh                 # (B, h, dh, dh)
    if temperature is not None:
        logits = logits * temperature.reshape(1, heads, 1, 1)
    attn = softmax(logits, axis=-2)                        # columns sum to 1
    return _merge_heads(vh @ attn)                         # (B, N, d)


# --------------------------------------------------------------------- blocks


class DilatedConvBlock(Module):
    """Residual block: depthwise dilated 3x3 conv, batch norm, pointwise
    expansion, GELU, pointwise projection back, add. Shape preserving for any
    dilation rate.

    The branch before the add is one `recompute` node, so the graph keeps
    none of its maps; the node hands out the batch statistics the norm
    updates from. The add stays outside: a stage's first block reads the
    downsampling output the next stage's downsampling reads as its carry,
    and with the add inside, the node would sum two of that input's three
    gradient terms before the third arrives, which rounds apart.
    """

    def __init__(self, channels: int, dilation: int, rng: np.random.Generator,
                 expansion: int = 6):
        super().__init__()
        self.dilation = dilation
        self.dwconv = Conv2d(channels, channels, 3, rng, dilation=dilation,
                             groups=channels, bias=False)
        self.norm = BatchNorm2d(channels)
        hidden = expansion * channels
        self.expand = Conv2d(channels, hidden, 1, rng, init="proj")
        self.project = Conv2d(hidden, channels, 1, rng, init="proj")

    def __call__(self, x: Tensor) -> Tensor:
        z, mean, var = recompute(self._conv_branch, x, params=self.parameters())
        self.norm.update(mean, var)
        return x + z

    def _conv_branch(self, x: Tensor) -> Tuple:
        z, mean, var = self.norm(self.dwconv(x))
        return self.project(gelu(self.expand(z))), mean, var


class AttentionBlock(Module):
    """Residual channel-attention block plus a pointwise feed-forward.

    Tokens are the row-major spatial flattening of the feature map; the
    attention mixes channels, so no positional encoding is used anywhere.
    The block is one `recompute` node over its tokens and its parameters:
    q, k, v, the channel attention, its projection and the first residual
    add, then layer norm, expansion, GELU, projection and the second add.
    So the graph keeps none of its maps, the 6C-wide ones included.
    """

    def __init__(self, channels: int, heads: int, rng: np.random.Generator,
                 expansion: int = 6):
        super().__init__()
        self.heads = heads
        self.wq = Linear(channels, channels, rng, bias=False)
        self.wk = Linear(channels, channels, rng, bias=False)
        self.wv = Linear(channels, channels, rng, bias=False)
        self.temperature = Tensor(np.ones(heads, dtype=self.wq.weight.dtype),
                                  requires_grad=True)
        self.attn_proj = Linear(channels, channels, rng)
        self.norm = LayerNorm(channels)
        hidden = expansion * channels
        self.expand = Linear(channels, hidden, rng)
        self.project = Linear(hidden, channels, rng)

    def __call__(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        tokens = x.reshape(n, c, h * w).transpose(0, 2, 1)     # (N, HW, C)
        out = recompute(self._block, tokens, params=self.parameters())[0]
        return out.transpose(0, 2, 1).reshape(n, c, h, w)

    def _block(self, t: Tensor) -> Tuple[Tensor]:
        # both residual adds are inside: t sums its four gradient terms (the
        # add's and the three projections') and the attended tokens their
        # three (the add's and then layer norm's two) in the plain graph's
        # order, since nothing outside the node reads either
        attn = xca_attention(self.wq(t), self.wk(t), self.wv(t), self.heads, self.temperature)
        t = t + self.attn_proj(attn)
        return (t + self.project(gelu(self.expand(self.norm(t)))),)


def _downsample_widths(config: EncoderConfig) -> List[Tuple[int, int]]:
    """(input, output) channels of each stage's stride-2 downsampling conv,
    which reads the concatenation of the previous features, the pooled RGB
    input and (stages 2-3) the previous downsampling output."""
    c = config.channels
    pooled = 3 if config.use_pooled_concat else 0
    return [(c[s] + pooled + (c[s] if s and config.use_cross_stage else 0), c[s + 1])
            for s in range(3)]


class DepthEncoder(Module):
    def __init__(self, config: EncoderConfig, seed: int = 0):
        super().__init__()
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        c1 = config.channels[0]

        # the stem halves the frame: one stride-2 conv, then two stride-1
        self.stem = [ConvBnGelu(3, c1, rng, stride=2), ConvBnGelu(c1, c1, rng),
                     ConvBnGelu(c1, c1, rng)]
        self.down = [ConvBnGelu(cin, cout, rng, stride=2)
                     for cin, cout in _downsample_widths(config)]
        self.stages = []
        for s, c in enumerate(config.channels[1:]):
            blocks: List[Module] = [DilatedConvBlock(c, r, rng, config.expansion)
                                    for r in config.dilation_schedule[s]]
            if config.use_lgfi:
                blocks.append(AttentionBlock(c, config.heads[s], rng, config.expansion))
            self.stages.append(blocks)

    def __call__(self, image: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """The three stage outputs, (N, C2, H/4, W/4), (N, C3, H/8, W/8) and
        (N, C4, H/16, W/16). No reference to the stem map outlives the first
        downsampling, so under ``no_grad`` it is freed there."""
        cfg = self.config
        check_frame_size(image.shape[3], image.shape[2], "input size")
        pooled, p = [], image
        if cfg.use_pooled_concat:
            for _ in range(3):
                p = avg_pool(p)
                pooled.append(p)

        x = image
        for conv in self.stem:
            x = conv(x)
        carry, outputs = [], []     # no carry before the first stage
        for s in range(3):
            x = self.down[s](concat([x] + pooled[s:s + 1] + carry, axis=1))
            carry = [x] if cfg.use_cross_stage else []
            for block in self.stages[s]:
                x = block(x)
            outputs.append(x)
        return tuple(outputs)


# ----------------------------------------------------------------- accounting


def count_params(config: EncoderConfig) -> int:
    """Exact trainable scalar count of the encoder for this config."""
    return DepthEncoder(config, seed=0).num_params()


def _conv_macs(cin, cout, k, hout, wout, groups=1) -> int:
    return cout * (cin // groups) * k * k * hout * wout


def count_flops(config: EncoderConfig, input_size: Tuple[int, int]) -> int:
    """Analytic operation count of the encoder at the given (W, H) input.

    Counts the multiply-accumulates of convolutions and attention/feed-forward
    matrix products; elementwise work (norms, activations, residuals) is
    excluded. One MAC counts as one FLOP, the convention the published
    complexity tables use.
    """
    config.validate()
    w, h = input_size
    check_frame_size(w, h, "input size")
    c1 = config.channels[0]
    macs = _conv_macs(3, c1, 3, h // 2, w // 2) + 2 * _conv_macs(c1, c1, 3, h // 2, w // 2)
    for s, (cin, c) in enumerate(_downsample_widths(config)):
        hs, ws = h // 2 ** (s + 2), w // 2 ** (s + 2)
        macs += _conv_macs(cin, c, 3, hs, ws)
        n_tok = hs * ws
        for _ in config.dilation_schedule[s]:
            macs += _conv_macs(c, c, 3, hs, ws, groups=c)       # depthwise
            macs += 2 * config.expansion * c * c * n_tok        # pointwise pair
        if config.use_lgfi:
            dh = c // config.heads[s]
            macs += 3 * c * c * n_tok                           # q, k, v
            macs += 2 * c * dh * n_tok                          # K^T Q and V A
            macs += c * c * n_tok                               # output proj
            macs += 2 * config.expansion * c * c * n_tok        # feed-forward
    return macs
