"""Run configuration: every field of the encoder, loss, training and data
sections addressable by dotted path, merged from a flat ``key = value`` text
file plus command-line overrides. Unknown keys are rejected; the effective
configuration is echoed into the output directory."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Union

from .encoder import EncoderConfig, check_frame_size
from .engine.tensor import _DTYPES
from .losses import LossConfig

__all__ = ["DataConfig", "RunConfig", "TrainConfig"]


@dataclass
class TrainConfig:
    batch_size: int = 12
    epochs: int = 35
    steps: int = 0                  # > 0 caps the total step count (toy runs)
    lr0: float = 5e-4
    lr_min: float = 1e-6
    weight_decay: float = 1e-2
    precision: str = "f32"          # f32 for training, f64 for checking
    seed: int = 0
    augment: bool = True
    checkpoint_every: int = 0       # steps; 0 means final checkpoint only

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # written so that NaN, which fails every comparison, fails the check
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"train.lr0 must be positive and finite, got {self.lr0}")
        for name in ("lr_min", "weight_decay", "seed", "checkpoint_every"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"train.{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.steps <= 0 and self.epochs < 1:
            raise ValueError(f"train.epochs must be >= 1 when train.steps <= 0 "
                             f"(no step would run), got {self.epochs}")
        if self.precision not in _DTYPES:
            raise ValueError(f"train.precision must be {' or '.join(_DTYPES)}, "
                             f"got {self.precision!r}")


@dataclass
class DataConfig:
    width: int = 640
    height: int = 192
    frames: int = 16                # synthetic sequence length
    scene_seed: int = 0
    mover: bool = False

    def validate(self) -> None:
        check_frame_size(self.width, self.height, "data.width x data.height")
        if self.frames < 3:
            raise ValueError(f"data.frames must be >= 3 (one triplet), got {self.frames}")
        if self.scene_seed < 0:
            raise ValueError(f"data.scene_seed must be >= 0, got {self.scene_seed}")


@dataclass
class RunConfig:
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig.variant_preset("base"))
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    data: DataConfig = field(default_factory=DataConfig)

    _SECTIONS = ("encoder", "train", "loss", "data")
    # the encoder fields a variant sets; a variant change re-derives those
    # not set by name, whatever the order the keys arrive in
    _PRESET = ("channels", "dilation_schedule")

    def __post_init__(self):
        self._explicit = set()      # keys given to set()

    # ------------------------------------------------------------- access

    def _resolve(self, key: str):
        if "." not in key:
            raise KeyError(f"config key {key!r} must be section.field")
        section, name = key.split(".", 1)
        if section not in self._SECTIONS:
            raise KeyError(f"unknown config section {section!r} in {key!r}")
        obj = getattr(self, section)
        for f in fields(obj):
            if f.name == name:
                return obj, f
        raise KeyError(f"unknown config key {key!r}")

    def get(self, key: str):
        obj, f = self._resolve(key)
        return getattr(obj, f.name)

    def set(self, key: str, raw: str) -> None:
        obj, f = self._resolve(key)
        setattr(obj, f.name, _parse_value(raw, getattr(obj, f.name), key))
        self._explicit.add(key)
        if key == "encoder.variant":
            self.encoder = EncoderConfig.variant_preset(
                self.encoder.variant,
                **{fl.name: getattr(self.encoder, fl.name) for fl in fields(EncoderConfig)
                   if fl.name != "variant" and (fl.name not in self._PRESET
                                                or f"encoder.{fl.name}" in self._explicit)})

    def keys(self) -> List[str]:
        out = []
        for section in self._SECTIONS:
            for f in fields(getattr(self, section)):
                out.append(f"{section}.{f.name}")
        return out

    # ---------------------------------------------------------------- text

    def to_text(self) -> str:
        lines = []
        for key in self.keys():
            lines.append(f"{key} = {_format_value(self.get(key))}")
        return "\n".join(lines) + "\n"

    def apply_file(self, path: Union[str, Path]) -> None:
        self.apply_text(Path(path).read_text(), source=str(path))

    def apply_text(self, text: str, source: str = "<config>") -> None:
        """Apply ``key = value`` lines; ``#`` starts a comment."""
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            self.set(key, raw)

    def apply_overrides(self, pairs) -> None:
        for pair in pairs or ():
            if "=" not in pair:
                raise ValueError(f"override {pair!r} must look like key=value")
            key, raw = (part.strip() for part in pair.split("=", 1))
            self.set(key, raw)

    def validate(self) -> None:
        """Each section's checks, whatever set the values."""
        for section in self._SECTIONS:
            getattr(self, section).validate()

    def describe(self) -> str:
        """Per-key one-liners with defaults, for --help output."""
        default = RunConfig()
        lines = []
        for key in self.keys():
            lines.append(f"  {key:32s} (default {_format_value(default.get(key))})")
        return "\n".join(lines)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        if value and isinstance(value[0], (list, tuple)):
            return ";".join(",".join(str(v) for v in stage) for stage in value)
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(raw: str, current, key: str):
    raw = raw.strip()
    if isinstance(current, bool):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(current, str):
        return raw
    try:
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        if isinstance(current, tuple) and current and isinstance(current[0], (list, tuple)):
            return tuple([int(v) for v in stage.split(",")] for stage in raw.split(";"))
        if isinstance(current, (tuple, list)):
            return tuple(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    raise ValueError(f"{key}: unsupported value type {type(current).__name__}")
