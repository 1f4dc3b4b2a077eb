"""Joint optimization of the depth and pose networks with AdamW and a
per-iteration cosine learning-rate schedule, plus checkpointing and
evaluation against ground-truth depth."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import TrainConfig
from .data import augment
from .decoder import DepthDecoder, DepthPyramid
from .encoder import DepthEncoder, EncoderConfig
from .engine import Tensor, no_grad, set_default_dtype
from .losses import LossConfig, total_loss
from .metrics import DepthMetrics, depth_metrics
from .nn import Module
from .pngio import write_f32
from .posenet import PoseNet

__all__ = [
    "AdamW", "Checkpoint", "Models", "TrainingDiverged", "build_models",
    "cosine_lr", "evaluate", "load_checkpoint", "save_checkpoint", "train",
]

CHECKPOINT_MAGIC = b"LMCK"
CHECKPOINT_VERSION = 1

_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i8"),
               4: np.dtype("u1")}
_TAG_FOR_KIND = {"f4": 1, "f8": 2, "i8": 3, "u1": 4}


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; diagnostics are dumped first."""


# ------------------------------------------------------------------ optimizer


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments:
    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p."""

    def __init__(self, named_params: Dict[str, Tensor], weight_decay: float = 1e-2,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(named_params)
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= lr * update + lr * self.weight_decay * p.data

    def state_arrays(self) -> Dict[str, np.ndarray]:
        out = {f"opt.m.{k}": v for k, v in self.m.items()}
        out.update({f"opt.v.{k}": v for k, v in self.v.items()})
        out["opt.step"] = np.array([self.step_count], dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for k in self.m:
            self.m[k] = arrays[f"opt.m.{k}"].astype(self.m[k].dtype)
            self.v[k] = arrays[f"opt.v.{k}"].astype(self.v[k].dtype)
        self.step_count = int(arrays["opt.step"][0])


def cosine_lr(step: int, total_steps: int, lr0: float, lr_min: float = 1e-6) -> float:
    """Cosine decay from lr0 to lr_min across total_steps iterations."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return lr0
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


# ----------------------------------------------------------------- checkpoint


def save_checkpoint(path: Union[str, Path], entries: Dict[str, Union[np.ndarray, bytes]]) -> None:
    """Binary checkpoint: magic, version u32, then a count-prefixed list of
    (name length u32, name, dtype tag u8, rank u8, dims u32..., raw LE data).
    All integers little-endian. Round trips bit-identically.

    The bytes go to ``<path>.tmp`` and replace ``path`` only once complete,
    so a failed or interrupted write leaves an existing file untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
            for name in sorted(entries):
                value = entries[name]
                if isinstance(value, (bytes, bytearray)):
                    arr = np.frombuffer(bytes(value), dtype="u1")
                else:
                    arr = np.asarray(value)
                kind = arr.dtype.newbyteorder("<").str[1:]
                if kind not in _TAG_FOR_KIND:
                    raise ValueError(f"{name}: unsupported checkpoint dtype {arr.dtype}")
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)) + encoded)
                f.write(struct.pack(f"<BB{arr.ndim}I", _TAG_FOR_KIND[kind], arr.ndim, *arr.shape))
                f.write(np.ascontiguousarray(arr, dtype=f"<{kind}").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read a file written by ``save_checkpoint``. Malformed input (short
    reads, unknown dtype tags, undecodable names, trailing bytes) raises
    ValueError naming the path."""
    blob = Path(path).read_bytes()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"{path}: truncated checkpoint: needs {pos + n} bytes, "
                             f"file has {len(blob)}")
        pos += n
        return blob[pos - n:pos]

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version, count = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: entry name is not UTF-8 at byte {pos - name_len}") from exc
        tag, rank = struct.unpack("<BB", take(2))
        if tag not in _DTYPE_TAGS:
            raise ValueError(f"{path}: {name}: unknown dtype tag {tag}")
        dtype = _DTYPE_TAGS[tag]
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        # Python ints, so forged dims cannot overflow the size
        data = take(math.prod(dims) * dtype.itemsize)
        out[name] = np.frombuffer(data, dtype=dtype).reshape(dims).copy()
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes after the last entry")
    return out


# --------------------------------------------------------------------- models


class Models(Module):
    """The depth encoder, depth decoder and pose network trained together."""

    def __init__(self, encoder: DepthEncoder, decoder: DepthDecoder, pose: PoseNet):
        super().__init__()
        self.encoder = encoder
        self.decoder = decoder
        self.pose = pose


def build_models(encoder_config: EncoderConfig, seed: int = 0) -> Models:
    enc = DepthEncoder(encoder_config, seed=seed)
    dec = DepthDecoder(encoder_config.channels[1:], seed=seed + 1)
    pose = PoseNet(seed=seed + 2)
    return Models(enc, dec, pose)


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate: parameters, norm buffers,
    optimizer moments, the epoch counter and a config snapshot."""

    params: Dict[str, np.ndarray]
    buffers: Dict[str, np.ndarray]
    opt_state: Dict[str, np.ndarray]
    epoch: int
    config_text: str

    def save(self, path: Union[str, Path]) -> None:
        entries: Dict[str, Union[np.ndarray, bytes]] = {}
        entries.update({f"param.{k}": v for k, v in self.params.items()})
        entries.update(self.buffers)
        entries.update(self.opt_state)
        entries["meta.epoch"] = np.array([self.epoch], dtype=np.int64)
        entries["meta.config"] = self.config_text.encode("utf-8")
        save_checkpoint(path, entries)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Checkpoint":
        raw = load_checkpoint(path)
        params = {k[len("param."):]: v for k, v in raw.items() if k.startswith("param.")}
        buffers = {k: v for k, v in raw.items() if k.startswith("buf.")}
        opt_state = {k: v for k, v in raw.items() if k.startswith("opt.")}
        return cls(params=params, buffers=buffers, opt_state=opt_state,
                   epoch=int(raw["meta.epoch"][0]),
                   config_text=raw["meta.config"].tobytes().decode("utf-8"))

    @classmethod
    def from_models(cls, models: Models, opt: Optional[AdamW], epoch: int,
                    config_text: str) -> "Checkpoint":
        return cls(
            params={k: p.data.copy() for k, p in models.named_parameters()},
            buffers={f"buf.{k}": b.copy() for k, b in models.named_buffers()},
            opt_state=opt.state_arrays() if opt is not None else {},
            epoch=epoch, config_text=config_text)

    def restore_into(self, models: Models, opt: Optional[AdamW] = None) -> None:
        named = dict(models.named_parameters())
        missing = set(named) - set(self.params)
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {sorted(missing)[:4]}...")
        for name, p in named.items():
            arr = self.params[name]
            if tuple(arr.shape) != p.shape:
                raise ValueError(
                    f"{name}: checkpoint shape {arr.shape} vs model {p.shape}")
            p.data = arr.astype(p.data.dtype).copy()
        for name, b in models.named_buffers():
            saved = self.buffers.get(f"buf.{name}")
            if saved is not None:
                b[...] = saved.astype(b.dtype)
        if opt is not None and self.opt_state:
            opt.load_state_arrays(self.opt_state)


# ------------------------------------------------------------------- training


def _stack(frames: Sequence[np.ndarray], dtype) -> Tensor:
    return Tensor(np.stack(frames).astype(dtype))


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    curve: List[dict]
    checkpoint_path: Optional[Path] = None
    curve_path: Optional[Path] = None


def train(train_config: TrainConfig, encoder_config: EncoderConfig,
          data_source, loss_config: Optional[LossConfig] = None,
          out_dir: Optional[Union[str, Path]] = None,
          config_text: str = "") -> TrainResult:
    """Optimize DepthNet and PoseNet jointly on frame triplets.

    Per batch: depth pyramid on the target frame, poses against the previous
    and next frames, full multi-scale loss, backward, one AdamW step at the
    per-iteration cosine rate. Deterministic for a fixed seed. Aborts with a
    diagnostics dump if the loss stops being finite.
    """
    cfg = train_config
    loss_cfg = loss_config or LossConfig()
    set_default_dtype(cfg.precision)
    dtype = np.float32 if cfg.precision == "f32" else np.float64

    models = build_models(encoder_config, seed=cfg.seed).train()
    opt = AdamW(dict(models.named_parameters()), weight_decay=cfg.weight_decay,
                beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)

    n_items = len(data_source)
    if n_items == 0:
        raise ValueError("data source has no triplets")
    steps_per_epoch = max(1, math.ceil(n_items / cfg.batch_size))
    total_steps = cfg.steps if cfg.steps > 0 else cfg.epochs * steps_per_epoch

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        (out_path / "checkpoints").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(cfg.seed)
    curve: List[dict] = []
    step = 0
    epoch = 0
    done = False
    while not done:
        order = rng.permutation(n_items)
        for start in range(0, n_items, cfg.batch_size):
            if step >= total_steps:
                done = True
                break
            idx = order[start: start + cfg.batch_size]
            triplets = [data_source.triplet(int(i)) for i in idx]
            if cfg.augment:
                triplets = [augment(t, seed=int(rng.integers(2 ** 31)))
                            for t in triplets]
            intr = triplets[0].intrinsics
            clean = [t.frames for t in triplets]
            net_in = [t.network_frames() for t in triplets]
            prev_net = _stack([f[0] for f in net_in], dtype)
            tgt_net = _stack([f[1] for f in net_in], dtype)
            next_net = _stack([f[2] for f in net_in], dtype)
            prev_clean = _stack([f[0] for f in clean], dtype)
            tgt_clean = _stack([f[1] for f in clean], dtype)
            next_clean = _stack([f[2] for f in clean], dtype)

            pyramid = models.decoder(models.encoder(tgt_net))
            t_prev = models.pose.pose_between(tgt_net, prev_net, source_is_previous=True)
            t_next = models.pose.pose_between(tgt_net, next_net, source_is_previous=False)

            finite = (all(np.isfinite(pyramid.disp(s).data).all() for s in range(3))
                      and np.isfinite(t_prev.data).all()
                      and np.isfinite(t_next.data).all())
            if not finite:
                if out_path is not None:
                    _dump_network_state(out_path / "diagnostics", step, pyramid)
                raise TrainingDiverged(
                    f"non-finite network output at step {step}; diagnostics "
                    f"{'dumped' if out_path is not None else 'not persisted'}")

            loss, diag = total_loss(pyramid, tgt_clean, [prev_clean, next_clean],
                                    [t_prev, t_next], intr, loss_cfg)
            if not np.isfinite(loss.data):
                if out_path is not None:
                    _dump_diagnostics(out_path / "diagnostics", step, diag)
                raise TrainingDiverged(
                    f"non-finite loss at step {step}; diagnostics "
                    f"{'dumped' if out_path is not None else 'not persisted'}")

            lr = cosine_lr(step, total_steps, cfg.lr0, cfg.lr_min)
            models.zero_grad()
            loss.backward()
            opt.step(lr)

            smooth = float(np.mean([diag["scales"][s]["smoothness"]
                                    for s in diag["scales"]]))
            curve.append({"step": step, "lr": lr, "total": float(loss.data),
                          "scale0": diag["per_scale"][0],
                          "scale1": diag["per_scale"][1],
                          "scale2": diag["per_scale"][2],
                          "smoothness": smooth})
            step += 1
            if (out_path is not None and cfg.checkpoint_every > 0
                    and step % cfg.checkpoint_every == 0):
                Checkpoint.from_models(models, opt, epoch, config_text).save(
                    out_path / "checkpoints" / f"step{step:07d}.lmck")
        epoch += 1
        if cfg.steps <= 0 and epoch >= cfg.epochs:
            done = True

    checkpoint = Checkpoint.from_models(models, opt, epoch, config_text)
    ckpt_path = curve_path = None
    if out_path is not None:
        ckpt_path = out_path / "checkpoints" / "final.lmck"
        checkpoint.save(ckpt_path)
        curve_path = out_path / "curves.csv"
        _write_curve(curve_path, curve)
    return TrainResult(checkpoint, curve, ckpt_path, curve_path)


def _write_curve(path: Path, curve: List[dict]) -> None:
    cols = ("step", "lr", "total", "scale0", "scale1", "scale2", "smoothness")
    lines = [",".join(cols)]
    for row in curve:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def _dump_network_state(out_dir: Path, step: int, pyramid: DepthPyramid) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for level in range(3):
        write_f32(out_dir / f"step{step}_scale{level}_disp.f32",
                  np.nan_to_num(pyramid.disp(level).data[0]))


def _dump_diagnostics(out_dir: Path, step: int, diag: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for level, entry in diag["scales"].items():
        base = out_dir / f"step{step}_scale{level}"
        write_f32(f"{base}_disp.f32", entry["disp"][0])
        write_f32(f"{base}_minreproj.f32", entry["min_reprojection"][0])
        write_f32(f"{base}_automask.f32", entry["automask"][0].astype(np.float32))


# ----------------------------------------------------------------- evaluation


def predict_depth(models: Models, frame: np.ndarray,
                  loss_config: Optional[LossConfig] = None) -> np.ndarray:
    """Full-resolution metric depth (H, W) for one RGB frame (3, H, W)."""
    loss_cfg = loss_config or LossConfig()
    dtype = next(models.parameters()).data.dtype
    with no_grad():
        pyramid = models.decoder(models.encoder(Tensor(frame[None].astype(dtype))))
        depth = pyramid.depth(0, loss_cfg.min_depth, loss_cfg.max_depth)
    return depth.data[0, 0]


def evaluate(models: Optional[Models], data_source,
             loss_config: Optional[LossConfig] = None,
             cap: float = 80.0, median_scale: bool = True,
             predict=None) -> Tuple[DepthMetrics, List[DepthMetrics]]:
    """Full-resolution depth against ground truth for every triplet,
    median-scaled by default; returns the mean row and the per-frame rows.

    `predict(triplet) -> depth` overrides the network forward (used to
    validate the metric plumbing with known depth).
    """
    if predict is None:
        if models is None:
            raise ValueError("evaluate needs either models or a predict hook")
        models.eval()
        predict = lambda trip: predict_depth(models, trip.frames[1], loss_config)
    per_frame: List[DepthMetrics] = []
    for i in range(len(data_source)):
        trip = data_source.triplet(i)
        if trip.gt_depth is None:
            raise ValueError(f"triplet {i} carries no ground-truth depth")
        per_frame.append(depth_metrics(predict(trip), trip.gt_depth, cap=cap,
                                       median_scale=median_scale))
    mean = DepthMetrics(*[float(np.mean([getattr(m, c) for m in per_frame]))
                          for c in ("abs_rel", "sq_rel", "rmse", "rmse_log",
                                    "delta1", "delta2", "delta3")])
    return mean, per_frame
