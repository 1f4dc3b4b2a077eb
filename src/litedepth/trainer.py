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
from .data import augment, resize_depth
from .decoder import DepthDecoder, disp_to_depth
from .encoder import DepthEncoder, EncoderConfig
from .engine import Tensor, blocks, default_dtype, no_grad, using_dtype
from .losses import LossConfig, total_loss
from .metrics import DEPTH_CAP, METRIC_COLUMNS, DepthMetrics, depth_metrics
from .nn import Module
from .pngio import write_f32
from .posenet import PoseNet

__all__ = [
    "AdamW", "Models", "TrainingDiverged", "build_models", "checkpoint_entries",
    "cosine_lr", "evaluate", "load_checkpoint", "restore_checkpoint",
    "save_checkpoint", "saved_config_text", "train",
]

CHECKPOINT_MAGIC = b"LMCK"
CHECKPOINT_VERSION = 1

_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i8"),
               4: np.dtype("u1")}
_TAG_FOR_KIND = {"f4": 1, "f8": 2, "i8": 3, "u1": 4}


class TrainingDiverged(RuntimeError):
    """Raised when the network outputs or the loss cannot be trained on;
    the disparities are dumped first."""


# ------------------------------------------------------------------ optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with decoupled weight decay and bias-corrected moments:
    p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p."""

    def __init__(self, named_params: Dict[str, Tensor], weight_decay: float = 1e-2):
        self.params = dict(named_params)
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr: float) -> None:
        """One update in place, one cache-sized block of each parameter at a
        time (`engine.blocks`): every term goes through one block-sized
        scratch per parameter, so no full-size temporaries are allocated."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for name, p in self.params.items():
            g = (np.broadcast_to(np.zeros((), p.data.dtype), p.data.shape)
                 if p.grad is None else p.grad)
            # s too: its view would keep the last parameter's scratch alive
            scratch = s = np.empty(0, p.data.dtype)
            for gc, pc, m, v in blocks([g, p.data, self.m[name], self.v[name]], writes=3):
                if scratch.size < pc.size:  # a buffered walk's blocks vary in size
                    scratch = np.empty_like(pc)
                s = scratch[:pc.size]
                m *= ADAM_BETA1
                m += np.multiply(gc, 1.0 - ADAM_BETA1, out=s)
                v *= ADAM_BETA2
                np.multiply(gc, gc, out=s)
                s *= 1.0 - ADAM_BETA2
                v += s
                pc -= np.multiply(pc, lr * self.weight_decay, out=s)  # pre-update p
                np.divide(v, bc2, out=s)
                np.sqrt(s, out=s)
                s += ADAM_EPS
                np.divide(m, s, out=s)
                s *= lr / bc1
                pc -= s


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


def _state(models: Models, opt: Optional[AdamW] = None) -> Dict[str, np.ndarray]:
    """Each array a checkpoint holds for these models (and optimizer), by
    entry name: the live arrays, except ``opt.step``, a copy of the count."""
    state = {f"param.{k}": p.data for k, p in models.named_parameters()}
    state.update({f"buf.{k}": b for k, b in models.named_buffers()})
    if opt is not None:
        state.update({f"opt.m.{k}": m for k, m in opt.m.items()})
        state.update({f"opt.v.{k}": v for k, v in opt.v.items()})
        state["opt.step"] = np.array([opt.step_count], dtype=np.int64)
    return state


def checkpoint_entries(models: Models, opt: Optional[AdamW], epoch: int,
                       config_text: str) -> Dict[str, Union[np.ndarray, bytes]]:
    """What ``save_checkpoint`` writes: parameters, norm buffers, optimizer
    moments and step, the number of completed epochs and a config snapshot.
    The arrays are the live ones, so save them before the next step."""
    entries: Dict[str, Union[np.ndarray, bytes]] = dict(_state(models, opt))
    entries["meta.epoch"] = np.array([epoch], dtype=np.int64)
    entries["meta.config"] = config_text.encode("utf-8")
    return entries


def saved_config_text(entries: Dict[str, np.ndarray],
                      path: Union[str, Path] = "checkpoint") -> str:
    """The config snapshot of loaded checkpoint entries."""
    if "meta.config" not in entries:
        raise ValueError(f"{path}: checkpoint is missing meta.config")
    try:
        return entries["meta.config"].tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: meta.config is not UTF-8") from None


def restore_checkpoint(entries: Dict[str, np.ndarray], models: Models,
                       opt: Optional[AdamW] = None,
                       path: Union[str, Path] = "checkpoint") -> None:
    """Copy the entries into the models (and the optimizer, given one),
    after checking that every entry is present with the model's shape and
    dtype."""
    state = _state(models, opt)
    missing = [name for name in state if name not in entries]
    if missing:
        more = f" and {len(missing) - 1} more entries" if len(missing) > 1 else ""
        raise ValueError(f"{path}: checkpoint is missing {missing[0]}{more}")
    for name, target in state.items():
        if entries[name].shape != target.shape:
            raise ValueError(f"{path}: {name}: checkpoint shape {entries[name].shape} "
                             f"vs model {target.shape}")
        if entries[name].dtype != target.dtype:
            raise ValueError(f"{path}: {name}: checkpoint dtype {entries[name].dtype} "
                             f"vs model {target.dtype}")
    for name, target in state.items():
        target[...] = entries[name]
    if opt is not None:
        opt.step_count = int(state["opt.step"][0])


# ------------------------------------------------------------------- training


def _stack(frames: Sequence[np.ndarray]) -> Tensor:
    return Tensor(np.stack(frames).astype(default_dtype()))


_CURVE_COLUMNS = ("step", "lr", "total", "scale0", "scale1", "scale2", "smoothness")


def _curve_line(cells) -> str:
    return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cells) + "\n"


@dataclass
class TrainResult:
    models: Models
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
    per-iteration cosine rate, all at ``train_config.precision`` (the
    caller's default dtype is restored). Deterministic for a fixed seed and
    BLAS thread count. Raises TrainingDiverged, after dumping the disparities
    under ``out_dir/diagnostics``, on a non-finite network output, an all-zero
    disparity map or a non-finite loss. Under ``out_dir``, ``curves.csv``
    gains its row as each step ends, so a run that stops keeps its curve.
    """
    cfg = train_config
    loss_cfg = loss_config or LossConfig()
    with using_dtype(cfg.precision):
        models = build_models(encoder_config, seed=cfg.seed).train()
        opt = AdamW(dict(models.named_parameters()), weight_decay=cfg.weight_decay)

        n_items = len(data_source)
        if n_items == 0:
            raise ValueError("data source has no triplets")
        steps_per_epoch = max(1, math.ceil(n_items / cfg.batch_size))
        total_steps = cfg.steps if cfg.steps > 0 else cfg.epochs * steps_per_epoch

        out_path = curve_path = None
        if out_dir is not None:
            out_path = Path(out_dir)
            (out_path / "checkpoints").mkdir(parents=True, exist_ok=True)
            curve_path = out_path / "curves.csv"
            curve_path.write_text(_curve_line(_CURVE_COLUMNS))

        rng = np.random.default_rng(cfg.seed)

        def run_step(step: int, idx: np.ndarray) -> dict:
            """Load the batch, take one optimization step and return its curve
            row. Nothing the step builds outlives the call."""
            triplets = [data_source.triplet(int(i)) for i in idx]
            if cfg.augment:
                triplets = [augment(t, seed=int(rng.integers(2 ** 31)))
                            for t in triplets]
            clean = [t.frames for t in triplets]
            net_in = [t.network_frames() for t in triplets]
            prev_net = _stack([f[0] for f in net_in])
            tgt_net = _stack([f[1] for f in net_in])
            next_net = _stack([f[2] for f in net_in])
            prev_clean = _stack([f[0] for f in clean])
            tgt_clean = _stack([f[1] for f in clean])
            next_clean = _stack([f[2] for f in clean])

            # the last step's gradients stay readable until this step's data
            # is loaded, but are not held under the new graph
            models.zero_grad()
            disps = models.decoder(models.encoder(tgt_net))
            t_prev = models.pose.pose_between(tgt_net, prev_net, source_is_previous=True)
            t_next = models.pose.pose_between(tgt_net, next_net, source_is_previous=False)

            fault = _network_fault(disps, (t_prev, t_next))
            if fault is None:
                loss, diag = total_loss(disps, tgt_clean, [prev_clean, next_clean],
                                        [t_prev, t_next],
                                        [t.intrinsics for t in triplets], loss_cfg)
                if not np.isfinite(loss.data):
                    fault = "non-finite loss"
            if fault is not None:
                if out_path is not None:
                    _dump_disparities(out_path / "diagnostics", step, disps)
                raise TrainingDiverged(
                    f"{fault} at step {step}; diagnostics "
                    f"{'dumped' if out_path is not None else 'not persisted'}")

            lr = cosine_lr(step, total_steps, cfg.lr0, cfg.lr_min)
            loss.backward()
            opt.step(lr)
            return {"step": step, "lr": lr, "total": float(loss.data),
                    "scale0": diag["per_scale"][0],
                    "scale1": diag["per_scale"][1],
                    "scale2": diag["per_scale"][2],
                    "smoothness": float(np.mean(diag["smoothness"]))}

        curve: List[dict] = []
        for step in range(total_steps):
            if step % steps_per_epoch == 0:
                order = rng.permutation(n_items)
            start = (step % steps_per_epoch) * cfg.batch_size
            curve.append(run_step(step, order[start: start + cfg.batch_size]))
            if curve_path is not None:
                with curve_path.open("a") as f:
                    f.write(_curve_line(curve[-1][c] for c in _CURVE_COLUMNS))
            done = step + 1
            if (out_path is not None and cfg.checkpoint_every > 0
                    and done % cfg.checkpoint_every == 0):
                # every checkpoint records the number of completed epochs
                save_checkpoint(out_path / "checkpoints" / f"step{done:07d}.lmck",
                                checkpoint_entries(models, opt, done // steps_per_epoch,
                                                   config_text))

        ckpt_path = None
        if out_path is not None:
            ckpt_path = out_path / "checkpoints" / "final.lmck"
            save_checkpoint(ckpt_path, checkpoint_entries(
                models, opt, total_steps // steps_per_epoch, config_text))
        return TrainResult(models, curve, ckpt_path, curve_path)


def _network_fault(disps: Sequence[Tensor], poses: Sequence[Tensor]) -> Optional[str]:
    """Why the network outputs cannot enter the objective, or None: a
    non-finite value, or a sample whose disparity is all zero at some scale
    (smoothness normalizes by the mean disparity)."""
    if not all(np.isfinite(t.data).all() for t in (*disps, *poses)):
        return "non-finite network output"
    if not all(d.data.reshape(d.shape[0], -1).any(axis=1).all() for d in disps):
        return "all-zero disparity"
    return None


def _dump_disparities(out_dir: Path, step: int, disps: Sequence[Tensor]) -> None:
    """step{step}_scale{level}_disp.f32 for the batch's first sample, NaN and
    infinities replaced by finite values."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for level, disp in enumerate(disps):
        write_f32(out_dir / f"step{step}_scale{level}_disp.f32",
                  np.nan_to_num(disp.data[0]))


# ----------------------------------------------------------------- evaluation


def predict_depth(models: Models, frame: np.ndarray,
                  loss_config: Optional[LossConfig] = None) -> np.ndarray:
    """Full-resolution metric depth (H, W) for one RGB frame (3, H, W), at
    the models' precision whatever the caller's default dtype. The models
    run in eval mode, normalizing with their running statistics, and are
    left in the mode they came in."""
    loss_cfg = loss_config or LossConfig()
    dtype = next(models.parameters()).data.dtype
    training = models.training
    models.eval()
    try:
        with no_grad(), using_dtype(dtype):
            disp = models.decoder(models.encoder(Tensor(frame[None].astype(dtype))))[0]
            depth = disp_to_depth(disp, loss_cfg.min_depth, loss_cfg.max_depth)
    finally:
        models.train(training)
    return depth.data[0, 0]


def evaluate(models: Models, data_source,
             loss_config: Optional[LossConfig] = None,
             cap: float = DEPTH_CAP, median_scale: bool = True
             ) -> Tuple[DepthMetrics, List[DepthMetrics]]:
    """Depth against ground truth for every triplet, median-scaled by
    default; returns the mean row and the per-frame rows. Where the ground
    truth's resolution differs from the frames', the predicted inverse depth
    is resized to it and inverted back, so metrics compare at the ground
    truth's resolution. Only the target frame and its ground truth are kept
    from each triplet: its two neighbours are freed before the forward."""
    if len(data_source) == 0:
        raise ValueError("data source has no triplets")
    per_frame: List[DepthMetrics] = []
    for i in range(len(data_source)):
        trip = data_source.triplet(i)
        frame, gt_depth = trip.frames[1], trip.gt_depth
        del trip
        if gt_depth is None:
            raise ValueError(f"triplet {i} carries no ground-truth depth")
        # no local name: each depth map is freed before the next forward
        per_frame.append(depth_metrics(
            resize_depth(predict_depth(models, frame, loss_config), gt_depth.shape),
            gt_depth, cap=cap, median_scale=median_scale))
    mean = DepthMetrics(*[float(np.mean([getattr(m, c) for m in per_frame]))
                          for c in METRIC_COLUMNS])
    return mean, per_frame
