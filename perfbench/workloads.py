"""The benchmark's workloads: inputs generated from a seed, the program loop
each one drives (``trainer.train`` or ``trainer.evaluate``) and the checks
on its outputs.

The program runs its own loop. The benchmark hands it a data source that
calls ``boundary()`` before the first triplet of every step after the first,
and reads each step's outputs through hooks on the names the loop looks up
(``trainer.total_loss``, ``AdamW.step``, ``trainer.predict_depth``,
``trainer.depth_metrics``). ``boundary()`` raises ``Stop`` to end the loop.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from litedepth import data, engine, losses, trainer
from litedepth.config import TrainConfig
from litedepth.encoder import EncoderConfig, count_flops

F32_EPS = float(np.finfo(np.float32).eps)
ENDLESS = 10 ** 9      # steps or frames: the loop ends only through Stop


class Stop(Exception):
    """Raised from the boundary callback to end the program's loop."""


@dataclass(frozen=True)
class Spec:
    kind: str                    # "train" or "eval"
    variant: str                 # encoder preset
    size: Tuple[int, int]        # (width, height)
    batch: int
    frames: int                  # rendered frames; a sequence of n gives n - 2 triplets
    pins: Tuple[str, ...]        # step-0 values checked against pins.json
    warmup: int                  # untimed steps that end set-up


# Training warms up for two steps: train() keeps the previous step's graph
# alive while it builds the next, so step 1 is the first to hold two graphs
# and, like step 0, spends much of its time faulting in fresh pages.
WORKLOADS: Dict[str, Spec] = {
    "train-tiny-64x32": Spec("train", "tiny", (64, 32), 4, 18, ("loss0", "grad_norm0"), 2),
    "eval-base-640x192": Spec("eval", "base", (640, 192), 1, 10, ("abs_rel0",), 1),
}

# every workload path at the smallest size the encoder accepts
SMOKE: Dict[str, Spec] = {
    name: replace(spec, size=(64, 32), batch=min(spec.batch, 2), frames=4)
    for name, spec in WORKLOADS.items()
}


def derive_seeds(seed: int) -> List[int]:
    """Scene and model/training seeds derived from the workload seed."""
    return [int(s) % 2 ** 31 for s in np.random.SeedSequence(seed).generate_state(2)]


class _Boundaries:
    """Data source that calls ``boundary()`` when a new step starts."""

    def __init__(self, source, per_step: int, length: int, boundary: Callable[[], None]):
        self.source, self.per_step, self.length = source, per_step, length
        self.boundary = boundary
        self.calls = 0

    def __len__(self) -> int:
        return self.length

    def triplet(self, i: int):
        if self.calls and self.calls % self.per_step == 0:
            self.boundary()
        self.calls += 1
        return self.source.triplet(i % len(self.source))


@contextlib.contextmanager
def _hooked(owner, attr: str, make_hook):
    original = vars(owner)[attr]
    setattr(owner, attr, make_hook(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class TrainWorkload:
    """``trainer.train`` on an in-memory synthetic scene, augmentation on.

    The triplet count is a multiple of the batch, so every step is full."""

    def __init__(self, spec: Spec, seed: int, workdir: Path, precision: str = "f32"):
        del workdir  # the scene stays in memory
        scene_seed, train_seed = derive_seeds(seed)
        self.spec = spec
        self.source = data.SyntheticSource(scene_seed, spec.frames, spec.size)
        if len(self.source) % spec.batch:
            raise ValueError(f"{len(self.source)} triplets do not fill batches of {spec.batch}")
        self.config = TrainConfig(batch_size=spec.batch, steps=ENDLESS, seed=train_seed,
                                  precision=precision)
        self.encoder_config = EncoderConfig.variant_preset(spec.variant)
        self.encoder_macs = count_flops(self.encoder_config, spec.size) * spec.batch
        self.probe = None            # a tracer.MemoryProbe during memory steps
        self.losses: List[float] = []
        self.diag_bytes: List[int] = []
        self.opt: Optional[trainer.AdamW] = None

    def run(self, boundary: Callable[[], None]) -> None:
        def loss_hook(total_loss):
            def hooked(*args, **kwargs):
                loss, diag = total_loss(*args, **kwargs)
                self.losses.append(float(loss.data))
                self.diag_bytes.append(_nbytes(diag))
                if self.probe is not None:
                    self.probe.forward_done()
                return loss, diag
            return hooked

        def step_hook(adam_step):
            def hooked(opt, lr):
                self.opt = opt
                if self.probe is not None:
                    self.probe.backward_done()
                return adam_step(opt, lr)
            return hooked

        source = _Boundaries(self.source, self.spec.batch, len(self.source), boundary)
        with _hooked(trainer, "total_loss", loss_hook), \
                _hooked(trainer.AdamW, "step", step_hook), contextlib.suppress(Stop):
            trainer.train(self.config, self.encoder_config, source)

    def check(self, step: int) -> List[str]:
        if len(self.losses) <= step:
            return ["no loss computed"]
        loss = self.losses[step]
        return [] if math.isfinite(loss) else [f"loss {loss} is not finite"]

    def pinned_values(self) -> Dict[str, float]:
        """Step-0 values for pins.json; valid until step 1 zeroes the grads."""
        sq = sum(float(np.sum(np.square(p.grad, dtype=np.float64)))
                 for p in self.opt.params.values() if p.grad is not None)
        return {"loss0": self.losses[0], "grad_norm0": math.sqrt(sq)}


class EvalWorkload:
    """``trainer.evaluate`` of a random-init model over a dataset directory,
    cycling through its frames."""

    def __init__(self, spec: Spec, seed: int, workdir: Path, precision: str = "f32"):
        scene_seed, model_seed = derive_seeds(seed)
        self.spec = spec
        sequence = data.generate_synthetic_sequence(scene_seed, spec.frames, spec.size)
        data.save_dataset(sequence, workdir)
        self.source = data.DirectorySource(workdir)
        self.encoder_config = EncoderConfig.variant_preset(spec.variant)
        self.encoder_macs = count_flops(self.encoder_config, spec.size)
        engine.set_default_dtype(precision)
        self.models = trainer.build_models(self.encoder_config, seed=model_seed)
        loss_config = losses.LossConfig()
        self.depth_range = (loss_config.min_depth, loss_config.max_depth)
        self.probe = None
        self.depth: Optional[np.ndarray] = None
        self.abs_rel: List[float] = []

    def run(self, boundary: Callable[[], None]) -> None:
        def predict_hook(predict_depth):
            def hooked(*args, **kwargs):
                self.depth = predict_depth(*args, **kwargs)
                if self.probe is not None:
                    self.probe.forward_done()
                return self.depth
            return hooked

        def metrics_hook(depth_metrics):
            def hooked(*args, **kwargs):
                row = depth_metrics(*args, **kwargs)
                self.abs_rel.append(row.abs_rel)
                return row
            return hooked

        source = _Boundaries(self.source, 1, ENDLESS, boundary)
        with _hooked(trainer, "predict_depth", predict_hook), \
                _hooked(trainer, "depth_metrics", metrics_hook), contextlib.suppress(Stop):
            trainer.evaluate(self.models, source)

    def check(self, step: int) -> List[str]:
        depth, self.depth = self.depth, None
        if depth is None:
            return ["no depth predicted"]
        if not np.isfinite(depth).all():
            return ["non-finite depth"]
        # one f32 rounding of the disparity-to-depth division either side
        lo, hi = self.depth_range[0] * (1 - F32_EPS), self.depth_range[1] * (1 + F32_EPS)
        if depth.min() < lo or depth.max() > hi:
            return [f"depth range [{depth.min()}, {depth.max()}] leaves [{lo}, {hi}]"]
        return []

    def pinned_values(self) -> Dict[str, float]:
        return {"abs_rel0": self.abs_rel[0]}


def make(spec: Spec, seed: int, workdir: Path, precision: str = "f32"):
    cls = TrainWorkload if spec.kind == "train" else EvalWorkload
    return cls(spec, seed, workdir, precision)


def compare_pins(values: Dict[str, float], spec: Spec, table: Optional[dict],
                 seed: int) -> Optional[List[str]]:
    """Failures of the step-0 values against pins.json; None if the seed has no pin."""
    pins = (table or {}).get("seeds", {}).get(str(seed))
    if pins is None:
        return None
    failures = []
    for key in spec.pins:
        pin, tol = pins[key], table["rel_tol"][key]
        if not abs(values[key] - pin) <= tol * abs(pin):
            failures.append(f"{key} {values[key]!r} differs from pinned {pin!r} "
                            f"by more than {tol:.1e} relative")
    return failures


def _nbytes(obj) -> int:
    """Bytes of the numpy arrays held in a nested dict/list."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0
