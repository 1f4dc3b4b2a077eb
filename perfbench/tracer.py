"""Layer tracing for the benchmark, done entirely from outside the package.

The tracer wraps the public functions of each litedepth module where callers
look them up (module globals and class attributes) and records one span per
call: id, parent span, name, step id, start and end. Engine ops get the same
treatment, and every graph node's backward closure is wrapped at
``Tensor._from_op`` so backward time is attributed to the op that created the
node. The wrappers are installed for a traced step and removed after it.

Spans fall into two hierarchies: module layers (data, encoder, losses, ...)
and engine ops. A span's self time is its duration minus the time of its
child spans *of the same hierarchy*, so ``encoder.fwd`` includes the convs it
runs and ``engine.fwd.layer_norm`` excludes the ``mul`` calls inside it.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class attribute
MODULE_LAYERS = (
    ("litedepth.data", "SyntheticSource.triplet", "data.triplet"),
    ("litedepth.data", "DirectorySource.triplet", "data.triplet"),
    ("litedepth.data", "augment", "data.augment"),
    ("litedepth.pngio", "read_png", "pngio.read"),
    ("litedepth.pngio", "read_f32", "pngio.read"),
    ("litedepth.encoder", "DepthEncoder.__call__", "encoder.fwd"),
    ("litedepth.decoder", "DepthDecoder.__call__", "decoder.fwd"),
    ("litedepth.posenet", "PoseNet.pose_between", "posenet.fwd"),
    ("litedepth.warp", "synthesize", "warp.synthesize"),
    ("litedepth.losses", "total_loss", "losses.fwd"),
    ("litedepth.engine.tensor", "Tensor.backward", "engine.backward"),
    ("litedepth.trainer", "AdamW.step", "trainer.optim"),
    ("litedepth.trainer", "predict_depth", "trainer.predict"),
    ("litedepth.metrics", "depth_metrics", "metrics.depth_metrics"),
)

# engine ops timed forward (engine.fwd.<op>) and backward (engine.bw.<op>)
OPS = {
    "conv2d": ("litedepth.engine.functional", ("conv2d",)),
    "bilinear_sample": ("litedepth.engine.functional", ("bilinear_sample",)),
    "resize_bilinear": ("litedepth.engine.functional", ("resize_bilinear",)),
    "avg_pool": ("litedepth.engine.functional", ("avg_pool",)),
    "gelu": ("litedepth.engine.functional", ("gelu",)),
    "batch_norm": ("litedepth.engine.functional", ("batch_norm",)),
    "layer_norm": ("litedepth.engine.functional", ("layer_norm",)),
    "softmax": ("litedepth.engine.functional", ("softmax",)),
    "concat": ("litedepth.engine.tensor", ("concat",)),
    "mul": ("litedepth.engine.tensor", ("Tensor.__mul__", "Tensor.__rmul__")),
    "getitem": ("litedepth.engine.tensor", ("Tensor.__getitem__",)),
}


def _lookup_sites(module_name: str, attr: str):
    """Every (owner, attribute) pair through which callers reach a function.

    Modules bind functions at import (``from .engine import gelu``), so a
    module-level function is patched in each litedepth module that holds it.
    """
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        return [(getattr(module, cls_name), method)]
    fn = getattr(module, attr)
    return [(mod, name) for mod_name, mod in list(sys.modules.items())
            if mod_name.split(".")[0] == "litedepth"
            for name, value in vars(mod).items() if value is fn]


class Tracer:
    """Records spans while installed; aggregates self time per step."""

    def __init__(self):
        self.spans = []            # (id, parent, name, step, t0, t1)
        self.step = -1
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.nodes = 0             # graph nodes built (Tensor._from_op calls)
        self._stack = []           # open frames: [name, is_op, t0, id, child_time]
        self._ops = []             # short names of open forward-op spans
        self._next_id = 0
        # (owner, attribute, span name, op); sites are found from the
        # package's own functions, so build the tracer before any hook
        self._sites = []
        for module_name, attr, name in MODULE_LAYERS:
            self._sites += [(owner, a, name, None) for owner, a in _lookup_sites(module_name, attr)]
        for op, (module_name, attrs) in OPS.items():
            for attr in attrs:
                self._sites += [(owner, a, "engine.fwd." + op, op)
                                for owner, a in _lookup_sites(module_name, attr)]
        self._tensor = sys.modules["litedepth.engine.tensor"].Tensor
        self._saved = []

    # ------------------------------------------------------------ install

    def install(self, step: int) -> None:
        """Wrap whatever each site holds now (a hook of the caller's too)."""
        self.step = step
        self.self_time.clear()
        self.calls.clear()
        self.nodes = 0
        self._saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in self._sites]
        for (owner, attr, name, op), (_, _, current) in zip(self._sites, self._saved):
            setattr(owner, attr, self._wrap(current, name, op))
        from_op = vars(self._tensor)["_from_op"]
        self._saved.append((self._tensor, "_from_op", from_op))
        self._tensor._from_op = staticmethod(self._node_hook(from_op.__func__))

    def uninstall(self) -> dict:
        """Restore the sites and return this step's per-span totals."""
        for owner, attr, saved in reversed(self._saved):
            setattr(owner, attr, saved)
        self._saved = []
        return {"self_s": dict(self.self_time), "calls": dict(self.calls),
                "nodes": self.nodes}

    # ------------------------------------------------------------ spans

    def _call(self, name, op, fn, args, kwargs):
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, op is not None, perf_counter(), self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        if op is not None:
            self._ops.append(op)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            if op is not None:
                self._ops.pop()
            dur = t1 - frame[2]
            for outer in reversed(self._stack):
                if outer[1] == frame[1]:
                    outer[4] += dur
                    break
            self.self_time[name] += dur - frame[4]
            self.calls[name] += 1
            self.spans.append((frame[3], parent, name, self.step, frame[2], t1))

    def _wrap(self, fn, name, op):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, op, fn, args, kwargs)
        return traced

    def _node_hook(self, from_op):
        def traced_from_op(data, parents, backward):
            self.nodes += 1
            out = from_op(data, parents, backward)
            if out._backward is not None:
                op = self._ops[-1] if self._ops else "other"
                name, bw = "engine.bw." + op, out._backward
                out._backward = lambda g: self._call(name, op, bw, (g,), {})
            return out
        return traced_from_op

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstep\tstart_s\tend_s\n")
            for span in self.spans:
                f.write("%d\t%d\t%s\t%d\t%.9f\t%.9f\n" % span)


class MemoryProbe:
    """tracemalloc peaks of one step: from its start to the end of
    forward+loss, and during backward. numpy reports its array buffers to
    tracemalloc.

    Tracing starts when the probe is made, a step before ``begin()`` marks the
    measured step: tracemalloc counts only blocks allocated while it runs, and
    the measured step inherits memory from the one before it (``train()``
    keeps the previous step's graph alive while it builds the next).
    """

    def __init__(self):
        self.graph_peak = 0
        self.backward_peak = 0
        tracemalloc.start()

    def begin(self) -> None:
        tracemalloc.reset_peak()

    def forward_done(self) -> None:
        self.graph_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()

    def backward_done(self) -> None:
        self.backward_peak = tracemalloc.get_traced_memory()[1]

    def stop(self) -> None:
        tracemalloc.stop()
