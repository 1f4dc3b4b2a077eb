import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from litedepth.engine import Tensor, recompute, set_default_dtype
from litedepth.gradsuite import EPS

# Every property test draws the same examples on every run, keeps no example
# database and has no per-example deadline, since a grad_check's time grows
# with its draw; each test sets its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
# Hypothesis still writes a cache of the constants it reads from local
# modules, and a failing example's patch, under its storage directory: put it
# in the system's temporary directory, not ./.hypothesis. Hypothesis reads
# the variable once, while test modules are collected.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "litedepth-hypothesis"))


@pytest.fixture(autouse=True)
def _f64_default():
    # correctness tests run in 64-bit; training tests opt back into f32
    set_default_dtype("f64")
    yield
    set_default_dtype("f32")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def relative_transform():
    """relative_transform(seq, target, source) -> the source-camera-from-
    target-camera matrix of a SyntheticSequence, from its ground-truth poses."""
    def transform(seq, target, source):
        return np.linalg.inv(seq.poses[source]) @ seq.poses[target]
    return transform


@pytest.fixture
def occlusion_boundary_mask():
    """occlusion_boundary_mask(depth) -> True near depth discontinuities of an
    (H, W) depth map, where a ground-truth warp is undefined by construction
    (disocclusions)."""
    def mask(depth, rel_jump=0.03, dilate=2):
        jump = np.zeros_like(depth, dtype=bool)
        rel = np.abs(np.diff(depth, axis=1)) / np.minimum(depth[:, 1:], depth[:, :-1])
        jump[:, 1:] |= rel > rel_jump
        jump[:, :-1] |= rel > rel_jump
        rel = np.abs(np.diff(depth, axis=0)) / np.minimum(depth[1:], depth[:-1])
        jump[1:] |= rel > rel_jump
        jump[:-1] |= rel > rel_jump
        out = jump
        for _ in range(dilate):
            grown = out.copy()
            grown[1:] |= out[:-1]
            grown[:-1] |= out[1:]
            grown[:, 1:] |= out[:, :-1]
            grown[:, :-1] |= out[:, 1:]
            out = grown
        return out
    return mask


@pytest.fixture
def reconstruction_grad():
    """reconstruction_grad(unwarped, warped, valid) -> the auto-masked
    reconstruction term training runs, over per-source photometric maps and
    a validity map, and its gradient with respect to the best warped map."""
    from litedepth.losses import _reconstruction_term, min_reprojection

    def grad(unwarped, warped, valid):
        best_warped = Tensor(min_reprojection(warped).data, requires_grad=True)
        term = _reconstruction_term(best_warped, min_reprojection(unwarped),
                                    np.asarray(valid, dtype=best_warped.dtype))
        term.backward()
        return float(term.data), best_warped.grad
    return grad


@pytest.fixture
def kink_margins(monkeypatch):
    """kink_margins() -> one (kept fraction, margin) pair per scale of the
    first `total_loss` evaluated since set-up, after asserting that a
    finite-difference check of the masked objective is meaningful there.

    On valid pixels the reconstruction term is min(best warped, best
    unwarped), with a kink where the two tie. Asserted at every scale: the
    auto-mask keeps some pixels and drops others, so both branches are
    exercised; every valid pixel's |best unwarped - best warped| (the
    margin) exceeds 10 EPS, the finite-difference step `gradsuite.EPS`; and
    every later evaluation keeps the same pixels, so no central difference
    crossed a kink of the auto-mask.
    """
    from litedepth import losses
    # One +-EPS step of one input moved a per-pixel loss by at most 5.2 EPS
    # on the gradient suite's seed-0 draws and on the loss test's draws (both
    # measured; other draws are not), so a pixel further than 10 EPS from the
    # tie keeps its branch at every point the central difference evaluates.
    # The bound covers the auto-mask's tie only: not a tie between two
    # sources in `min_reprojection`, nor a pixel whose validity changes.
    kink_margin = 10 * EPS
    calls = []
    term = losses._reconstruction_term

    def record(best_warped, best_unwarped, valid_any):
        valid = valid_any.astype(bool)
        gap = np.abs(best_unwarped.data - best_warped.data)[valid]
        calls.append((valid & (best_unwarped.data > best_warped.data), gap.min()))
        return term(best_warped, best_unwarped, valid_any)

    monkeypatch.setattr(losses, "_reconstruction_term", record)

    def margins():
        assert len(calls) >= 3, "no total_loss was evaluated"
        out = []
        for level, (keep, margin) in enumerate(calls[:3]):
            assert 0.0 < keep.mean() < 1.0, (level, keep.mean())
            assert margin > kink_margin, (level, margin)
            out.append((float(keep.mean()), float(margin)))
        for i, (keep, _) in enumerate(calls):
            assert np.array_equal(keep, calls[i % 3][0]), f"evaluation {i // 3}"
        return out
    return margins


@pytest.fixture
def assert_same_bits():
    """assert_same_bits(a, b): both None, or arrays of one dtype and shape
    whose bits agree, the sign of zero included."""
    def check(a, b):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    return check


@pytest.fixture
def plain_graph():
    """plain_graph(patch): through the monkeypatch context ``patch``, run every
    `recompute` node as a direct call of its function, in each litedepth
    module that binds `recompute`. The modules are found by identity, as
    the benchmark's tracer finds the functions it wraps, so a module that
    starts binding `recompute` is patched too."""
    import litedepth.trainer  # noqa: F401  loads every module a training step runs

    def direct(fn, *inputs, params=()):
        return fn(*inputs)

    def install(patch):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "litedepth":
                for attr, value in list(vars(module).items()):
                    if value is recompute:
                        patch.setattr(module, attr, direct)
    return install


@pytest.fixture
def count_nodes(monkeypatch):
    """count_nodes(fn) -> the number of graph nodes built while fn() runs:
    the `Tensor._from_op` calls that attach a backward."""
    def count(fn):
        made = []
        from_op = Tensor._from_op

        def record(data, parents, backward):
            out = from_op(data, parents, backward)
            made.append(out._backward is not None)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "_from_op", staticmethod(record))
            fn()
        return sum(made)
    return count


@pytest.fixture
def spatial_attention_probe():
    """spatial_attention_probe(q, k, v, heads) -> reference token-by-token
    attention over batched (B, N_tok, d) inputs, whose buffer grows as
    N_tok^2; it shows the memory gap against the encoder's channel form."""
    from litedepth import encoder

    def probe(q, k, v, heads):
        _, _, d = q.shape
        qh, kh, vh = (encoder._split_heads(t, heads) for t in (q, k, v))
        logits = (qh @ kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(d // heads))  # (B,h,N,N)
        # looked up at call time, so attention_sizes records this matrix too
        attn = encoder.softmax(logits, axis=-1)
        return encoder._merge_heads(attn @ vh)
    return probe


@pytest.fixture
def attention_sizes(monkeypatch):
    """The list of per-batch-item element counts of every attention matrix
    the encoder module builds while the test runs, in call order."""
    from litedepth import encoder
    sizes = []
    softmax = encoder.softmax

    def record(x, axis=-1):
        out = softmax(x, axis=axis)
        sizes.append(out.size // out.shape[0])
        return out

    monkeypatch.setattr(encoder, "softmax", record)
    return sizes
