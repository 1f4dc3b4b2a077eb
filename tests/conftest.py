import numpy as np
import pytest

from litedepth.engine import Tensor, set_default_dtype


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
def reconstruction_grad():
    """reconstruction_grad(unwarped, warped, valid) -> the auto-masked
    reconstruction term training runs, over per-source photometric maps and
    a validity map, and its gradient with respect to the best warped map."""
    from litedepth.losses import _reconstruction_term, min_reprojection

    def grad(unwarped, warped, valid):
        best_warped = Tensor(min_reprojection(warped).data, requires_grad=True)
        term = _reconstruction_term(best_warped, min_reprojection(unwarped),
                                    np.asarray(valid, dtype=best_warped.dtype), True)
        term.backward()
        return float(term.data), best_warped.grad
    return grad


@pytest.fixture
def count_nodes(monkeypatch):
    """count_nodes(fn) -> the number of graph nodes built while fn() runs."""
    def count(fn):
        made = []
        from_op = Tensor._from_op
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "_from_op", staticmethod(
                lambda data, parents, backward: made.append(1) or from_op(data, parents, backward)))
            fn()
        return len(made)
    return count


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
