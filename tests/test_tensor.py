import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from litedepth.decoder import DepthDecoder
from litedepth.encoder import DepthEncoder, EncoderConfig
from litedepth.engine import (
    Tensor, concat, default_dtype, grad_check, maximum, minimum, no_grad, recompute,
    softmax, stack, using_dtype,
)
from test_op_properties import BINARY, SEEDS


def t(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_square_grad_is_2x(self):
        x = t([1.0, -2.0, 3.0])
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_repeated_backward_accumulates(self):
        x = t([1.0, 2.0])
        x.sum().backward()
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            (x * 2).backward()

    def test_shared_node_grads_sum(self):
        x = t([3.0])
        y = x * x + x          # dy/dx = 2x + 1 = 7
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_blocks_graph(self):
        x = t([1.0, 2.0])
        with no_grad():
            y = x * 2
        assert not y.requires_grad and y._parents == ()

    def test_only_leaves_keep_grad(self):
        x = t([1.0, -2.0])
        h = x * x
        loss = (h * 3.0).sum()
        loss.backward()
        assert h.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, 6.0 * x.data)

    def test_grad_present_iff_requires_grad(self):
        x = t([1.0], rg=False)
        y = t([2.0])
        (x * y).sum().backward()
        assert x.grad is None
        assert y.grad is not None


class TestDefaultDtype:
    @pytest.mark.parametrize("name,dtype", [("f32", np.float32), ("f64", np.float64)])
    def test_a_name_and_its_numpy_dtype_select_the_same_precision(self, name, dtype):
        for given in (name, dtype, np.dtype(dtype)):
            with using_dtype(given):
                assert default_dtype() == np.dtype(dtype)

    @pytest.mark.parametrize("given", ["f16", "float32", np.float16, np.dtype(np.int32), None])
    def test_other_dtypes_are_refused(self, given):
        before = default_dtype()
        with pytest.raises(ValueError, match="unknown dtype"):
            with using_dtype(given):
                pass
        assert default_dtype() == before


class TestGraphRelease:
    """backward() frees each node's parents and closure as it visits it."""

    def test_intermediates_die_during_backward(self):
        x, w = t([1.0, -2.0, 3.0]), t([0.5, 0.25, -1.0])
        h = x * w
        dead = weakref.ref(h)
        loss = (h.exp() * 2.0).sum()
        del h
        assert dead() is not None        # the graph holds it until backward
        loss.backward()
        assert dead() is None
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(x.data * w.data) * w.data)
        np.testing.assert_allclose(w.grad, 2.0 * np.exp(x.data * w.data) * x.data)

    def test_second_backward_raises(self):
        x = t([1.0, -2.0])
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_encoder_decoder_graph_passes_grad_check(self):
        cfg = EncoderConfig(variant="tiny", channels=(4, 4, 8, 8),
                            dilation_schedule=([1], [2], [1]), heads=(1, 1, 2), expansion=2)
        enc, dec = DepthEncoder(cfg, seed=0), DepthDecoder(cfg.channels[1:], seed=1)
        params = dict(enc.named_parameters()) | dict(dec.named_parameters())
        image = Tensor(np.random.default_rng(0).random((1, 3, 32, 32)))
        weights = [Tensor(np.random.default_rng(level).standard_normal(32 >> level))
                   for level in range(3)]

        def f(*_):
            disps = dec(enc(image))
            return sum((disps[level].mean(axis=(0, 1, 2)) * weights[level]).sum()
                       for level in range(3))

        # one parameter from the stem, the attention, a convolution block and a head
        names = ["stem.0.norm.scale", "stages.2.1.temperature",
                 "stages.0.1.wq.weight", "stages.1.0.dwconv.weight", "heads.1.bias"]
        assert grad_check(f, [params[k] for k in names]) < 1e-4


def composite(a, b):
    """Reads `a` twice, with a default-dtype constant, and returns an array
    beside the tensor."""
    return a * b + (a * 0.1).exp(), a.data > 0.0


def composite_node(a, b, b_param):
    """`composite` as one node, with b its second input or a param it reads."""
    if b_param:
        return recompute(lambda x: composite(x, b), a, params=[b])
    return recompute(composite, a, b)


class TestRecompute:
    """recompute(fn, *inputs, params=...) is one node with fn's value and
    gradients; fn reads its params directly, as a block reads its weights."""

    @pytest.mark.parametrize("default, a_dtype, b_dtype", [
        ("f32", np.float32, np.float32), ("f64", np.float64, np.float64),
        ("f32", np.float64, np.float32), ("f64", np.float32, np.float64)])
    @pytest.mark.parametrize("b_grad", [True, False])
    # b as the node's second input, or as a param that fn reads directly
    @pytest.mark.parametrize("b_param", [False, True])
    # assert_same_bits keeps no state between examples
    @settings(max_examples=4, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 5)), seed=SEEDS)
    def test_matches_fn_bit_for_bit(self, default, a_dtype, b_dtype, b_grad, b_param, shape,
                                    seed, assert_same_bits):
        rng = np.random.default_rng(seed)
        a_data, b_data = rng.standard_normal((2, *shape))
        upstream = rng.standard_normal(shape)
        upstream.flat[::2] = -0.0
        results = []
        for fused in (True, False):
            a = Tensor(a_data.astype(a_dtype), requires_grad=True)
            b = Tensor(b_data.astype(b_dtype), requires_grad=b_grad)
            with using_dtype(default):
                y, mask = composite_node(a, b, b_param) if fused else composite(a, b)
            # the backward runs under the other default dtype
            with using_dtype("f64" if default == "f32" else "f32"):
                (y * Tensor(upstream.astype(y.dtype))).sum().backward()
            assert (b.grad is not None) == b_grad
            results.append((y.data, mask, a.grad, b.grad))
        for fused, direct in zip(*results):
            assert_same_bits(fused, direct)

    @pytest.mark.parametrize("default", ["f32", "f64"])
    def test_param_with_a_grad_read_by_two_nodes(self, default, rng, assert_same_bits):
        # w already holds a gradient and each node reads it once: the plain
        # graph adds the sum of its two terms to that grad, and so must the
        # nodes; adding each term to w.grad in turn rounds apart
        x_data, w_data, held, upstream = rng.standard_normal((4, 64))
        results = []
        for fused in (True, False):
            with using_dtype(default):
                dt = default_dtype()
                x = Tensor(x_data.astype(dt), requires_grad=True)
                w = Tensor(w_data.astype(dt), requires_grad=True)
                w.grad = held.astype(dt)

                def scaled(t):
                    return ((t * w).exp(),)

                run = recompute if fused else lambda fn, *inputs, params=(): fn(*inputs)
                h = run(scaled, x, params=[w])[0]
                y = run(scaled, h * 0.5, params=[w])[0]
                (y * Tensor(upstream.astype(dt))).sum().backward()
            results.append((y.data, x.grad, w.grad))
        for fused, direct in zip(*results):
            assert_same_bits(fused, direct)

    # a and b as inputs; an input needing no gradient with a param that
    # does, as the stem reads the image
    @pytest.mark.parametrize("b_param", [False, True])
    def test_one_node_and_none_under_no_grad(self, b_param, count_nodes, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=not b_param)
        b = Tensor(rng.standard_normal(3), requires_grad=b_param)
        assert count_nodes(lambda: composite_node(a, b, b_param)) == 1
        with no_grad():
            assert count_nodes(lambda: composite_node(a, b, b_param)) == 0
            y, _ = composite_node(a, b, b_param)
        assert not y.requires_grad and y._parents == ()

    @pytest.mark.parametrize("b_param", [False, True])
    def test_input_without_grad_gets_none(self, b_param, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=not b_param)
        b = Tensor(rng.standard_normal(3), requires_grad=b_param)
        y, _ = composite_node(a, b, b_param)
        ga, gb = y._backward(np.ones(3))
        assert (ga is None, gb is None) == (b_param, not b_param)
        # a param's grad is left as it was before the node's backward
        assert b.grad is None

    def test_second_backward_raises(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        y, _ = recompute(composite, a, a)
        y.sum().backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (y * 2.0).sum().backward()


class TestSkippedGradients:
    """A binary op builds no gradient for an operand that does not require
    one, and the other operand's gradient is unchanged by the skip."""

    @pytest.mark.parametrize("name", sorted(BINARY))
    def test_needed_grad_is_unchanged(self, name, rng):
        f = BINARY[name]
        if name == "matmul":
            a_data, b_data = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))
        else:
            a_data, b_data = rng.standard_normal((3, 4)), rng.standard_normal((1, 4)) + 3.0
            a_data[0] = b_data[0]            # ties for maximum/minimum
        upstream = rng.standard_normal(f(Tensor(a_data), Tensor(b_data)).shape)
        for needed in (0, 1):
            grads = []
            for both in (True, False):
                a = Tensor(a_data, requires_grad=both or needed == 0)
                b = Tensor(b_data, requires_grad=both or needed == 1)
                parent_grads = f(a, b)._backward(upstream)
                assert (parent_grads[1 - needed] is None) != both
                grads.append(parent_grads[needed])
            np.testing.assert_array_equal(grads[0], grads[1])


class TestExtremum:
    @pytest.mark.parametrize("op, routes_to_a", [
        (maximum, [0.0, 1.0, 1.0, 0.0, 0.0]),
        (minimum, [1.0, 1.0, 0.0, 0.0, 0.0]),
    ])
    def test_gradient_follows_the_output_and_ties_go_first(self, op, routes_to_a):
        # a < b, a == b, a > b, then a NaN in either operand
        a = Tensor(np.array([1.0, 2.0, 3.0, np.nan, 1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 2.0, 2.0, 0.0, np.nan]), requires_grad=True)
        ga, gb = op(a, b)._backward(np.ones(5))
        np.testing.assert_array_equal(ga, routes_to_a)
        np.testing.assert_array_equal(gb, 1.0 - np.array(routes_to_a))


class TestMatmul:
    def test_matches_triple_loop_oracle(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_array_equal(out.data, expected)

    def test_identity_times_a_is_a(self, rng):
        a = rng.standard_normal((4, 4))
        out = Tensor(np.eye(4)) @ Tensor(a)
        np.testing.assert_array_equal(out.data, a)

    def test_inner_dim_mismatch_names_axes(self):
        with pytest.raises(ValueError, match="axis"):
            t(np.zeros((2, 3))) @ t(np.zeros((4, 2)))


class TestConcat:
    def test_single_tensor_is_identity(self):
        x = t([[1.0, 2.0]])
        assert concat([x], axis=0) is x

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            concat([], axis=0)

    def test_off_axis_mismatch_names_axis(self):
        with pytest.raises(ValueError, match="axis 1"):
            concat([t(np.zeros((2, 3))), t(np.zeros((2, 4)))], axis=0)

    def test_grad_splits_back(self):
        a, b = t([[1.0, 2.0]]), t([[3.0, 4.0], [5.0, 6.0]])
        out = concat([a, b], axis=0)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)

    def test_stack(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)


class TestGetitem:
    def test_rejects_advanced_indices(self):
        # integer arrays, lists and boolean masks may select an element twice
        a = Tensor(np.zeros((3, 4, 5)))
        for idx in (np.array([0, 2, 2]), (slice(None), [1, 1, 3]),
                    (np.array([True, False, True]),), True):
            with pytest.raises(TypeError, match="basic indices"):
                a[idx]


class TestSoftmaxProperties:
    def test_sums_to_one_and_open_interval(self, rng):
        for _ in range(5):
            x = Tensor(rng.standard_normal((3, 7)) * 5)
            s = softmax(x, axis=-1).data
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(s > 0) and np.all(s < 1)

    def test_length_one_axis_is_exactly_one(self):
        s = softmax(Tensor(np.array([[3.7]])), axis=-1)
        np.testing.assert_array_equal(s.data, [[1.0]])


class TestGradCheckSuite:
    """Every unary op passes a finite-difference check on >=5 random small
    shapes (64-bit, eps=1e-5, max relative error < 1e-4); the binary ops'
    checks are in test_op_properties.py."""

    UNARY = {
        "exp": lambda x: x.exp().sum(),
        "log": lambda x: (x * x + 1.0).log().sum(),
        "sqrt": lambda x: (x * x + 1.0).sqrt().sum(),
        "abs": lambda x: (x.abs() * x.abs()).sum(),
        "neg": lambda x: (-x * x).sum(),
        "pow": lambda x: ((x * x + 1.0) ** 1.5).sum(),
        "reshape": lambda x: (x.reshape(-1) * x.reshape(-1)).sum(),
        "transpose": lambda x: (x.transpose(1, 0) @ x).sum(),
        "getitem": lambda x: (x[0:1] * x[0:1]).sum(),
        "mean": lambda x: (x * x).mean(),
        "softmax": lambda x: (softmax(x, axis=-1) * softmax(x, axis=-1)).sum(),
        "sum_axis": lambda x: (x.sum(axis=0) ** 2.0).sum(),
    }

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary_ops(self, name, rng):
        f = self.UNARY[name]
        for _ in range(5):
            shape = tuple(rng.integers(2, 5, size=2))
            x = Tensor(rng.standard_normal(shape))
            assert grad_check(f, [x]) < 1e-4

    def test_linear_program_fd_error_at_rounding_level(self, rng):
        # finite differences are exact for linear maps up to rounding
        x = Tensor(rng.standard_normal((3, 3)))
        assert grad_check(lambda a: (a * 2.0 + 1.0).sum(), [x]) < 1e-9

    def test_fd_error_improves_as_eps_shrinks(self, rng):
        x = Tensor(rng.standard_normal((2, 2)))

        def f(a):
            return (a * a * a).sum()

        coarse = grad_check(f, [x], eps=1e-1)
        fine = grad_check(f, [x], eps=1e-5)
        assert fine < coarse

    def test_sigmoid_of_linear_map(self, rng):
        from litedepth.engine import sigmoid
        w = Tensor(rng.standard_normal((3, 3)))
        x = Tensor(rng.standard_normal((3, 2)))
        assert grad_check(lambda a, b: sigmoid(a @ b).sum(), [w, x], eps=1e-5) < 1e-6
