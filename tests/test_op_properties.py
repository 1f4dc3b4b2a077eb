"""The engine ops against their definitional references (`reference_ops.py`),
on geometries and dtypes drawn by Hypothesis.

Values are dyadic rationals, small integers over a power of two, wherever
that makes an op exact: every product and partial sum is then representable
in f32 and f64, so the engine and the reference agree bit for bit in any
summation order and in either precision. Gradients are also checked against
central finite differences with `grad_check` on f64 normal draws. Draws are
derandomized (conftest.py's profile), so every run checks the same examples.

Axes with a few discrete values (dtype, conv kind, kernel and stride, which
operands need a gradient, resize direction, where sample points fall) are
enumerated with `pytest.mark.parametrize`, so every combination is checked on
every run and a failure names it; sizes, offsets and values are drawn.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference_ops as ref
from litedepth.engine import (
    ConvSpec, Tensor, avg_pool, bilinear_sample, conv2d, grad_check, maximum,
    minimum, resize_bilinear,
)

# the bound every grad_check in the suite uses; the programs checked here are
# linear in each coordinate grad_check moves (away from kinks), so their
# finite differences are exact up to rounding
GRAD_TOL = 1e-4

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
SEEDS = st.integers(0, 2 ** 32 - 1)


def dyadic(rng, shape, dtype):
    """Multiples of 1/8 in [-8, 8): 7 significant bits each."""
    return np.asarray(rng.integers(-64, 64, size=shape) / 8.0, dtype)


def leaves(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def backward_with(out, g):
    """Backpropagate the output gradient g through out into its leaves."""
    (out * Tensor(g)).sum().backward()


def assert_grad_of(t, want, op=""):
    """t.grad has t's shape and dtype, and equals want."""
    assert t.grad.shape == t.shape and t.grad.dtype == t.dtype, op
    np.testing.assert_array_equal(t.grad, want.astype(t.dtype), err_msg=op)


def assert_within(got, want, bound):
    """|got - want| <= bound, elementwise."""
    excess = np.abs(got - want) - bound
    assert (excess <= 0).all(), f"exceeds its bound by up to {excess.max():.3g}"


def grad_check_weighted(op, arrays, rng):
    """grad_check of sum(op(*inputs) * G) for a fixed normal G, in f64."""
    inputs = [Tensor(np.asarray(a, np.float64)) for a in arrays]
    weight = Tensor(rng.standard_normal(op(*inputs).shape))
    assert grad_check(lambda *ts: (op(*ts) * weight).sum(), inputs) < GRAD_TOL


# ------------------------------------------------------------- convolution


@st.composite
def conv_geometries(draw, kind, k, stride):
    """(batch, in channels, out channels, spec, height, width) of a conv of
    the given kind ("dense", "two groups" or "depthwise"), kernel and stride."""
    if kind == "depthwise":
        groups = cin = cout = draw(st.integers(1, 3))
    else:
        groups = 1 if kind == "dense" else 2
        cin, cout = (groups * draw(st.integers(1, 2)) for _ in range(2))
    dilation = draw(st.integers(1, 6))
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    # from the least padding that leaves an output pixel up to k * dilation,
    # where whole output rows read nothing but padding
    least = max(0, -(-(dilation * (k - 1) + 1 - min(h, w)) // 2))
    padding = draw(st.integers(least, max(least, k * dilation)))
    spec = ConvSpec(stride=stride, padding=padding, dilation=dilation, groups=groups)
    return draw(st.integers(1, 2)), cin, cout, spec, h, w


def conv_shapes(geometry, k, with_bias):
    """The input, weight and (if with_bias) bias shapes of a conv geometry."""
    n, cin, cout, spec, h, w = geometry
    return [(n, cin, h, w), (cout, cin // spec.groups, k, k)] + ([(cout,)] if with_bias else [])


CONV_KINDS = pytest.mark.parametrize("kind", ["dense", "two groups", "depthwise"])
CONV_KERNELS = pytest.mark.parametrize("k", [1, 3], ids=["k1", "k3"])
CONV_STRIDES = pytest.mark.parametrize("stride", [1, 2], ids=["s1", "s2"])


@CONV_KINDS
@CONV_KERNELS
@CONV_STRIDES
@DTYPES
@settings(max_examples=6)
@given(st.data(), st.booleans(), SEEDS)
def test_conv2d(kind, k, stride, dtype, draws, with_bias, seed):
    geometry = draws.draw(conv_geometries(kind, k, stride), label="geometry")
    spec, h, w = geometry[3:]
    rng = np.random.default_rng(seed)
    shapes = conv_shapes(geometry, k, with_bias)
    arrays = [dyadic(rng, shape, dtype) for shape in shapes]
    before = [a.copy() for a in arrays]
    x, wt, *b = leaves(*arrays)
    out = conv2d(x, wt, b[0] if b else None, spec)
    assert out.dtype == dtype and out.data.flags.c_contiguous
    np.testing.assert_array_equal(out.data,
                                  ref.conv2d(*arrays[:2], b[0].data if b else None, spec))

    backward_with(out, dyadic(rng, out.shape, dtype))
    for t in (x, wt, *b):
        assert t.grad.shape == t.shape and t.grad.dtype == dtype
    # the input gradient is laid out C-contiguous NCHW
    assert x.grad.flags.c_contiguous
    # a tap that reads only zero padding has a weight gradient of exactly +0
    for ki, kj in ref.conv2d_dead_taps(h, w, arrays[1], spec):
        tap = wt.grad[:, :, ki, kj]
        assert not tap.any() and not np.signbit(tap).any(), (ki, kj)
    for a, kept in zip(arrays, before):     # neither pass writes its inputs
        np.testing.assert_array_equal(a, kept)


@CONV_KINDS
@CONV_KERNELS
@CONV_STRIDES
@settings(max_examples=6)
@given(st.data(), st.booleans(), SEEDS)
def test_conv2d_grad_check(kind, k, stride, draws, with_bias, seed):
    geometry = draws.draw(conv_geometries(kind, k, stride), label="geometry")
    spec, shapes = geometry[3], conv_shapes(geometry, k, with_bias)
    rng = np.random.default_rng(seed)
    grad_check_weighted(lambda x, wt, *b: conv2d(x, wt, b[0] if b else None, spec),
                        [rng.standard_normal(shape) for shape in shapes], rng)


# ----------------------------------------------------------------- pooling


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@DTYPES
@settings(max_examples=6)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3), st.integers(1, 3), SEEDS)
def test_avg_pool(parity, dtype, n, c, half_h, half_w, seed):
    # odd sizes drop their last row and column
    h, w = 2 * half_h + parity, 2 * half_w + parity
    rng = np.random.default_rng(seed)
    (x,) = leaves(dyadic(rng, (n, c, h, w), dtype))
    out = avg_pool(x)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, ref.avg_pool(x.data))
    g = dyadic(rng, out.shape, dtype)
    backward_with(out, g)
    assert_grad_of(x, ref.avg_pool_adjoint(x.shape, g))
    grad_check_weighted(avg_pool, [rng.standard_normal(x.shape)], rng)


# ---------------------------------------------------------------- samplers


@st.composite
def resize_sizes(draw, direction):
    """((h, w), (ho, wo)) from 1 to 7 pixels in and 1 to 14 out per axis:
    "down" and "up" shrink or grow one axis or both (the other may keep its
    size), "mixed" shrinks one axis and grows the other, and "own size" keeps
    both; ratios integer or not, and one-pixel maps either side."""
    if direction == "mixed":
        h, w = draw(st.integers(2, 7)), draw(st.integers(1, 7))
        size = draw(st.integers(1, h - 1)), draw(st.integers(w + 1, 14))
        if draw(st.booleans()):
            (h, w), size = (w, h), size[::-1]
        return (h, w), size
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if direction == "own size":
        return (h, w), (h, w)
    size = tuple(draw(st.integers(1, n) if direction == "down" else st.integers(n, 14))
                 for n in (h, w))
    assume(size != (h, w))
    return (h, w), size


@pytest.mark.parametrize("direction", ["down", "up", "mixed", "own size"])
@DTYPES
@settings(max_examples=12)
@given(st.data(), st.integers(1, 2), st.integers(1, 2), SEEDS)
def test_resize_bilinear(direction, dtype, draws, n, c, seed):
    (h, w), (ho, wo) = draws.draw(resize_sizes(direction), label="sizes")
    rng = np.random.default_rng(seed)
    data = dyadic(rng, (n, c, h, w), dtype)
    (x,) = leaves(data.copy())
    out = resize_bilinear(x, size=(ho, wo))
    if (ho, wo) == (h, w):
        assert out is x
        return
    # The engine rounds each source point as (i + 0.5) * (h / ho) - 0.5 and
    # mixes along x, then y; the reference rounds ((i + 0.5) * h) / ho and
    # mixes four corners at once. Points below 14 round a few ulps apart, and
    # so do the weights: outputs differ by under 9 ulps of the largest |x| on
    # 1,500 random draws, and 32 leaves room.
    eps = np.finfo(out.dtype).eps
    assert_within(out.data, ref.resize_bilinear(data, (ho, wo)), 32 * eps * np.abs(data).max())
    g = dyadic(rng, out.shape, out.dtype)
    backward_with(out, g)
    assert x.grad.shape == x.shape and x.grad.dtype == dtype
    # The engine's adjoint is two matrix products with those weights and the
    # reference a scatter with its own: the same terms summed in other
    # orders, then rounded to dtype once. They differ by under 6 ulps of the
    # pixel's summed |terms| plus the largest |g| on the same draws; 16
    # leaves room.
    bound = ref.resize_bilinear_adjoint(x.shape, (ho, wo), np.abs(g)) + np.abs(g).max()
    assert_within(x.grad, ref.resize_bilinear_adjoint(x.shape, (ho, wo), g),
                  16 * np.finfo(dtype).eps * bound)
    np.testing.assert_array_equal(x.data, data)
    grad_check_weighted(lambda t: resize_bilinear(t, size=(ho, wo)),
                        [rng.standard_normal(x.shape)], rng)


def sample_points(rng, region, n, ho, wo, h, w):
    """(x, y) points in multiples of 1/8: "inside" the map's pixel centers;
    "around" it, from two pixels out on each side, where the sampler clamps;
    or "on the border", each point with at least one coordinate on a border
    pixel's center and the other anywhere "around"."""
    far = np.array([w, h]) - 1.0
    lo, hi = (0, 8 * far) if region == "inside" else (-16, 8 * (far + 2))
    xy = rng.integers(lo, hi + 1, (n, ho, wo, 2)) / 8.0
    if region == "on the border":
        axis = rng.integers(0, 2, (n, ho, wo))
        xy[axis == 0, 0] = rng.integers(0, 2, (axis == 0).sum()) * far[0]
        xy[axis == 1, 1] = rng.integers(0, 2, (axis == 1).sum()) * far[1]
    return xy


@pytest.mark.parametrize("region", ["inside", "around", "on the border"])
@DTYPES
@settings(max_examples=8)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 4), st.integers(1, 4), SEEDS)
def test_bilinear_sample(region, dtype, n, c, h, w, ho, wo, seed):
    rng = np.random.default_rng(seed)
    data, xy = dyadic(rng, (n, c, h, w), dtype), sample_points(rng, region, n, ho, wo, h, w)
    src, coords = leaves(data.copy(), xy.astype(dtype))
    out = bilinear_sample(src, coords)
    np.testing.assert_array_equal(out.data, ref.bilinear_sample(data, xy))
    g = dyadic(rng, out.shape, out.dtype)
    backward_with(out, g)
    assert_grad_of(src, ref.bilinear_sample_source_adjoint(src.shape, xy, g))
    assert coords.grad.shape == coords.shape and coords.grad.dtype == dtype
    np.testing.assert_array_equal(src.data, data)
    np.testing.assert_array_equal(coords.data, xy)

    # The source gradient equals its adjoint above; finite differences check
    # the coordinate gradient. The sample is bilinear in each coordinate
    # between pixel centers, where it has kinks, and flat once clamped:
    # points at least 0.1 from a center keep the differences in one piece.
    kink_free = (rng.integers(-2, np.array([w, h]) + 1, (n, ho, wo, 2))
                 + rng.uniform(0.1, 0.9, (n, ho, wo, 2)))
    source = Tensor(rng.standard_normal(data.shape))
    grad_check_weighted(lambda c: bilinear_sample(source, c), [kink_free], rng)


# -------------------------------------------------------------- tensor ops


@DTYPES
@settings(max_examples=20)
@given(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4).flatmap(
    lambda shape: st.tuples(st.just(shape), hnp.basic_indices(
        shape, allow_newaxis=True, allow_ellipsis=True))), SEEDS)
def test_getitem(dtype, shape_index, seed):
    shape, idx = shape_index
    rng = np.random.default_rng(seed)
    (x,) = leaves(dyadic(rng, shape, dtype))
    out = x[idx]
    np.testing.assert_array_equal(out.data, x.data[idx])
    g = dyadic(rng, out.shape, out.dtype)
    backward_with(out, g)
    assert_grad_of(x, ref.getitem_adjoint(shape, idx, g))
    grad_check_weighted(lambda t: t[idx], [rng.standard_normal(shape)], rng)


BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "matmul": lambda a, b: a @ b,
    "maximum": maximum,
    "minimum": minimum,
}


def binary_shapes(name):
    """Operand shapes that broadcast: (m, k) @ (k, n) with broadcast batch
    axes for matmul, any pair of mutually broadcastable shapes for the rest."""
    if name == "matmul":
        return hnp.mutually_broadcastable_shapes(signature="(m,k),(k,n)->(m,n)",
                                                 max_dims=2, max_side=3)
    return hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3)


@pytest.mark.parametrize("name", sorted(BINARY))
@pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)],
                         ids=["both", "a-only", "b-only"])
@pytest.mark.parametrize("dtypes", ["f32", "f64", "mixed"])
@settings(max_examples=5)
@given(st.data(), SEEDS)
def test_binary_op(name, needs, dtypes, draws, seed):
    # each op on drawn broadcast shapes, f32, f64 or mixed operands (either
    # one f32), with both operands or only one needing a gradient
    shape_a, shape_b = draws.draw(binary_shapes(name), label="shapes").input_shapes
    if dtypes == "mixed":
        dtype_a, dtype_b = draws.draw(st.permutations([np.float32, np.float64]), label="dtypes")
    else:
        dtype_a = dtype_b = np.float32 if dtypes == "f32" else np.float64
    rng = np.random.default_rng(seed)
    # multiples of 1/4 in [-2, 2] meet often, so maximum and minimum see ties;
    # divisors are powers of two, so quotients stay dyadic
    a_data = np.asarray(rng.integers(-8, 9, shape_a) / 4, dtype_a)
    b_data = np.asarray(rng.choice([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0], shape_b)
                        if name == "div" else rng.integers(-8, 9, shape_b) / 4, dtype_b)
    a, b = (Tensor(d, requires_grad=r) for d, r in zip((a_data, b_data), needs))
    out = BINARY[name](a, b)
    # numpy returns a 0-d result as a scalar, which Tensor() casts to the
    # default dtype (a known fault, see CHANGES.md); the rest keep numpy's
    # promotion of the operands' dtypes
    if out.shape != ():
        assert out.dtype == np.result_type(a_data, b_data), name
    g = dyadic(rng, out.shape, out.dtype)
    want, ga, gb = ref.binary(name, a_data, b_data, g)
    np.testing.assert_array_equal(out.data, want.astype(out.dtype), err_msg=name)
    backward_with(out, g)
    for t, want_grad, needed in ((a, ga, needs[0]), (b, gb, needs[1])):
        if needed:
            assert_grad_of(t, want_grad, name)
        else:
            assert t.grad is None, name

    normals = [rng.standard_normal(shape_a), rng.standard_normal(shape_b)]
    if name == "div":       # divisors away from zero
        normals[1] = np.sign(normals[1]) * (0.5 + np.abs(normals[1]))
    grad_check_weighted(BINARY[name], normals, rng)
