"""Minimal reverse-mode autodiff engine used by the whole package."""

from .tensor import (
    Tensor,
    as_tensor,
    concat,
    default_dtype,
    grad_enabled,
    maximum,
    minimum,
    no_grad,
    set_default_dtype,
    stack,
    unary_op,
    using_dtype,
)
from .functional import (
    ConvSpec,
    avg_pool,
    batch_norm,
    bilinear_sample,
    conv2d,
    elu,
    gelu,
    layer_norm,
    resize_bilinear,
    same_padding,
    sigmoid,
    softmax,
)
from .gradcheck import grad_check

__all__ = [
    "ConvSpec", "Tensor", "as_tensor", "avg_pool", "batch_norm",
    "bilinear_sample", "concat", "conv2d", "default_dtype", "elu", "gelu",
    "grad_check", "grad_enabled", "layer_norm", "maximum", "minimum",
    "no_grad", "resize_bilinear", "same_padding",
    "set_default_dtype", "sigmoid", "softmax", "stack", "unary_op",
    "using_dtype",
]
