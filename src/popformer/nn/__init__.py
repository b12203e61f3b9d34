"""Minimal tensor/autodiff engine and transformer building blocks."""
from .gradcheck import gradient_check
from .layers import (
    AttentionParams,
    LinearParams,
    MlpParams,
    NormParams,
    attention_params,
    causal_mask,
    layer_norm,
    linear,
    mlp_block,
    mlp_params,
    multi_head_attention,
    norm_params,
    uniform_linear,
)
from .optim import Adam
from .tensor import (
    Tape,
    Tensor,
    add,
    const,
    logistic,
    matmul,
    merge_heads,
    mul,
    relu,
    scale,
    softmax,
    split_heads,
    sub,
    sum_all,
)

__all__ = [
    "Adam", "AttentionParams", "LinearParams", "MlpParams", "NormParams", "Tape", "Tensor",
    "add", "attention_params", "causal_mask", "const", "gradient_check",
    "layer_norm", "linear", "logistic", "matmul", "merge_heads", "mlp_block",
    "mlp_params", "mul", "multi_head_attention", "norm_params", "relu",
    "scale", "softmax", "split_heads", "sub", "sum_all", "uniform_linear",
]
