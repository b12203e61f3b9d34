"""Functional transformer blocks over autodiff tensors, or off the tape over plain arrays."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, attention, relu
from .tensor import layer_norm as _layer_norm
from .tensor import linear as _linear


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class AttentionParams:
    q: LinearParams
    k: LinearParams
    v: LinearParams
    out: LinearParams


@dataclass
class MlpParams:
    inner: LinearParams
    outer: LinearParams


def uniform_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> LinearParams:
    # weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero
    limit = 1.0 / math.sqrt(fan_in)
    return LinearParams(
        w=Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True),
        b=Tensor(np.zeros(fan_out), requires_grad=True),
    )


def norm_params(width: int) -> NormParams:
    return NormParams(
        gain=Tensor(np.ones(width), requires_grad=True),
        bias=Tensor(np.zeros(width), requires_grad=True),
    )


def attention_params(rng: np.random.Generator, width: int) -> AttentionParams:
    return AttentionParams(
        q=uniform_linear(rng, width, width),
        k=uniform_linear(rng, width, width),
        v=uniform_linear(rng, width, width),
        out=uniform_linear(rng, width, width),
    )


def mlp_params(rng: np.random.Generator, width: int, hidden: int) -> MlpParams:
    return MlpParams(
        inner=uniform_linear(rng, width, hidden),
        outer=uniform_linear(rng, hidden, width),
    )


def linear(x: Tensor, p: LinearParams) -> Tensor:
    return _linear(x, p.w, p.b)


def layer_norm(x: Tensor, p: NormParams) -> Tensor:
    return _layer_norm(x, p.gain, p.bias)


def mlp_block(x: Tensor, p: MlpParams) -> Tensor:
    return linear(relu(linear(x, p.inner)), p.outer)


def causal_mask(n: int) -> np.ndarray:
    """Boolean (n, n) mask where position i may attend to positions <= i."""
    return np.tril(np.ones((n, n), dtype=bool))


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, p: AttentionParams,
                         heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with per-head projections, one tape node.

    q is (..., sq, D); k and v are (..., sk, D) with the same leading axes,
    so a stack of sequences attends each within itself. Queries, keys and
    values are projected and split into D/heads-wide heads, mixed by a
    softmax over the scores scaled by 1/sqrt(D/heads), merged and projected
    out; mask (broadcastable to (sq, sk), True = attend) hides positions
    before normalization. See :func:`popformer.nn.tensor.attention`.
    """
    return attention(q, k, v, [(lin.w, lin.b) for lin in (p.q, p.k, p.v, p.out)], heads, mask)
