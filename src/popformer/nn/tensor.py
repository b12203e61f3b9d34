"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Primitives record onto the innermost active :class:`Tape`; the record order is
the execution order, which is already topological, so one reverse walk
completes every consumer's gradient before the producer runs its backward
rule. The walk pops each node as it runs that rule, so an intermediate the
caller does not hold is freed, with its data, gradient and the arrays its
rule captured, as soon as no later rule can need it. Without an active tape,
primitives are plain numpy math. relu, logistic, softmax, layer_norm, linear,
attention and scale also take their activation as a plain ndarray, a
constant, and return the plain array their Tensor form computes: inference
builds no Tensor at all.

The tape holds only the rules training records. ``add``, ``sub`` and ``mul``
take operands of one shape and do not broadcast; ``matmul`` is ``linear``
without a bias. ``linear`` and ``attention`` are fused: each records one node
whose backward rule is derived by hand, where the same math composed from
smaller primitives would record several (those primitives and the composites
stay in the tests as the oracle).
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from ..errors import ConfigError, ShapeError, TapeError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def const(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Execution-ordered record of primitives; supports exactly one backward pass,
    which empties it."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, object]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, out: Tensor, backward) -> None:
        if self._consumed:
            raise TapeError("cannot record onto a tape that already ran backward")
        self._nodes.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and accumulate gradients onto inputs."""
        if self._consumed:
            raise TapeError("tape already consumed by a backward pass")
        self._consumed = True
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:
            out, backward = nodes.pop()
            if out.grad is not None:
                backward(out.grad)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` to ``t``'s gradient. A first gradient is copied, since ``g``
    may be a view and later gradients add in place, unless ``fresh`` says
    the caller just computed ``g`` and holds it nowhere else: then the
    gradient takes the array over."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if fresh else g.copy()
    else:
        t.grad += g


def _values(a: Tensor | np.ndarray) -> np.ndarray:
    return a if isinstance(a, np.ndarray) else a.data


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    if isinstance(inputs[0], np.ndarray):  # a constant operand: a constant result
        return out_data
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._record(out, backward)
    return out


def _same_shape(name: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name} needs operands of one shape, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _emit(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)

    def backward(g):
        _accum(a, g)
        if b.requires_grad:
            _accum(b, -g, fresh=True)

    return _emit(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data, fresh=True)
        if b.requires_grad:
            _accum(b, g * a.data, fresh=True)

    return _emit(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        _accum(a, g * c, fresh=True)

    return _emit(_values(a) * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a (..., K) activation ``a`` of rank >= 2 and a (K, M)
    weight ``b``: :func:`linear` without a bias."""
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return linear(a, b)


def _linear_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor | None,
                     want_x: bool) -> np.ndarray | None:
    """Accumulate the gradients of ``w`` and any ``b`` in ``x @ w + b`` from
    the output gradient ``g``, and return x's gradient if ``want_x``."""
    k, m = w.shape
    g_rows = g.reshape(-1, m)
    if w.requires_grad:
        _accum(w, x.reshape(-1, k).T @ g_rows, fresh=True)
    if b is not None and b.requires_grad:
        _accum(b, g.sum(axis=tuple(range(g.ndim - 1))), fresh=True)
    return (g_rows @ w.data.T).reshape(x.shape) if want_x else None


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """``x @ w + b``, or ``x @ w`` without ``b``, with every leading row of
    ``x`` in one 2-d product."""
    k, m = w.shape
    out = (x.reshape(-1, k) @ w).reshape(x.shape[:-1] + (m,))
    return out if b is None else out + b


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` as one node, every leading
    row in one 2-d product; without ``b``, ``x @ w``.

    A plain-array ``x`` returns ``x @ w + b`` (or ``x @ w``) at once, without
    the node's set-up: inference makes about 17 one-row calls per decoded
    row, each with a bias.
    """
    if isinstance(x, np.ndarray):
        return x @ w.data if b is None else x @ w.data + b.data
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    out = _affine(x.data, w.data, None if b is None else b.data)

    def backward(g):
        dx = _linear_backward(g, x.data, w, b, x.requires_grad)
        if dx is not None:
            _accum(x, dx, fresh=True)

    return _emit(out, (x, w) if b is None else (x, w, b), backward)


def split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """(..., s, D) array rows to a (..., heads, s, D/heads) view of per-head slices."""
    return t.reshape(t.shape[:-1] + (heads, t.shape[-1] // heads)).swapaxes(-3, -2)


def merge_heads(t: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: a (..., heads, s, dk) array to (..., s, heads * dk)."""
    *outer, heads, s, dk = t.shape
    return t.swapaxes(-3, -2).reshape((*outer, s, heads * dk))


def attention(q: Tensor, k: Tensor | np.ndarray, v: Tensor | np.ndarray,
              projections: list[tuple[Tensor, Tensor]], heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``projections`` holds the (w, b) pairs of the query, key, value and out
    projections. q is (..., sq, D); k and v are (..., sk, D) with the same
    leading axes. Each is projected and split into D/heads-wide heads, the
    scores are scaled by 1/sqrt(D/heads) inside the softmax, where mask
    (broadcastable to (..., heads, sq, sk), True = attend) hides positions,
    and the mixed heads are merged and projected out. A plain-array k or v
    is a constant, and so is its projection, as a plain operand of
    :func:`linear` would be.

    The backward rule keeps the inputs, the per-head queries, keys and
    values, the probabilities and the merged heads. Inputs that are one
    Tensor, as in self-attention, have their gradients summed before a
    single accumulation.
    """
    width = q.shape[-1]
    if width % heads != 0:
        raise ConfigError(f"width {width} not divisible by {heads} heads")
    if k.shape != v.shape or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != width:
        raise ShapeError(f"attention inputs disagree: q{q.shape} k{k.shape} v{v.shape}")
    factor = 1.0 / math.sqrt(width // heads)
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = projections
    qh, kh, vh = (split_heads(_affine(_values(x), w.data, b.data), heads)
                  for x, w, b in ((q, wq, bq), (k, wk, bk), (v, wv, bv)))
    probs = _softmax_rows(qh @ kh.swapaxes(-1, -2), mask, factor)
    merged = merge_heads(probs @ vh)
    out = _affine(merged, wo.data, bo.data)
    # the value projection first, in the order the composite's reverse walk
    # reaches them, so self-attention sums its input gradients as it does
    inputs = ((v, wv, bv), (k, wk, bk), (q, wq, bq))

    def backward(g):
        d_mixed = split_heads(_linear_backward(g, merged, wo, bo, True), heads)
        d_scores = _softmax_backward(d_mixed @ vh.swapaxes(-1, -2), probs, factor)
        d_heads = (probs.swapaxes(-1, -2) @ d_mixed,
                   (qh.swapaxes(-1, -2) @ d_scores).swapaxes(-1, -2),
                   d_scores @ kh)
        summed: dict[int, list] = {}
        for (x, w, b), dh in zip(inputs, d_heads):
            if not isinstance(x, Tensor):
                continue
            # merging the keys' doubly swapped heads can give a strided
            # view; a contiguous copy sums the bias gradient in row order
            dx = _linear_backward(np.ascontiguousarray(merge_heads(dh)), x.data, w, b,
                                  x.requires_grad)
            if dx is None:
                continue
            if id(x) in summed:
                summed[id(x)][1] += dx
            else:
                summed[id(x)] = [x, dx]
        for x, dx in summed.values():
            _accum(x, dx, fresh=True)

    tracked = [t for x, w, b in inputs if isinstance(x, Tensor) for t in (x, w, b)]
    return _emit(out, (q, wo, bo, *tracked), backward)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(_values(a), 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0.0), fresh=True)

    return _emit(out, (a,), backward)


def logistic(a: Tensor) -> Tensor:
    x = _values(a)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accum(a, g * out * (1.0 - out), fresh=True)

    return _emit(out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, np.broadcast_to(g, a.shape).copy(), fresh=True)

    return _emit(np.asarray(a.data.sum()), (a,), backward)


def _softmax_rows(z: np.ndarray, mask: np.ndarray | None, factor: float) -> np.ndarray:
    """Row softmax of ``factor * z`` over the last axis, numerically
    stabilized; entries where the broadcast boolean ``mask`` is False get
    probability 0, and a fully masked row is all zeros, with a warning.

    Only a mask can make a row fully masked, so the guards for one run only
    with a mask. Without one, a row holding +inf or only -inf comes out NaN,
    for the caller's non-finite checks to catch.
    """
    z = z * factor
    if mask is None:
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    keep = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
    z = np.where(keep, z, -np.inf)
    zmax = z.max(axis=-1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.exp(z - zmax)
    denom = e.sum(axis=-1, keepdims=True)
    degenerate = denom == 0.0
    if degenerate.any():
        warnings.warn("softmax: fully masked row(s) mapped to all-zero output",
                      RuntimeWarning, stacklevel=3)
    return e / np.where(degenerate, 1.0, denom)


def _softmax_backward(g: np.ndarray, out: np.ndarray, factor: float) -> np.ndarray:
    """Gradient of the scaled logits given the gradient ``g`` of the probabilities ``out``."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot) * factor


def softmax(a: Tensor, mask: np.ndarray | None = None, factor: float = 1.0) -> Tensor:
    """Row softmax of ``factor * a`` over the last axis, numerically stabilized.

    ``mask`` is a boolean array broadcastable to ``a`` with True = keep;
    masked entries get probability 0. Fully masked rows come back as all
    zeros with a warning, since no distribution exists there. The scaled
    logits are a temporary, not a recorded activation, and both value and
    gradient equal ``softmax(scale(a, factor))`` bitwise.
    """
    factor = float(factor)
    out = _softmax_rows(_values(a), mask, factor)

    def backward(g):
        _accum(a, _softmax_backward(g, out, factor), fresh=True)

    return _emit(out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    # sum / d is mean's own arithmetic, without its Python-level wrapper
    mu = _values(x).sum(axis=-1, keepdims=True) / d
    centered = _values(x) - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        _accum(bias, g.sum(axis=lead), fresh=True)
        _accum(gain, (g * xhat).sum(axis=lead), fresh=True)
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * term, fresh=True)

    return _emit(out, (x, gain, bias), backward)
