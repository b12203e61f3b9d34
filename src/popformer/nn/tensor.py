"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Primitives record onto the innermost active :class:`Tape`; the record order is
the execution order, which is already topological, so one reverse walk
completes every consumer's gradient before the producer runs its backward
rule. Without an active tape, primitives are plain numpy math.
"""
from __future__ import annotations

import warnings

import numpy as np

from ..errors import ShapeError, TapeError

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

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def const(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Execution-ordered record of primitives; supports exactly one backward pass."""

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
        for out, backward in reversed(self._nodes):
            if out.grad is not None:
                backward(out.grad)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._record(out, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _emit(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, -_unbroadcast(g, b.shape))

    return _emit(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _emit(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        _accum(a, g * c)

    return _emit(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-d or batched 3-d matrix product (equal batch extents)."""
    if a.ndim not in (2, 3) or b.ndim not in (2, 3) or a.ndim != b.ndim:
        raise ShapeError(f"matmul supports 2d or equally batched 3d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        # the transpose of the last two axes, for 2-d and batched operands
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _emit(out, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * (a.data > 0.0))

    return _emit(out, (a,), backward)


def logistic(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        _accum(a, g * out * (1.0 - out))

    return _emit(out, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _emit(out, (a,), backward)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inverse))

    return _emit(a.data.transpose(axes), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _emit(np.asarray(a.data.sum()), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row softmax over the last axis, numerically stabilized.

    ``mask`` is a boolean array broadcastable to ``a`` with True = keep;
    masked entries get probability 0. Fully masked rows come back as all
    zeros with a warning, since no distribution exists there.
    """
    z = a.data
    if mask is not None:
        keep = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
        z = np.where(keep, z, -np.inf)
    zmax = z.max(axis=-1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.exp(z - zmax)
    denom = e.sum(axis=-1, keepdims=True)
    degenerate = denom == 0.0
    if degenerate.any():
        warnings.warn("softmax: fully masked row(s) mapped to all-zero output",
                      RuntimeWarning, stacklevel=2)
    out = e / np.where(degenerate, 1.0, denom)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(a, out * (g - dot))

    return _emit(out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        _accum(bias, g.sum(axis=lead))
        _accum(gain, (g * xhat).sum(axis=lead))
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * term)

    return _emit(out, (x, gain, bias), backward)
