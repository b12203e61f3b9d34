"""Tape rules that training never records, kept as the oracle for the fused ones.

``popformer.nn`` holds only the rules a teacher-forced pass records: ``add``,
``sub`` and ``mul`` of one shape, ``matmul`` as an unbiased ``linear``, and
the fused ``linear`` and ``attention``. The rules here (an ``add`` that
broadcasts, a ``matmul`` over stacked operands, ``reshape``, ``swapaxes`` and
``mean_all``) rebuild ``linear`` and ``attention`` from smaller steps, so the
tests can hold the fused rules against the composites.
"""
import math

import numpy as np

from popformer.errors import ShapeError
from popformer.nn import scale, softmax, sum_all
from popformer.nn.tensor import _accum, _emit, _values, _wrap


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand shape."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=keep, keepdims=True) if keep else g


def add(a, b):
    """``a + b`` with numpy broadcasting, such as rows plus a bias."""
    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _emit(a.data + b.data, (a, b), backward)


def matmul(a, b):
    """Product over the last two axes of a Tensor ``a`` and a Tensor or
    plain ``b``; leading axes broadcast."""
    b = _wrap(b)
    try:
        out = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape), fresh=True)

    return _emit(out, (a, b), backward)


def reshape(a, shape):
    def backward(g):
        _accum(a, g.reshape(a.shape))

    return _emit(_values(a).reshape(shape), (a,), backward)


def swapaxes(a, axis1, axis2):
    def backward(g):
        _accum(a, g.swapaxes(axis1, axis2))

    return _emit(_values(a).swapaxes(axis1, axis2), (a,), backward)


def mean_all(a):
    return scale(sum_all(a), 1.0 / a.data.size)


def split_heads(t, heads):
    """(..., s, D) rows to (..., heads, s, D/heads) per-head slices, on the tape."""
    return swapaxes(reshape(t, t.shape[:-1] + (heads, t.shape[-1] // heads)), -3, -2)


def merge_heads(t):
    """Inverse of :func:`split_heads`: (..., heads, s, dk) to (..., s, heads * dk)."""
    *outer, heads, s, dk = t.shape
    return reshape(swapaxes(t, -3, -2), (*outer, s, heads * dk))


def composite_linear(x, p):
    """``linear`` composed from matmul and add; a plain array stays off the tape."""
    if isinstance(x, np.ndarray):
        return x @ p.w.data + p.b.data
    return add(matmul(x, p.w), p.b)


def composite_attention(q, k, v, p, heads, mask=None):
    """The attention block composed from unfused primitives: projections,
    split_heads, the per-head scores, their softmax scaled by 1/sqrt(dk)
    under the mask, the mix of the values, merge_heads and the out
    projection, twenty nodes. The oracle for the fused rule."""
    qh, kh, vh = (split_heads(composite_linear(x, lin), heads)
                  for x, lin in ((q, p.q), (k, p.k), (v, p.v)))
    probs = softmax(matmul(qh, swapaxes(kh, -1, -2)), mask=mask,
                    factor=1.0 / math.sqrt(qh.shape[-1]))
    return composite_linear(merge_heads(matmul(probs, vh)), p.out)
