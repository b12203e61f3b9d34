"""The boolean-mask forms of the NSGA-II variation operators, kept as the
oracle for the flat-index ones in ``popformer.moea``.

``sbx_crossover`` and ``polynomial_mutation`` here select their variables
with 2-D boolean masks and broadcast the bounds to the block's shape; the
package gathers the same variables through one flat index. Both do the same
arithmetic in the same row-major order, so the tests require equal bytes.
``random_population`` draws through ``rng.uniform``, whose stream the
package's formula reproduces.
"""
import numpy as np

from popformer.core import Population
from popformer.moea import PM_ETA, SBX_ETA, SBX_PROB


def sbx_crossover(a, b, draws, lower, upper):
    d = a.shape[1]
    gate, do_var, u, swap = np.split(draws, [1, 1 + d, 1 + 2 * d], axis=1)
    cross = (gate <= SBX_PROB) & (do_var <= 0.5) & (np.abs(a - b) >= 1e-14)
    y1, y2 = np.minimum(a, b)[cross], np.maximum(a, b)[cross]
    lo, hi = np.broadcast_to(lower, a.shape)[cross], np.broadcast_to(upper, a.shape)[cross]
    span, r, eta = y2 - y1, u[cross], SBX_ETA
    alpha = 2.0 - (1.0 + 2.0 * np.stack([y1 - lo, hi - y2]) / span) ** -(eta + 1.0)
    bq = np.where(r <= 1.0 / alpha, r * alpha, 1.0 / (2.0 - r * alpha)) ** (1.0 / (eta + 1.0))
    v1 = np.clip(0.5 * ((y1 + y2) - bq[0] * span), lo, hi)
    v2 = np.clip(0.5 * ((y1 + y2) + bq[1] * span), lo, hi)
    flip = swap[cross] <= 0.5
    c1, c2 = a.copy(), b.copy()
    c1[cross] = np.where(flip, v2, v1)
    c2[cross] = np.where(flip, v1, v2)
    return c1, c2


def polynomial_mutation(x, draws, lower, upper):
    mask, u = np.split(draws, 2, axis=1)
    hit = mask <= 1.0 / x.shape[1]
    v, r = x[hit], u[hit]
    lo, hi = np.broadcast_to(lower, x.shape)[hit], np.broadcast_to(upper, x.shape)[hit]
    span = hi - lo
    eta = PM_ETA
    below = r < 0.5
    dist = np.where(below, 1.0 - (v - lo) / span, 1.0 - (hi - v) / span) ** (eta + 1.0)
    val = np.where(below, 2.0 * r + (1.0 - 2.0 * r) * dist,
                   2.0 * (1.0 - r) + 2.0 * (r - 0.5) * dist) ** (1.0 / (eta + 1.0))
    out = x.copy()
    out[hit] = np.clip(v + np.where(below, val - 1.0, 1.0 - val) * span, lo, hi)
    return out


def random_population(problem, n, rng, generation_index=0):
    spec = problem.spec
    return Population(rng.uniform(spec.lower, spec.upper, size=(n, spec.d)),
                      generation_index=generation_index)


BOUND_KINDS = ("unit", "zdt4", "lsmop")


def bounds(kind, d):
    """Lower and upper bounds of ``d`` variables: the unit box, ZDT4's (x0 in
    [0, 1], the rest in [-5, 5]) or LSMOP's at m=3 (x0 and x1 in [0, 1], the
    rest in [0, 10])."""
    lower, upper = np.zeros(d), np.ones(d)
    if kind == "zdt4":
        lower[1:], upper[1:] = -5.0, 5.0
    elif kind == "lsmop":
        upper[2:] = 10.0
    return lower, upper
