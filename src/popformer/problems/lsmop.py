"""Large-scale multi/many-objective benchmark family (variants 1..9).

Construction follows the suite's published definition: the first m-1
variables shape the front, the rest are split into m chaos-sized groups of
n_k subcomponents each, passed through a variable linkage and scored by a
per-group landscape function. Variants differ in linkage (linear vs
nonlinear), landscape pair, objective correlation and front shape.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from ..core import Problem, ProblemSpec, require_count
from ..errors import ConfigError
from .zdt import _spread_over_intervals

N_SUBCOMPONENTS = 5
CHAOS_COEFF = 3.8
CHAOS_SEED = 0.1

# x intervals whose points t maximize t*(1+sin(3 pi t)) over [0, t]; the
# disconnected variant-9 front lives on them (verified numerically in tests).
LSMOP9_FRONT_INTERVALS = ((0.0, 0.251412), (0.631627, 0.859401))


# Landscape functions score each row of (..., n) variables along the last axis.
def _sphere(v: np.ndarray) -> np.ndarray:
    return np.sum(v * v, axis=-1)


def _schwefel(v: np.ndarray) -> np.ndarray:
    return np.max(np.abs(v), axis=-1)


def _rosenbrock(v: np.ndarray) -> np.ndarray:
    a, b = v[..., :-1], v[..., 1:]
    return np.sum(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2, axis=-1)


def _rastrigin(v: np.ndarray) -> np.ndarray:
    return np.sum(v * v - 10.0 * np.cos(2.0 * np.pi * v) + 10.0, axis=-1)


def _griewank(v: np.ndarray) -> np.ndarray:
    idx = np.sqrt(np.arange(1, v.shape[-1] + 1, dtype=float))
    return _sphere(v) / 4000.0 - np.prod(np.cos(v / idx), axis=-1) + 1.0


def _ackley(v: np.ndarray) -> np.ndarray:
    k = v.shape[-1]
    return (
        20.0
        - 20.0 * np.exp(-0.2 * np.sqrt(_sphere(v) / k))
        - np.exp(np.sum(np.cos(2.0 * np.pi * v), axis=-1) / k)
        + np.e
    )


# variant -> (odd-group landscape, even-group landscape, nonlinear linkage, shape)
_VARIANTS = {
    1: (_sphere, _sphere, False, "linear"),
    2: (_griewank, _schwefel, False, "linear"),
    3: (_rastrigin, _rosenbrock, False, "linear"),
    4: (_ackley, _griewank, False, "linear"),
    5: (_sphere, _sphere, True, "concave"),
    6: (_rosenbrock, _schwefel, True, "concave"),
    7: (_ackley, _rosenbrock, True, "concave"),
    8: (_griewank, _sphere, True, "concave"),
    9: (_sphere, _ackley, True, "disconnected"),
}


def chaos_fractions(m: int) -> np.ndarray:
    """Logistic-map sequence that fixes the relative size of the m variable groups."""
    c = [CHAOS_COEFF * CHAOS_SEED * (1.0 - CHAOS_SEED)]
    for _ in range(m - 1):
        c.append(CHAOS_COEFF * c[-1] * (1.0 - c[-1]))
    c = np.array(c)
    return c / c.sum()


def simplex_lattice(n: int, m: int) -> np.ndarray:
    """n points on the unit simplex in R^m, from the smallest lattice that fits."""
    if m == 2:
        w = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.5])
        return np.column_stack([w, 1.0 - w])
    h = 1
    while math.comb(h + m - 1, m - 1) < n:
        h += 1
    # stars and bars: m - 1 bars among h + m - 1 slots, in lexicographic order
    bars = np.array(list(itertools.combinations(range(h + m - 1), m - 1)))
    edges = np.column_stack([np.full(len(bars), -1), bars, np.full(len(bars), h + m - 1)])
    lattice = (np.diff(edges, axis=1) - 1) / h
    take = np.linspace(0, len(lattice) - 1, n).round().astype(int)
    return lattice[take]


class LsmopProblem(Problem):
    """Scalable suite: d decision variables, m objectives, deterministic evaluation."""

    VARIANTS = tuple(_VARIANTS)

    def __init__(self, variant: int, d: int, m: int = 3):
        if variant not in _VARIANTS:
            raise ConfigError(f"unknown LSMOP variant {variant} (supported: 1..9)")
        require_count(d, f"lsmop{variant} d")
        if not 2 <= require_count(m, f"lsmop{variant} m", minimum=None) <= 10:
            raise ConfigError(f"LSMOP objective count must be in [2, 10], got {m}")
        if d <= m:
            raise ConfigError(f"LSMOP needs d > m, got d={d}, m={m}")
        self.variant = variant
        self.eta_odd, self.eta_even, self.nonlinear, self.shape = _VARIANTS[variant]
        fractions = chaos_fractions(m)
        self.sublen = np.floor(fractions * (d - m + 1) / N_SUBCOMPONENTS).astype(int)
        if np.any(self.sublen < 1):
            raise ConfigError(
                f"d={d} too small for m={m}: a variable group would be empty "
                f"(smallest viable d is about {int(np.ceil(N_SUBCOMPONENTS / fractions.min())) + m})"
            )
        self.group_start = np.concatenate([[0], np.cumsum(self.sublen * N_SUBCOMPONENTS)])
        lower = np.zeros(d)
        upper = np.ones(d)
        upper[m - 1:] = 10.0
        self.spec = ProblemSpec(name=f"lsmop{variant}", d=d, m=m, lower=lower, upper=upper)
        # linkage factors for the distance block, variable indices m..d (1-based)
        idx = np.arange(m, d + 1, dtype=float) / d
        self._link = 1.0 + (np.cos(0.5 * np.pi * idx) if self.nonlinear else idx)

    def _group_values(self, x: np.ndarray) -> np.ndarray:
        m = self.spec.m
        xs = self._link * x[..., m - 1:] - 10.0 * x[..., :1]
        g = []
        for i in range(m):
            eta = self.eta_odd if i % 2 == 0 else self.eta_even
            width = self.sublen[i]
            base = self.group_start[i]
            chunks = xs[..., base:base + N_SUBCOMPONENTS * width]
            chunks = chunks.reshape(xs.shape[:-1] + (N_SUBCOMPONENTS, width))
            g.append(eta(chunks).sum(axis=-1) / (width * N_SUBCOMPONENTS))
        return np.stack(g, axis=-1)

    def objectives(self, x: np.ndarray) -> np.ndarray:
        m = self.spec.m
        xf = x[..., :m - 1]
        g = self._group_values(x)
        ones = np.ones(x.shape[:-1] + (1,))
        if self.shape == "linear":
            prods = np.cumprod(np.concatenate([ones, xf], axis=-1), axis=-1)[..., ::-1]
            last = np.concatenate([ones, 1.0 - xf[..., ::-1]], axis=-1)
            return (1.0 + g) * prods * last
        if self.shape == "concave":
            g_next = np.concatenate([g[..., 1:], np.zeros_like(ones)], axis=-1)
            prods = np.cumprod(np.concatenate([ones, np.cos(0.5 * np.pi * xf)], axis=-1),
                               axis=-1)[..., ::-1]
            last = np.concatenate([ones, np.sin(0.5 * np.pi * xf[..., ::-1])], axis=-1)
            return (1.0 + g + g_next) * prods * last
        # disconnected: first m-1 objectives are the position variables themselves
        g_total = 1.0 + g.sum(axis=-1, keepdims=True)
        last = (1.0 + g_total) * (
            m - np.sum(xf / (1.0 + g_total) * (1.0 + np.sin(3.0 * np.pi * xf)),
                       axis=-1, keepdims=True)
        )
        return np.concatenate([xf, last], axis=-1)

    def reference_front(self, n: int) -> np.ndarray:
        n = require_count(n, "reference front size")
        m = self.spec.m
        if self.shape == "linear":
            return simplex_lattice(n, m)
        if self.shape == "concave":
            pts = simplex_lattice(n, m)
            return pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return self._disconnected_front(n)

    def _disconnected_front(self, n: int) -> np.ndarray:
        m = self.spec.m
        intervals = LSMOP9_FRONT_INTERVALS
        if m == 2:
            xs = _spread_over_intervals(intervals, n)[:, None]
        else:
            per_axis = max(2, math.ceil(n ** (1.0 / (m - 1))))
            axis = _spread_over_intervals(intervals, per_axis)
            grids = np.meshgrid(*([axis] * (m - 1)), indexing="ij")
            xs = np.column_stack([gg.ravel() for gg in grids])
            take = np.linspace(0, len(xs) - 1, n).round().astype(int)
            xs = xs[take]
        last = 2.0 * (m - np.sum(xs / 2.0 * (1.0 + np.sin(3.0 * np.pi * xs)), axis=1))
        return np.column_stack([xs, last])

