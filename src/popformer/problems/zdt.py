"""ZDT bi-objective benchmark family (variants 1, 2, 3, 4 and 6).

Variant 5 is binary-coded and therefore not part of this real-valued suite.
"""
from __future__ import annotations

import numpy as np

from ..core import Problem, ProblemSpec, require_count
from ..errors import ConfigError

# f1 intervals of the disconnected ZDT3 front (standard published constants;
# verified against a numeric record-region oracle in the test suite).
ZDT3_FRONT_INTERVALS = (
    (0.0, 0.0830015349),
    (0.1822287280, 0.2577623634),
    (0.4093136748, 0.4538821041),
    (0.6183967944, 0.6525117038),
    (0.8233317983, 0.8518328654),
)

# Minimum attainable f1 for ZDT6: 1 - max_x exp(-4x) sin^6(6 pi x) on [0, 1].
ZDT6_F1_MIN = 0.2807753191919937


def _spread_over_intervals(intervals, n: int) -> np.ndarray:
    """Place n points over a union of intervals, proportionally to length.

    Each interval boundary resumes the envelope at exactly the level where the
    previous interval left off, so the published left endpoints would tie with
    the preceding right endpoints; intervals after the first are entered a
    hair inside to keep the sampled set strictly mutually non-dominated.
    """
    if n == 1:
        return np.array([intervals[0][0]])
    intervals = [
        (a if i == 0 else a + 1e-6 * (b - a), b) for i, (a, b) in enumerate(intervals)
    ]
    lengths = np.array([b - a for a, b in intervals])
    counts = np.maximum(1, np.round(lengths / lengths.sum() * n).astype(int))
    while counts.sum() > n:
        counts[np.argmax(counts)] -= 1
    while counts.sum() < n:
        counts[np.argmin(counts / lengths)] += 1
    pieces = []
    for (a, b), k in zip(intervals, counts):
        if k == 0:
            continue
        pieces.append(np.linspace(a, b, k) if k > 1 else np.array([a]))
    return np.concatenate(pieces)


class ZdtProblem(Problem):
    """Classic two-objective suite with a tunable distance function g(x)."""

    VARIANTS = (1, 2, 3, 4, 6)

    def __init__(self, variant: int, d: int = 30):
        if variant not in self.VARIANTS:
            raise ConfigError(f"unknown ZDT variant {variant} (supported: {self.VARIANTS})")
        require_count(d, f"zdt{variant} d", minimum=2)
        self.variant = variant
        lower = np.zeros(d)
        upper = np.ones(d)
        if variant == 4:
            lower[1:] = -5.0
            upper[1:] = 5.0
        self.spec = ProblemSpec(name=f"zdt{variant}", d=d, m=2, lower=lower, upper=upper)

    def objectives(self, x: np.ndarray) -> np.ndarray:
        d = self.spec.d
        x0, tail = x[..., 0], x[..., 1:]
        if self.variant in (1, 2, 3):
            g = 1.0 + 9.0 * tail.sum(axis=-1) / (d - 1)
        elif self.variant == 4:
            g = 1.0 + 10.0 * (d - 1) + (tail * tail - 10.0 * np.cos(4.0 * np.pi * tail)).sum(-1)
        else:  # variant 6
            g = 1.0 + 9.0 * (tail.sum(axis=-1) / (d - 1)) ** 0.25

        if self.variant == 6:
            f1 = 1.0 - np.exp(-4.0 * x0) * np.sin(6.0 * np.pi * x0) ** 6
        else:
            f1 = x0

        ratio = f1 / g
        if self.variant in (1, 4):
            f2 = g * (1.0 - np.sqrt(ratio))
        elif self.variant in (2, 6):
            f2 = g * (1.0 - ratio ** 2)
        else:  # variant 3
            f2 = g * (1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * f1))
        return np.stack([f1, f2], axis=-1)

    def reference_front(self, n: int) -> np.ndarray:
        n = require_count(n, "reference front size")
        if self.variant in (1, 4):
            # parameterize as (t^2, 1 - t) so points spread evenly along the curve
            t = np.linspace(0.0, 1.0, n)
            return np.column_stack([t * t, 1.0 - t])
        if self.variant == 2:
            f1 = np.linspace(0.0, 1.0, n)
            return np.column_stack([f1, 1.0 - f1 * f1])
        if self.variant == 6:
            f1 = np.linspace(ZDT6_F1_MIN, 1.0, n) if n > 1 else np.array([ZDT6_F1_MIN])
            return np.column_stack([f1, 1.0 - f1 * f1])
        f1 = _spread_over_intervals(ZDT3_FRONT_INTERVALS, n)
        f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        return np.column_stack([f1, f2])
