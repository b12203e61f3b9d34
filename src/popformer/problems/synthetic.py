"""Synthetic shift family: the ideal next population is the current one plus a
fixed step, clamped to the unit box.

Populations are tight clusters around a random base point, so the optimal
successor of every member is its own position plus the step, and the optimal
generation strategy is "locate the cluster, move it by the step" - a target
the sequence model can read off the encoded parents. The mapping is exact and
analytically known, which makes the family a learnability oracle for the
training loop."""
from __future__ import annotations

import numpy as np

from ..core import EvaluationBudget, Population, Problem, ProblemSpec, evaluate, require_count
from ..errors import ConfigError


class ShiftClusterProblem(Problem):
    """Unit-box problem whose optimal population update is a constant translation."""

    SPREAD = 0.01  # half-width of a cluster population around its base point

    def __init__(self, d: int, m: int = 2, shift: float | np.ndarray = 0.1):
        require_count(d, "shift d")
        shift_vec = np.asarray(shift, dtype=float)
        if shift_vec.ndim == 0:
            shift_vec = np.full(d, float(shift_vec))
        if shift_vec.shape != (d,):
            raise ConfigError(f"shift must be a scalar or of length {d}, got shape "
                              f"{shift_vec.shape}")
        self.shift = shift_vec
        self.spec = ProblemSpec.unit_box(name="shift", d=d, m=m)
        # smooth anchor-distance objectives so embeddings carry usable signal
        self._anchors = np.linspace(0.0, 1.0, m)[:, None] * np.ones(d)

    def objectives(self, x: np.ndarray) -> np.ndarray:
        diff = x[..., None, :] - self._anchors
        return np.mean(diff * diff, axis=-1)

    def random_base(self, rng: np.random.Generator) -> np.ndarray:
        """A base point that keeps the whole cluster and its target in the box."""
        margin = self.SPREAD + np.abs(self.shift)
        low = np.full(self.spec.d, self.SPREAD)
        high = np.maximum(1.0 - margin, low + 1e-6)
        return rng.uniform(low, high)

    def cluster_population(self, n: int, rng: np.random.Generator,
                           base: np.ndarray | None = None) -> Population:
        """Unevaluated population of n members scattered ``SPREAD`` around a base."""
        if base is None:
            base = self.random_base(rng)
        noise = rng.uniform(-self.SPREAD, self.SPREAD, size=(n, self.spec.d))
        xs = np.clip(base[None, :] + noise, 0.0, 1.0)
        return Population(xs)

    def target_population(self, pop: Population) -> Population:
        """The analytically optimal successor: every member shifted one step."""
        xs = np.clip(pop.x + self.shift[None, :], 0.0, 1.0)
        return Population(xs, generation_index=pop.generation_index + 1)

    def evaluate_free(self, pop: Population) -> Population:
        """Evaluate without budget accounting (dataset construction only)."""
        return evaluate(pop, self, EvaluationBudget(max(len(pop), 1)))
