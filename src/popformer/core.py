"""Core data model: populations, problems, dominance and evaluation budgets.

All objectives follow the minimization convention. A population is a set of
read-only arrays, one row per member; operations return new populations.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, ContractViolation, EvaluationError, UnsupportedFront


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProblemSpec:
    """Static description of a problem: dimensions, bounds and constraint count."""

    name: str
    d: int
    m: int
    lower: np.ndarray
    upper: np.ndarray
    n_constraints: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ContractViolation(f"decision dimension must be positive, got {self.d}")
        if self.m < 2:
            raise ContractViolation(f"objective count must be at least 2, got {self.m}")
        if self.n_constraints < 0:
            raise ContractViolation("constraint count must be non-negative")
        lower = _frozen_array(self.lower)
        upper = _frozen_array(self.upper)
        if lower.shape != (self.d,) or upper.shape != (self.d,):
            raise ContractViolation(
                f"bounds must have length d={self.d}, got {lower.shape} and {upper.shape}"
            )
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ContractViolation("bounds must be finite")
        if not np.all(lower < upper):
            raise ContractViolation("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def unit_box(cls, name: str, d: int, m: int) -> "ProblemSpec":
        return cls(name=name, d=d, m=m, lower=np.zeros(d), upper=np.ones(d))


@dataclass(frozen=True)
class Population:
    """N candidates of one problem as read-only arrays.

    ``x`` holds the (N, d) decisions. ``f`` holds the (N, m) objectives and
    ``cv`` the (N,) aggregate constraint violations; both are None while no
    member is evaluated, and a pending member's rows in them are NaN.
    """

    x: np.ndarray
    f: np.ndarray | None = None
    cv: np.ndarray | None = None
    generation_index: int = 0

    def __post_init__(self):
        if (self.f is None) != (self.cv is None):
            raise ContractViolation("objectives and violation must be set together")
        try:
            x, f, cv = (None if a is None else _frozen_array(a) for a in (self.x, self.f, self.cv))
        except ValueError as exc:  # ragged or non-numeric rows
            raise ContractViolation(f"population rows must be equal-length numbers: {exc}") from exc
        if x.ndim != 2 or x.shape[1] == 0 and len(x):
            raise ContractViolation("decisions must be an (N, d) array with d >= 1")
        if not np.isfinite(x).all():
            raise ContractViolation("decision vector contains non-finite components")
        if self.generation_index < 0:
            raise ContractViolation("generation index must be non-negative")
        object.__setattr__(self, "x", x)
        if f is None:
            return
        if f.ndim != 2 or len(f) != len(x) or f.shape[1] < 2 or cv.shape != (len(x),):
            raise ContractViolation(
                f"{len(x)} decisions need (N, m >= 2) objectives and (N,) violations, "
                f"got {f.shape} and {cv.shape}"
            )
        pending = np.isnan(cv)
        if not np.array_equal(np.isnan(f).all(axis=1), pending):
            raise ContractViolation("objectives and violation must be set together")
        if not np.isfinite(f[~pending]).all():
            raise ContractViolation("objective vector contains non-finite components")
        done = cv[~pending]
        if not (np.isfinite(done) & (done >= 0)).all():
            raise ContractViolation(f"constraint violation must be finite and >= 0, got {done}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "cv", cv)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def evaluated(self) -> np.ndarray:
        """Per-member mask of the evaluated rows."""
        return np.zeros(len(self), bool) if self.cv is None else ~np.isnan(self.cv)

    @property
    def all_evaluated(self) -> bool:
        return bool(self.evaluated.all())

    def take(self, idx, generation_index: int | None = None) -> "Population":
        """The members at ``idx``, in that order, optionally as another generation."""
        f, cv = (None, None) if self.f is None else (self.f[idx], self.cv[idx])
        return Population(self.x[idx], f, cv, self.generation_index
                          if generation_index is None else generation_index)

    def concat(self, other: "Population") -> "Population":
        """These members followed by ``other``'s, both fully evaluated."""
        if not (self.all_evaluated and other.all_evaluated):
            raise ContractViolation("concat requires fully evaluated populations")
        return Population(np.concatenate([self.x, other.x]),
                          np.concatenate([self.f, other.f]),
                          np.concatenate([self.cv, other.cv]), self.generation_index)


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Pareto dominance of objective row a over row b: no worse everywhere and
    strictly better somewhere."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ContractViolation("dominance requires both solutions evaluated")
    if a.shape != b.shape:
        raise ContractViolation("dominance requires equal objective counts")
    return bool(np.all(a <= b) and np.any(a < b))


def constrained_dominates(a: np.ndarray, a_cv: float, b: np.ndarray, b_cv: float) -> bool:
    """Feasibility-first dominance of (a, a_cv) over (b, b_cv): feasible beats
    infeasible, smaller violation beats larger, and Pareto dominance decides
    between feasible solutions."""
    if np.isnan(a_cv) or np.isnan(b_cv):
        raise ContractViolation("constrained dominance requires both solutions evaluated")
    if a_cv == 0.0 and b_cv == 0.0:
        return dominates(a, b)
    if a_cv == 0.0:
        return True
    if b_cv == 0.0:
        return False
    return a_cv < b_cv


def normalize_decision(x: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Map a bound-space vector into the unit box."""
    return (np.asarray(x, dtype=float) - spec.lower) / (spec.upper - spec.lower)


def denormalize_decision(u: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Inverse of :func:`normalize_decision`."""
    return spec.lower + np.asarray(u, dtype=float) * (spec.upper - spec.lower)


def aggregate_violation(inequalities: np.ndarray, equalities: np.ndarray | None = None,
                        eq_tolerance: float = 1e-4) -> float:
    """Collapse constraint values into one non-negative violation.

    Inequalities use the g(x) <= 0 convention; equalities within
    ``eq_tolerance`` of zero count as satisfied.
    """
    total = float(np.sum(np.maximum(0.0, np.asarray(inequalities, dtype=float))))
    if equalities is not None and len(np.atleast_1d(equalities)):
        h = np.abs(np.asarray(equalities, dtype=float))
        total += float(np.sum(np.where(h > eq_tolerance, h, 0.0)))
    return total


class Problem:
    """Deterministic black-box evaluator with a declared spec.

    Subclasses implement ``objectives`` (and optionally ``constraints`` with the
    g(x) <= 0 convention). Instances are immutable after construction and safe
    for concurrent evaluation.
    """

    spec: ProblemSpec

    def objectives(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def constraints(self, x: np.ndarray) -> np.ndarray:
        return np.empty(0)

    def reference_front(self, n: int) -> np.ndarray:
        raise UnsupportedFront(f"{self.spec.name} has no analytic reference front")

    def in_bounds(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.spec.lower) and np.all(x <= self.spec.upper))

    def evaluate_solution(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Objectives and aggregate violation of one decision vector."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.spec.d,):
            raise ContractViolation(
                f"{self.spec.name}: expected decision vector of length {self.spec.d}, got {x.shape}"
            )
        if not self.in_bounds(x):
            raise ContractViolation(f"{self.spec.name}: decision vector out of bounds")
        f = np.asarray(self.objectives(x), dtype=float)
        if f.shape != (self.spec.m,):
            raise EvaluationError(
                f"{self.spec.name}: evaluator returned shape {f.shape}, expected ({self.spec.m},)"
            )
        if not np.isfinite(f).all():
            raise EvaluationError(f"{self.spec.name}: evaluator produced non-finite objectives")
        g = np.asarray(self.constraints(x), dtype=float)
        if g.size and not np.isfinite(g).all():
            raise EvaluationError(f"{self.spec.name}: evaluator produced non-finite constraints")
        return f, aggregate_violation(g)


class EvaluationBudget:
    """Thread-safe evaluation counter with atomic reserve/release semantics."""

    def __init__(self, total: int, used: int = 0):
        total = int(total)
        used = int(used)
        if total < 1:
            raise ContractViolation(f"budget total must be positive, got {total}")
        if not 0 <= used <= total:
            raise ContractViolation("initial used count outside [0, total]")
        self._total = total
        self._used = used
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        return self._total

    @property
    def used(self) -> int:
        with self._lock:
            return self._used

    @property
    def remaining(self) -> int:
        with self._lock:
            return self._total - self._used

    def reserve(self, k: int) -> int:
        """Atomically claim up to ``k`` evaluations; returns the granted count."""
        if k < 0:
            raise ContractViolation("cannot reserve a negative count")
        with self._lock:
            grant = min(k, self._total - self._used)
            self._used += grant
            return grant

    def release(self, k: int) -> None:
        """Return ``k`` unused reserved evaluations to the pool."""
        if k < 0:
            raise ContractViolation("cannot release a negative count")
        with self._lock:
            if k > self._used:
                raise ContractViolation("releasing more than was reserved")
            self._used -= k


def evaluate(pop: Population, problem: Problem, budget: EvaluationBudget) -> Population:
    """Evaluate the unevaluated members of ``pop`` in order, budget permitting.

    Already evaluated members consume nothing. When the budget covers only a
    prefix of the pending members, that prefix is evaluated and a
    :class:`BudgetExhausted` is raised carrying the partial population; when it
    covers none, the signal reports zero evaluations performed.
    """
    pending = np.flatnonzero(~pop.evaluated)
    if not len(pending):
        return pop
    grant = budget.reserve(len(pending))
    if grant == 0:
        raise BudgetExhausted(
            f"budget exhausted: {len(pending)} evaluations requested, none available",
            performed=0, population=pop,
        )
    f = np.full((len(pop), problem.spec.m), np.nan) if pop.f is None else pop.f.copy()
    cv = np.full(len(pop), np.nan) if pop.cv is None else pop.cv.copy()
    performed = 0
    try:
        for i in pending[:grant]:
            f[i], cv[i] = problem.evaluate_solution(pop.x[i])
            performed += 1
    except Exception:
        budget.release(grant - performed)
        raise
    result = Population(pop.x, f, cv, pop.generation_index)
    if grant < len(pending):
        raise BudgetExhausted(
            f"budget exhausted after {grant} of {len(pending)} pending evaluations",
            performed=grant, population=result,
        )
    return result


def random_population(problem: Problem, n: int, rng: np.random.Generator,
                      generation_index: int = 0) -> Population:
    """Uniform random unevaluated population within the problem bounds."""
    spec = problem.spec
    xs = rng.uniform(spec.lower, spec.upper, size=(n, spec.d))
    return Population(xs, generation_index=generation_index)
