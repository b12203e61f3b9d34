"""Core data model: populations, problems, dominance and evaluation budgets.

All objectives follow the minimization convention. A population is a set of
read-only arrays, one row per member; operations return new populations.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, EvaluationError, UnsupportedFront


def require_count(value, name: str, minimum: int | None = 1) -> int:
    """``value`` as an int when it is an int or numpy integer of at least
    ``minimum`` (any int when ``minimum`` is None), else a ConfigError naming
    it; a bool or a float is not a count. The package's one integer rule."""
    if not isinstance(value, (int, np.integer)) or type(value) is bool:
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProblemSpec:
    """Static description of a problem: dimensions and bounds."""

    name: str
    d: int
    m: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        require_count(self.d, "d")
        require_count(self.m, "m", minimum=2)
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

    @classmethod
    def _derived(cls, *fields) -> "Population":
        """A population of rows cut from validated populations, which
        therefore passes every check: its arrays are frozen, not re-checked."""
        pop = object.__new__(cls)
        for name, value in zip(("x", "f", "cv", "generation_index"), fields):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(pop, name, value)
        return pop

    def take(self, idx, generation_index: int | None = None) -> "Population":
        """The members at ``idx``, in that order, optionally as another generation."""
        if generation_index is not None and generation_index < 0:
            raise ContractViolation("generation index must be non-negative")
        f, cv = (None, None) if self.f is None else (self.f[idx], self.cv[idx])
        return Population._derived(self.x[idx], f, cv, self.generation_index
                                   if generation_index is None else generation_index)

    def concat(self, other: "Population") -> "Population":
        """These members followed by ``other``'s, both fully evaluated."""
        if not (self.all_evaluated and other.all_evaluated):
            raise ContractViolation("concat requires fully evaluated populations")
        return Population._derived(np.concatenate([self.x, other.x]),
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


def aggregate_violation(inequalities: np.ndarray) -> np.ndarray:
    """Collapse inequality constraint values, g(x) <= 0 each, into one
    non-negative violation per row; the values lie along the last axis."""
    return np.sum(np.maximum(0.0, np.asarray(inequalities, dtype=float)), axis=-1)


class Problem:
    """Deterministic black-box evaluator with a declared spec.

    Subclasses implement ``objectives`` (and optionally ``constraints`` with the
    g(x) <= 0 convention) over (k, d) decision blocks, returning (k, m)
    objectives (and (k, c) constraint values). Evaluation always passes 2-d
    blocks, one row as (1, d): on a 1-d row numpy's one-element
    transcendental functions can round the last bit differently from its
    array loops (zdt6). Instances are immutable after construction and safe
    for concurrent evaluation.
    """

    spec: ProblemSpec

    def objectives(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def constraints(self, x: np.ndarray) -> np.ndarray:
        return np.empty(x.shape[:-1] + (0,))

    def reference_front(self, n: int) -> np.ndarray:
        raise UnsupportedFront(f"{self.spec.name} has no analytic reference front")

    def evaluate_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives (k, m) and aggregate violations (k,) of a (k, d) block
        of decision rows."""
        spec = self.spec
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != spec.d:
            raise ContractViolation(f"{spec.name}: expected (k, {spec.d}) rows, got {x.shape}")
        outside = ~((x >= spec.lower) & (x <= spec.upper)).all(axis=1)
        if outside.any():
            raise ContractViolation(f"{spec.name}: decision row {np.argmax(outside)} out of bounds")
        return self._scored(x)

    def evaluate_solution(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Objectives and aggregate violation of one decision vector: the
        checks, errors and values of ``evaluate_batch(x[None])``, with the
        input checked as one row."""
        spec = self.spec
        x = np.asarray(x, dtype=float)
        if x.shape != (spec.d,):
            raise ContractViolation(
                f"{spec.name}: expected (k, {spec.d}) rows, got {(1, *x.shape)}")
        if not ((x >= spec.lower) & (x <= spec.upper)).all():
            raise ContractViolation(f"{spec.name}: decision row 0 out of bounds")
        f, cv = self._scored(x[None])
        return f[0], float(cv[0])

    def _scored(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate_batch`` of a (k, d) block already checked in bounds."""
        spec = self.spec
        f = np.asarray(self.objectives(x), dtype=float)
        g = np.asarray(self.constraints(x), dtype=float)
        if f.shape != (len(x), spec.m) or g.ndim != 2 or len(g) != len(x):
            raise EvaluationError(f"{spec.name}: {len(x)} rows gave objectives of shape "
                                  f"{f.shape} and constraints of shape {g.shape}")
        for what, values in (("objectives", f), ("constraints", g)):
            if not np.isfinite(values).all():
                raise EvaluationError(f"{spec.name}: evaluator produced non-finite {what}")
        return f, aggregate_violation(g)


class EvaluationBudget:
    """Thread-safe evaluation counter with atomic reserve/release semantics."""

    def __init__(self, total: int):
        self._total = require_count(total, "budget total")
        self._used = 0
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
        k = require_count(k, "reserved count", minimum=0)
        with self._lock:
            grant = min(k, self._total - self._used)
            self._used += grant
            return grant

    def release(self, k: int) -> None:
        """Return ``k`` unused reserved evaluations to the pool."""
        k = require_count(k, "released count", minimum=0)
        with self._lock:
            if k > self._used:
                raise ContractViolation("releasing more than was reserved")
            self._used -= k


def evaluate(pop: Population, problem: Problem, budget: EvaluationBudget) -> Population:
    """Evaluate the unevaluated members of ``pop`` in order, budget permitting,
    as one block of rows.

    Already evaluated members consume nothing. A block that raises charges
    nothing: the whole grant returns to the budget. When the budget covers only
    a prefix of the pending members, or none, that prefix is evaluated and the
    members past it stay pending in the returned population.
    """
    pending = np.flatnonzero(~pop.evaluated)
    grant = budget.reserve(len(pending))
    if grant == 0:
        return pop
    f = np.full((len(pop), problem.spec.m), np.nan) if pop.f is None else pop.f.copy()
    cv = np.full(len(pop), np.nan) if pop.cv is None else pop.cv.copy()
    rows = pending[:grant]
    try:
        f[rows], cv[rows] = problem.evaluate_batch(pop.x[rows])
    except Exception:
        budget.release(grant)
        raise
    # x was checked with pop, and _scored has just checked the new f and cv rows
    return Population._derived(pop.x, f, cv, pop.generation_index)


def random_population(problem: Problem, n: int, rng: np.random.Generator,
                      generation_index: int = 0) -> Population:
    """Uniform random unevaluated population within the problem bounds:
    ``rng.uniform(lower, upper, (n, d))`` bit for bit, minus its broadcasting."""
    spec = problem.spec
    xs = spec.lower + (spec.upper - spec.lower) * rng.random((n, spec.d))
    return Population(xs, generation_index=generation_index)
