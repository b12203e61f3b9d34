"""Core data model: solutions, populations, problems, dominance and evaluation budgets.

All objectives follow the minimization convention. Solutions and populations
are immutable; operations return new values.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

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
class Solution:
    """One candidate: decision vector plus, once evaluated, objectives and violation."""

    x: np.ndarray
    f: np.ndarray | None = None
    cv: float | None = None

    def __post_init__(self):
        x = _frozen_array(self.x)
        if x.ndim != 1 or x.size == 0:
            raise ContractViolation("decision vector must be a non-empty 1-d array")
        if not np.isfinite(x).all():
            raise ContractViolation("decision vector contains non-finite components")
        object.__setattr__(self, "x", x)
        if (self.f is None) != (self.cv is None):
            raise ContractViolation("objectives and violation must be set together")
        if self.f is not None:
            f = _frozen_array(self.f)
            if f.ndim != 1 or f.size < 2:
                raise ContractViolation("objective vector must be 1-d with at least 2 entries")
            if not np.isfinite(f).all():
                raise ContractViolation("objective vector contains non-finite components")
            object.__setattr__(self, "f", f)
            cv = float(self.cv)
            if not np.isfinite(cv) or cv < 0:
                raise ContractViolation(f"constraint violation must be finite and >= 0, got {cv}")
            object.__setattr__(self, "cv", cv)

    @property
    def evaluated(self) -> bool:
        return self.f is not None

    @property
    def feasible(self) -> bool:
        return self.evaluated and self.cv == 0.0


@dataclass(frozen=True)
class Population:
    """Ordered, immutable sequence of solutions belonging to one problem."""

    members: tuple[Solution, ...]
    generation_index: int = 0

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if self.generation_index < 0:
            raise ContractViolation("generation index must be non-negative")
        if members:
            d = members[0].x.size
            m = None
            for s in members:
                if s.x.size != d:
                    raise ContractViolation("population mixes decision dimensions")
                if s.evaluated:
                    if m is None:
                        m = s.f.size
                    elif s.f.size != m:
                        raise ContractViolation("population mixes objective counts")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i) -> Solution:
        return self.members[i]

    @property
    def all_evaluated(self) -> bool:
        return all(s.evaluated for s in self.members)

    def evaluated_members(self) -> "Population":
        return Population(tuple(s for s in self.members if s.evaluated), self.generation_index)

    def decisions(self) -> np.ndarray:
        return np.array([s.x for s in self.members])

    def objectives(self) -> np.ndarray:
        if not self.all_evaluated:
            raise ContractViolation("objectives() requires a fully evaluated population")
        return np.array([s.f for s in self.members])

    def violations(self) -> np.ndarray:
        if not self.all_evaluated:
            raise ContractViolation("violations() requires a fully evaluated population")
        return np.array([s.cv for s in self.members])


def dominates(a: Solution, b: Solution) -> bool:
    """Pareto dominance: a is no worse everywhere and strictly better somewhere."""
    if not (a.evaluated and b.evaluated):
        raise ContractViolation("dominance requires both solutions evaluated")
    if a.f.size != b.f.size:
        raise ContractViolation("dominance requires equal objective counts")
    return bool(np.all(a.f <= b.f) and np.any(a.f < b.f))


def constrained_dominates(a: Solution, b: Solution) -> bool:
    """Feasibility-first dominance: feasible beats infeasible, smaller violation
    beats larger, and Pareto dominance decides between feasible solutions."""
    if not (a.evaluated and b.evaluated):
        raise ContractViolation("constrained dominance requires both solutions evaluated")
    if a.cv == 0.0 and b.cv == 0.0:
        return dominates(a, b)
    if a.cv == 0.0:
        return True
    if b.cv == 0.0:
        return False
    return a.cv < b.cv


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

    def evaluate_solution(self, x: np.ndarray) -> Solution:
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
        return Solution(x=x, f=f, cv=aggregate_violation(g))


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
    pending = [i for i, s in enumerate(pop.members) if not s.evaluated]
    if not pending:
        return pop
    grant = budget.reserve(len(pending))
    if grant == 0:
        raise BudgetExhausted(
            f"budget exhausted: {len(pending)} evaluations requested, none available",
            performed=0, population=pop,
        )
    members = list(pop.members)
    performed = 0
    try:
        for i in pending[:grant]:
            members[i] = problem.evaluate_solution(members[i].x)
            performed += 1
    except Exception:
        budget.release(grant - performed)
        raise
    result = Population(tuple(members), pop.generation_index)
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
    return Population(tuple(Solution(x=row) for row in xs), generation_index)
