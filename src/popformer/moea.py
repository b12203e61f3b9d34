"""Classical evolutionary machinery: non-dominated sorting, crowding-distance
selection, SBX/polynomial-mutation variation, a competitive-swarm operator,
and the one generational run loop that drives them and the learned arm.

The run loop consumes the budget exactly: the trailing offspring batch may be
partial, and every recorded generation is a post-selection parent population.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EvaluationBudget,
    Population,
    Problem,
    Solution,
    evaluate,
    random_population,
)
from .dataset import TrajectoryPair, TrajectorySink
from .errors import BudgetExhausted, ConfigError, ContractViolation


@dataclass(frozen=True)
class FrontPartition:
    """Indices partitioned into non-dominated fronts, plus per-member rank."""

    fronts: tuple[tuple[int, ...], ...]
    rank: np.ndarray


@dataclass(frozen=True)
class VariationConfig:
    sbx_eta: float = 20.0
    sbx_prob: float = 1.0
    pm_eta: float = 20.0
    pm_prob: float | None = None  # None -> 1/d

    def __post_init__(self):
        if not (0.0 <= self.sbx_prob <= 1.0):
            raise ConfigError("sbx_prob must be in [0, 1]")
        if self.pm_prob is not None and not (0.0 <= self.pm_prob <= 1.0):
            raise ConfigError("pm_prob must be in [0, 1]")
        if self.sbx_eta <= 0 or self.pm_eta <= 0:
            raise ConfigError("distribution indices must be positive")


def _dominance_matrix(objs: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """dom[i, j] is True when member i constrained-dominates member j."""
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    lt = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    pareto = le & lt
    if not np.any(cv > 0):
        return pareto
    feas = cv == 0.0
    both_feas = feas[:, None] & feas[None, :]
    dom = both_feas & pareto
    dom |= feas[:, None] & ~feas[None, :]
    dom |= (~feas[:, None] & ~feas[None, :]) & (cv[:, None] < cv[None, :])
    return dom


def fast_nondominated_sort(pop: Population) -> FrontPartition:
    """Partition a fully evaluated population into ranked non-dominated fronts.

    Constrained dominance applies when any member is infeasible, plain Pareto
    dominance otherwise.
    """
    if not pop.all_evaluated:
        raise ContractViolation("sorting requires a fully evaluated population")
    n = len(pop)
    dom = _dominance_matrix(pop.objectives(), pop.violations())
    counts = dom.sum(axis=0)
    rank = np.full(n, -1, dtype=int)
    fronts: list[tuple[int, ...]] = []
    remaining = np.ones(n, dtype=bool)
    level = 0
    while remaining.any():
        current = remaining & (counts == 0)
        if not current.any():  # defensive; cannot happen for a strict partial order
            current = remaining.copy()
        idx = np.flatnonzero(current)
        fronts.append(tuple(int(i) for i in idx))
        rank[idx] = level
        remaining[idx] = False
        counts = counts - dom[idx].sum(axis=0)
        level += 1
    return FrontPartition(fronts=tuple(fronts), rank=rank)


def crowding_distance(front_objs: np.ndarray) -> np.ndarray:
    """Per-member crowding scores for one front's objective matrix.

    Boundary members on each objective get +inf; interior members accumulate
    the normalized gap between their neighbours. A zero objective range
    contributes nothing.
    """
    front_objs = np.asarray(front_objs, dtype=float)
    if front_objs.size == 0:
        return np.empty(0)
    n, m = front_objs.shape
    scores = np.zeros(n)
    for j in range(m):
        order = np.argsort(front_objs[:, j], kind="stable")
        col = front_objs[order, j]
        scores[order[0]] = np.inf
        scores[order[-1]] = np.inf
        span = col[-1] - col[0]
        if n > 2 and span > 0:
            gaps = (col[2:] - col[:-2]) / span
            interior = order[1:-1]
            finite = np.isfinite(scores[interior])
            scores[interior[finite]] += gaps[finite]
    return scores


def rank_and_crowding(pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """Ranks plus per-front crowding scores for the whole population."""
    part = fast_nondominated_sort(pop)
    objs = pop.objectives()
    crowd = np.zeros(len(pop))
    for front in part.fronts:
        idx = np.array(front)
        crowd[idx] = crowding_distance(objs[idx])
    return part.rank, crowd


def nsga2_select(pop: Population, n: int) -> Population:
    """Environmental selection: whole fronts in rank order, the split front by
    descending crowding distance, ties broken by lower member index.

    Output members are ordered by (rank asc, crowding desc, index asc); that
    canonical order doubles as the target ordering for sequence training.
    """
    if n > len(pop):
        raise ContractViolation(f"cannot select {n} from a population of {len(pop)}")
    part = fast_nondominated_sort(pop)
    objs = pop.objectives()
    chosen: list[int] = []
    for front in part.fronts:
        idx = np.array(front)
        crowd = crowding_distance(objs[idx])
        order = sorted(range(len(idx)), key=lambda k: (-crowd[k], idx[k]))
        ordered = [int(idx[k]) for k in order]
        if len(chosen) + len(ordered) <= n:
            chosen.extend(ordered)
        else:
            chosen.extend(ordered[: n - len(chosen)])
        if len(chosen) == n:
            break
    return Population(tuple(pop.members[i] for i in chosen), pop.generation_index)


def _tournament(rank, crowd, rng, count):
    n = len(rank)
    picks = np.empty(count, dtype=int)
    for t in range(count):
        i, j = rng.integers(0, n, size=2)
        a = (rank[i], -crowd[i], i)
        b = (rank[j], -crowd[j], j)
        picks[t] = i if a <= b else j
    return picks


def sbx_crossover(a: np.ndarray, b: np.ndarray, cfg: VariationConfig,
                  rng: np.random.Generator, lower: np.ndarray,
                  upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded simulated binary crossover; children are clamped to bounds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ContractViolation("parents must share one dimension")
    c1, c2 = a.copy(), b.copy()
    if rng.random() > cfg.sbx_prob:
        return c1, c2
    eta = cfg.sbx_eta
    do_var = rng.random(a.size) <= 0.5
    u = rng.random(a.size)
    swap = rng.random(a.size) <= 0.5
    for i in range(a.size):
        if not do_var[i] or abs(a[i] - b[i]) < 1e-14:
            continue
        y1, y2 = (a[i], b[i]) if a[i] < b[i] else (b[i], a[i])
        span = y2 - y1
        beta_l = 1.0 + 2.0 * (y1 - lower[i]) / span
        beta_u = 1.0 + 2.0 * (upper[i] - y2) / span
        r = u[i]

        def child(beta):
            alpha = 2.0 - beta ** -(eta + 1.0)
            if r <= 1.0 / alpha:
                return (r * alpha) ** (1.0 / (eta + 1.0))
            return (1.0 / (2.0 - r * alpha)) ** (1.0 / (eta + 1.0))

        bq1 = child(beta_l)
        bq2 = child(beta_u)
        v1 = 0.5 * ((y1 + y2) - bq1 * span)
        v2 = 0.5 * ((y1 + y2) + bq2 * span)
        v1 = min(max(v1, lower[i]), upper[i])
        v2 = min(max(v2, lower[i]), upper[i])
        if swap[i]:
            v1, v2 = v2, v1
        c1[i], c2[i] = v1, v2
    return c1, c2


def polynomial_mutation(x: np.ndarray, cfg: VariationConfig, rng: np.random.Generator,
                        lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Bounded polynomial mutation with per-variable probability."""
    x = np.asarray(x, dtype=float).copy()
    prob = cfg.pm_prob if cfg.pm_prob is not None else 1.0 / x.size
    eta = cfg.pm_eta
    do_var = rng.random(x.size) <= prob
    u = rng.random(x.size)
    for i in np.flatnonzero(do_var):
        span = upper[i] - lower[i]
        d1 = (x[i] - lower[i]) / span
        d2 = (upper[i] - x[i]) / span
        r = u[i]
        mut_pow = 1.0 / (eta + 1.0)
        if r < 0.5:
            val = 2.0 * r + (1.0 - 2.0 * r) * (1.0 - d1) ** (eta + 1.0)
            delta = val ** mut_pow - 1.0
        else:
            val = 2.0 * (1.0 - r) + 2.0 * (r - 0.5) * (1.0 - d2) ** (eta + 1.0)
            delta = 1.0 - val ** mut_pow
        x[i] = min(max(x[i] + delta * span, lower[i]), upper[i])
    return x


def sbx_pm_offspring(parents: Population, cfg: VariationConfig,
                     rng: np.random.Generator, problem: Problem) -> Population:
    """Standard NSGA-II variation: tournament mating, SBX, then mutation."""
    spec = problem.spec
    rank, crowd = rank_and_crowding(parents)
    n = len(parents)
    picks = _tournament(rank, crowd, rng, n)
    children: list[Solution] = []
    for k in range(0, n - 1, 2):
        p1 = parents.members[picks[k]].x
        p2 = parents.members[picks[k + 1]].x
        c1, c2 = sbx_crossover(p1, p2, cfg, rng, spec.lower, spec.upper)
        children.append(Solution(x=polynomial_mutation(c1, cfg, rng, spec.lower, spec.upper)))
        children.append(Solution(x=polynomial_mutation(c2, cfg, rng, spec.lower, spec.upper)))
    if len(children) < n:  # odd population: mutate the last pick
        c = polynomial_mutation(parents.members[picks[-1]].x, cfg, rng, spec.lower, spec.upper)
        children.append(Solution(x=c))
    return Population(tuple(children), parents.generation_index + 1)


def cso_step(pop: Population, rng: np.random.Generator, problem: Problem) -> Population:
    """Competitive-swarm update: random pairing, each loser moves a random
    fraction toward its winner; winners (and any odd leftover) pass through
    with their evaluations intact, losers come back unevaluated."""
    if not pop.all_evaluated:
        raise ContractViolation("competitive-swarm step requires an evaluated population")
    spec = problem.spec
    rank, crowd = rank_and_crowding(pop)
    perm = rng.permutation(len(pop))
    out: list[Solution] = list(pop.members)
    for k in range(0, len(pop) - 1, 2):
        i, j = int(perm[k]), int(perm[k + 1])
        # winner by (rank, -crowding, index); rank already encodes constrained dominance
        a = (rank[i], -crowd[i], i)
        b = (rank[j], -crowd[j], j)
        win, lose = (i, j) if a <= b else (j, i)
        r = rng.random(spec.d)
        moved = pop.members[lose].x + r * (pop.members[win].x - pop.members[lose].x)
        moved = np.clip(moved, spec.lower, spec.upper)
        out[lose] = Solution(x=moved)
    return Population(tuple(out), pop.generation_index + 1)


def random_offspring(parents: Population, rng: np.random.Generator,
                     problem: Problem) -> Population:
    """Uniform in-bounds sampling; the no-learning baseline arm."""
    return random_population(problem, len(parents), rng, parents.generation_index + 1)


@dataclass
class RunResult:
    population: Population
    log: list[dict]
    evaluations: int


def _evaluate_available(pop: Population, problem: Problem,
                        budget: EvaluationBudget) -> Population:
    """Evaluate what the budget allows of ``pop``; keep its evaluated members."""
    try:
        return evaluate(pop, problem, budget)
    except BudgetExhausted as exc:
        partial = exc.population if exc.population is not None else pop
        return partial.evaluated_members()


def run_generational(problem: Problem, n_pop: int, evals: int, make_offspring,
                     seed: int = 0, sink: TrajectorySink | None = None,
                     teacher_name: str = "custom", after_generation=None) -> RunResult:
    """The select-vary-evaluate loop every run goes through, with exact budget
    accounting.

    ``make_offspring(parents, rng, budget) -> Population`` may evaluate members
    itself within the budget and may return a mix of evaluated and unevaluated
    members; the loop evaluates what is left, budget permitting. A generation
    that consumes no evaluations is a contract violation, since the budget
    would never drain. ``after_generation(parents, offspring) -> dict``, when
    given, runs after each merge and its entries join that generation's log
    entry. Each loop iteration records its post-selection parents;
    consecutive recorded parents become trajectory pairs on the sink.
    """
    if n_pop < 2:
        raise ContractViolation("population size must be at least 2")
    if evals < n_pop:
        raise ContractViolation("budget must cover at least the initial population")
    budget = EvaluationBudget(evals)
    rng = np.random.default_rng(seed)
    pool = evaluate(random_population(problem, n_pop, rng), problem, budget)
    log: list[dict] = []
    prev_parents: Population | None = None
    generation = 0
    while budget.remaining > 0:
        parents = nsga2_select(pool, n_pop)
        parents = Population(parents.members, generation)
        if sink is not None and prev_parents is not None:
            sink.append(TrajectoryPair.from_populations(
                problem.spec, prev_parents, parents,
                teacher=teacher_name, seed=seed, generation=generation - 1,
            ))
        prev_parents = parents
        used_before = budget.used
        offspring = _evaluate_available(make_offspring(parents, rng, budget), problem, budget)
        if budget.used == used_before:
            raise ContractViolation(
                "generation consumed no evaluations; the budget would never drain"
            )
        pool = Population(parents.members + offspring.members, generation)
        entry = {
            "generation": generation,
            "evaluations": budget.used,
            "offspring_evaluated": budget.used - used_before,
            "partial": len(offspring) < n_pop,
        }
        if after_generation is not None:
            entry.update(after_generation(parents, offspring))
        log.append(entry)
        generation += 1
    final = nsga2_select(pool, n_pop)
    return RunResult(population=final, log=log, evaluations=budget.used)


def run_nsga2(problem: Problem, n_pop: int, evals: int,
              cfg: VariationConfig | None = None, seed: int = 0,
              sink: TrajectorySink | None = None) -> RunResult:
    """NSGA-II with SBX + polynomial mutation."""
    cfg = cfg or VariationConfig()
    return run_generational(
        problem, n_pop, evals,
        lambda parents, rng, budget: sbx_pm_offspring(parents, cfg, rng, problem),
        seed=seed, sink=sink, teacher_name="nsga2",
    )


def run_cso(problem: Problem, n_pop: int, evals: int, seed: int = 0,
            sink: TrajectorySink | None = None) -> RunResult:
    """Competitive-swarm teacher inside the same selection loop."""
    return run_generational(
        problem, n_pop, evals,
        lambda parents, rng, budget: cso_step(parents, rng, problem),
        seed=seed, sink=sink, teacher_name="cso",
    )


def run_random_search(problem: Problem, n_pop: int, evals: int, seed: int = 0) -> RunResult:
    """Uniform random offspring under NSGA-II selection; the sanity baseline."""
    return run_generational(
        problem, n_pop, evals,
        lambda parents, rng, budget: random_offspring(parents, rng, problem),
        seed=seed, teacher_name="random",
    )


TEACHERS = {
    "nsga2": run_nsga2,
    "cso": run_cso,
}
