"""Classical evolutionary machinery: non-dominated sorting, crowding-distance
selection, SBX/polynomial-mutation variation, a competitive-swarm operator,
and the one generational run loop that drives them and the learned arm.

The run loop consumes the budget exactly: the trailing offspring batch may be
partial, and every generation's parents are a post-selection population.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EvaluationBudget,
    Population,
    Problem,
    evaluate,
    random_population,
    require_count,
)
from .errors import ConfigError, ContractViolation


@dataclass(frozen=True)
class FrontPartition:
    """Indices of the ranked non-dominated fronts, plus per-member rank."""

    fronts: tuple[tuple[int, ...], ...]
    rank: np.ndarray


# the standard NSGA-II operator settings (Deb et al., IEEE TEC 2002); each
# variable mutates with probability 1/d
SBX_ETA = PM_ETA = 20.0
SBX_PROB = 1.0


def _dominance_matrix(objs: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """dom[i, j] is True when member i constrained-dominates member j."""
    n = len(objs)
    le = np.ones((n, n), dtype=bool)
    for col in objs.T:  # one (N, N) comparison per objective, not one (N, N, m) block
        # each value's count of smaller values orders and ties the members as
        # the value does, and narrow integers compare faster than floats
        key = np.searchsorted(np.sort(col), col).astype(np.min_scalar_type(n))
        le &= key[:, None] <= key[None, :]
    # no worse anywhere and not equal everywhere; exact for finite objectives
    pareto = le & ~le.T
    if not np.any(cv > 0):
        return pareto
    # Pareto between feasible members, else the smaller violation wins (a
    # feasible member's zero beats any infeasible one's)
    feas = cv == 0.0
    return (pareto & feas[:, None] & feas[None, :]) | (cv[:, None] < cv[None, :])


def fast_nondominated_sort(pop: Population, n_rank: int | None = None) -> FrontPartition:
    """Partition a fully evaluated population into ranked non-dominated fronts.

    Constrained dominance applies when any member is infeasible, plain Pareto
    dominance otherwise. With ``n_rank`` the peeling stops at the first front
    that brings the ranked members to at least ``n_rank``: the members left
    over are not listed in ``fronts`` and all get rank ``len(fronts)``.
    """
    if not pop.all_evaluated:
        raise ContractViolation("sorting requires a fully evaluated population")
    n = len(pop)
    goal = n if n_rank is None else min(n_rank, n)
    dom = _dominance_matrix(pop.f, pop.cv).view(np.uint8)
    # dominators not yet ranked, -1 once ranked: the smallest signed type
    # holding -1 to n - 1 keeps the column sums narrow
    count_type = np.min_scalar_type(-n)
    counts = dom.sum(axis=0, dtype=count_type)
    rank = np.empty(n, dtype=int)
    fronts: list[tuple[int, ...]] = []
    ranked = 0
    while ranked < goal:
        idx = np.flatnonzero(counts == 0)
        if idx.size == 0:  # defensive; cannot happen for a strict partial order
            idx = np.flatnonzero(counts >= 0)  # all remaining members form one front
        rank[idx] = len(fronts)
        fronts.append(tuple(idx.tolist()))
        ranked += idx.size
        counts -= dom[idx].sum(axis=0, dtype=count_type)
        counts[idx] = -1
    rank[counts >= 0] = len(fronts)
    return FrontPartition(fronts=tuple(fronts), rank=rank)


def crowding_distance(objs: np.ndarray, rank: np.ndarray | None = None) -> np.ndarray:
    """Per-member crowding scores, each member scored within its own front.

    ``rank`` gives each row's front; without it all rows form one front.
    Boundary members of a front on each objective get +inf; interior members
    accumulate the normalized gap between their neighbours. A zero objective
    range within a front contributes nothing.
    """
    objs = np.asarray(objs, dtype=float)
    n = len(objs)
    scores = np.zeros(n)
    if n == 0:
        return scores
    rank = np.zeros(n, dtype=int) if rank is None else np.asarray(rank)
    # each sorted position's front is the same for every objective
    sorted_rank = np.sort(rank)
    edge = np.flatnonzero(sorted_rank[1:] != sorted_rank[:-1])
    first = np.concatenate(([0], edge + 1))
    last = np.concatenate((edge, [n - 1]))
    front = np.searchsorted(edge, np.arange(1, n - 1))  # of sorted positions 1 .. n - 2
    lo, hi, ends = first[front], last[front], np.concatenate((first, last))
    for col in objs.T:
        order = np.lexsort((col, rank))  # by front, then objective, then index
        col = col[order]
        span = col[hi] - col[lo]
        span[span == 0] = np.inf  # a zero range adds 0.0, which changes no score
        scores[order[1:-1]] += (col[2:] - col[:-2]) / span
        scores[order[ends]] = np.inf  # also replaces the gaps taken across two fronts
    return scores


def _merit_order(pop: Population, rank: np.ndarray) -> np.ndarray:
    """Member indices ordered by (rank asc, crowding desc, index asc), with
    crowding scored within each front; ``rank`` gives the members' front
    ranks."""
    if len(rank) != len(pop):
        raise ContractViolation(f"{len(rank)} ranks given for {len(pop)} members")
    # lexsort is stable, so equal keys stay in index order
    return np.lexsort((-crowding_distance(pop.f, rank), rank))


def nsga2_select(pop: Population, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Environmental selection: the indices of the ``n`` members kept, whole
    fronts in rank order, the split front by descending crowding distance,
    ties broken by lower member index; and the front ranks of those members.

    The indices are ordered by (rank asc, crowding desc, index asc); that
    canonical order doubles as the target ordering for sequence training.
    The ranks are the ones the survivors get when sorted on their own: they
    hold whole fronts 1..k-1 and part of front k, and every member of a front
    j > 1 keeps a dominator from front j-1 (also under constrained dominance).
    """
    if not 0 <= n <= len(pop):
        raise ContractViolation(f"cannot select {n} from a population of {len(pop)}")
    # the sort stops at the first front that fills the n places
    rank = fast_nondominated_sort(pop, n).rank
    selected = _merit_order(pop, rank)[:n]
    return selected, rank[selected]


def sbx_crossover(a: np.ndarray, b: np.ndarray, draws: np.ndarray,
                  lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded simulated binary crossover of the parent rows ``a`` and ``b``
    (k, d); children are clamped to bounds.

    ``draws`` holds each pair's uniform variates, (k, 1 + 3d): the gate that
    decides whether the pair crosses at all, then per variable whether it
    crosses, its spread variate and whether the two children swap it.
    """
    d = a.shape[1]
    gate, do_var, u, swap = np.split(draws, [1, 1 + d, 1 + 2 * d], axis=1)
    cross = (gate <= SBX_PROB) & (do_var <= 0.5) & (np.abs(a - b) >= 1e-14)
    y1, y2 = np.minimum(a, b)[cross], np.maximum(a, b)[cross]
    lo, hi = np.broadcast_to(lower, a.shape)[cross], np.broadcast_to(upper, a.shape)[cross]
    span, r, eta = y2 - y1, u[cross], SBX_ETA
    # the spread factors toward the lower and the upper bound, one row each
    alpha = 2.0 - (1.0 + 2.0 * np.stack([y1 - lo, hi - y2]) / span) ** -(eta + 1.0)
    bq = np.where(r <= 1.0 / alpha, r * alpha, 1.0 / (2.0 - r * alpha)) ** (1.0 / (eta + 1.0))
    v1 = np.clip(0.5 * ((y1 + y2) - bq[0] * span), lo, hi)
    v2 = np.clip(0.5 * ((y1 + y2) + bq[1] * span), lo, hi)
    flip = swap[cross] <= 0.5
    c1, c2 = a.copy(), b.copy()
    c1[cross] = np.where(flip, v2, v1)
    c2[cross] = np.where(flip, v1, v2)
    return c1, c2


def polynomial_mutation(x: np.ndarray, draws: np.ndarray, lower: np.ndarray,
                        upper: np.ndarray) -> np.ndarray:
    """Bounded polynomial mutation of the rows ``x`` (k, d), each variable
    with probability 1/d.

    ``draws`` holds each row's uniform variates, (k, 2d): per variable
    whether it mutates, then its spread variate.
    """
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


def sbx_pm_offspring(parents: Population, rng: np.random.Generator, problem: Problem,
                     rank: np.ndarray) -> Population:
    """Standard NSGA-II variation: tournament mating, SBX, then mutation.

    The tournament reads the parents' front ranks from ``rank``, the ones
    the run loop's selection assigned, and scores crowding on the parents.
    Consecutive picks pair up. Each pair draws one row of 1 + 7d uniforms,
    its SBX variates followed by each child's mutation variates; an odd last
    pick is only mutated, with 2d more draws.
    """
    spec = problem.spec
    n, d = len(parents), spec.d
    # binary tournaments between uniform draws, won by the earlier merit place
    place = np.argsort(_merit_order(parents, rank))
    i, j = rng.integers(0, n, size=(n, 2)).T
    picks = np.where(place[i] <= place[j], i, j)
    even = n - n % 2
    sbx_draws, pm1_draws, pm2_draws = np.split(rng.random((n // 2, 1 + 7 * d)),
                                               [1 + 3 * d, 1 + 5 * d], axis=1)
    c1, c2 = sbx_crossover(parents.x[picks[0:even:2]], parents.x[picks[1:even:2]],
                           sbx_draws, spec.lower, spec.upper)
    children = np.empty((n, d))
    children[0:even:2] = polynomial_mutation(c1, pm1_draws, spec.lower, spec.upper)
    children[1:even:2] = polynomial_mutation(c2, pm2_draws, spec.lower, spec.upper)
    if n % 2:
        children[-1] = polynomial_mutation(parents.x[picks[-1:]], rng.random((1, 2 * d)),
                                           spec.lower, spec.upper)
    return Population(children, generation_index=parents.generation_index + 1)


def cso_step(pop: Population, rng: np.random.Generator, problem: Problem,
             rank: np.ndarray) -> Population:
    """Competitive-swarm update: random pairing, each loser moves a random
    fraction toward its winner; winners (and any odd leftover) pass through
    with their evaluations intact, losers come back unevaluated. Front ranks
    come from ``rank``, as in :func:`sbx_pm_offspring`."""
    if not pop.all_evaluated:
        raise ContractViolation("competitive-swarm step requires an evaluated population")
    spec = problem.spec
    # the earlier merit place wins; rank already encodes constrained dominance
    place = np.argsort(_merit_order(pop, rank))
    perm = rng.permutation(len(pop))
    i, j = perm[:len(pop) - len(pop) % 2].reshape(-1, 2).T  # consecutive entries pair up
    i_wins = place[i] <= place[j]
    win, lose = np.where(i_wins, i, j), np.where(i_wins, j, i)
    r = rng.random((len(i), spec.d))
    x, f, cv = pop.x.copy(), pop.f.copy(), pop.cv.copy()
    x[lose] = np.clip(pop.x[lose] + r * (pop.x[win] - pop.x[lose]), spec.lower, spec.upper)
    f[lose], cv[lose] = np.nan, np.nan
    return Population(x, f, cv, pop.generation_index + 1)


def random_offspring(parents: Population, rng: np.random.Generator,
                     problem: Problem) -> Population:
    """Uniform in-bounds sampling; the no-learning baseline arm."""
    return random_population(problem, len(parents), rng, parents.generation_index + 1)


def check_run_sizes(n_pop, evals) -> None:
    """Raise ConfigError unless ``n_pop`` is an int >= 2 and ``evals`` an int
    that covers the initial population, by :func:`core.require_count`."""
    n_pop = require_count(n_pop, "population size", minimum=2)
    if require_count(evals, "evals", minimum=None) < n_pop:
        raise ConfigError(f"evals ({evals}) must cover the initial population of {n_pop}")


@dataclass
class RunResult:
    population: Population
    log: list[dict]
    evaluations: int


def run_generational(problem: Problem, n_pop: int, evals: int, make_offspring,
                     seed: int = 0, after_generation=None) -> RunResult:
    """The select-vary-evaluate loop every run goes through, with exact budget
    accounting.

    ``make_offspring(parents, rank, rng, budget) -> Population`` receives
    the parents' front ranks from their selection. It may evaluate members
    itself within the budget and may return a mix of evaluated and unevaluated
    members; the loop evaluates what is left, budget permitting, and keeps
    only the evaluated members when the budget ends first. A generation
    that consumes no evaluations is a contract violation, since the budget
    would never drain. Each generation's environmental selection over
    parents and offspring is one :func:`nsga2_select`, and gives the next
    parents and their ranks (and, after the last generation, the final
    population). ``after_generation(parents, offspring, selected) -> dict``,
    when given, is the loop's one hook: it receives that selection's indices
    into the parents followed by the offspring, and its entries join the
    generation's log entry. The parents of generation g carry
    ``generation_index`` g. Sizes that fail :func:`check_run_sizes`, and a
    ``seed`` that is not an int >= 0, raise ConfigError before any evaluation.
    """
    check_run_sizes(n_pop, evals)
    budget = EvaluationBudget(evals)
    rng = np.random.default_rng(require_count(seed, "seed", minimum=0))
    pool = evaluate(random_population(problem, n_pop, rng), problem, budget)
    selected, rank = nsga2_select(pool, n_pop)
    log: list[dict] = []
    generation = 0
    while budget.remaining > 0:
        parents = pool.take(selected, generation)
        used_before = budget.used
        offspring = evaluate(make_offspring(parents, rank, rng, budget), problem, budget)
        if budget.used == used_before:
            raise ContractViolation(
                "generation consumed no evaluations; the budget would never drain"
            )
        if not offspring.all_evaluated:  # the budget ended inside this generation
            offspring = offspring.take(np.flatnonzero(offspring.evaluated))
        pool = parents.concat(offspring)
        selected, rank = nsga2_select(pool, n_pop)
        entry = {
            "generation": generation,
            "evaluations": budget.used,
            "offspring_evaluated": budget.used - used_before,
            "partial": len(offspring) < n_pop,
        }
        if after_generation is not None:
            entry.update(after_generation(parents, offspring, selected))
        log.append(entry)
        generation += 1
    return RunResult(population=pool.take(selected), log=log, evaluations=budget.used)


def run_nsga2(problem: Problem, n_pop: int, evals: int, seed: int = 0,
              after_generation=None) -> RunResult:
    """NSGA-II with SBX + polynomial mutation."""
    return run_generational(
        problem, n_pop, evals,
        lambda parents, rank, rng, budget: sbx_pm_offspring(parents, rng, problem, rank),
        seed=seed, after_generation=after_generation,
    )


def run_cso(problem: Problem, n_pop: int, evals: int, seed: int = 0,
            after_generation=None) -> RunResult:
    """Competitive-swarm teacher inside the same selection loop."""
    return run_generational(
        problem, n_pop, evals,
        lambda parents, rank, rng, budget: cso_step(parents, rng, problem, rank),
        seed=seed, after_generation=after_generation,
    )


def run_random_search(problem: Problem, n_pop: int, evals: int, seed: int = 0) -> RunResult:
    """Uniform random offspring under NSGA-II selection; the sanity baseline."""
    return run_generational(
        problem, n_pop, evals,
        lambda parents, rank, rng, budget: random_offspring(parents, rng, problem),
        seed=seed,
    )


TEACHERS = {
    "nsga2": run_nsga2,
    "cso": run_cso,
}
