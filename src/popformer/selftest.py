"""Built-in oracle checks runnable from the CLI: sorting vs brute force,
gradient checks, cached decoding vs a full re-decode, metric fixtures.
Prints one line per check."""
from __future__ import annotations

import numpy as np

from .core import (
    EvaluationBudget,
    Population,
    ProblemSpec,
    constrained_dominates,
    denormalize_decision,
    evaluate,
    random_population,
)
from .metrics import igd, wilcoxon_rank_sum
from .model import ModelConfig, PopulationTransformer
from .moea import fast_nondominated_sort
from .nn import Tensor, const, gradient_check, layer_norm, linear, mul, sum_all
from .nn.layers import LinearParams, NormParams
from .problems import make_problem


def _random_population(rng, n, m, constrained=False) -> Population:
    objs = rng.integers(0, 5, size=(n, m)).astype(float)
    cv = rng.integers(0, 3, size=n).astype(float) * 0.5 if constrained else np.zeros(n)
    return Population(rng.random((n, 3)), objs, cv)


def brute_force_ranks(pop: Population) -> np.ndarray:
    """O(N^2) peeling oracle using only the pairwise dominance predicates."""
    f, cv = pop.f, pop.cv
    n = len(pop)
    rank = np.full(n, -1)
    alive = set(range(n))
    level = 0
    while alive:
        # with every member feasible this is plain Pareto dominance
        front = [i for i in alive if not any(
            constrained_dominates(f[j], cv[j], f[i], cv[i]) for j in alive if j != i)]
        for i in front:
            rank[i] = level
            alive.discard(i)
        level += 1
    return rank


def check_sorting(trials: int = 40, seed: int = 3) -> bool:
    rng = np.random.default_rng(seed)
    for t in range(trials):
        pop = _random_population(rng, int(rng.integers(2, 40)), int(rng.integers(2, 5)),
                                 constrained=t % 2 == 0)
        got = fast_nondominated_sort(pop).rank
        want = brute_force_ranks(pop)
        if not np.array_equal(got, want):
            return False
    return True


def check_gradients() -> bool:
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    gain = Tensor(rng.normal(size=3), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    x = const(rng.normal(size=(5, 4)))
    probe = const(rng.normal(size=(5, 3)))  # keeps the objective non-degenerate

    def loss():
        h = linear(x, LinearParams(w, b))
        return sum_all(mul(layer_norm(h, NormParams(gain, bias)), probe))

    report = gradient_check(loss, [w, b, gain, bias])
    return report["max_rel_err"] <= 1e-4


def redecode_offspring(model: PopulationTransformer, parents: Population,
                       offspring: Population, spec: ProblemSpec) -> np.ndarray:
    """Offspring 1.. as one full causal ``decode`` of the generated prefix
    computes them: the oracle for cached decoding in ``generate``."""
    encoded = model.encode_parents(parents, spec)
    frame = (encoded.obj_low, encoded.obj_span)
    y = model.decode(model.embed(offspring.x[:-1], offspring.f[:-1], spec, frame=frame),
                     encoded.memories)
    return denormalize_decision(model.head_activations(y).data[:, :spec.d], spec)


def check_cached_decoding() -> bool:
    problem = make_problem("zdt4", d=6)  # asymmetric bounds
    rng = np.random.default_rng(0)
    parents = evaluate(random_population(problem, 10, rng), problem, EvaluationBudget(10))
    for layers, heads, head_mode, budget in ((3, 4, "logistic", 10), (1, 1, "softmax", 7)):
        cfg = ModelConfig(d_hat=8, m_hat=4, width=16, layers=layers, heads=heads,
                          max_seq=12, head_mode=head_mode)
        model = PopulationTransformer(cfg, seed=layers)
        offspring = model.generate(parents, problem, EvaluationBudget(budget), rng,
                                   n_offspring=10)
        want = redecode_offspring(model, parents, offspring, problem.spec)
        if len(offspring) != budget or \
                np.abs(offspring.x[1:] - want).max() > 1e-12:
            return False
    return True


def check_igd() -> bool:
    two = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases = [
        (igd(two, two).value, 0.0),
        (igd(two, np.array([[1.0, 1.0]])).value, 1.0),
        (igd(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])).value, 5.0),
    ]
    return all(abs(got - want) <= 1e-12 for got, want in cases)


def check_ranksum() -> bool:
    result = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    return abs(result.p_value - 0.1) < 1e-12 and result.decision == "indifferent"


def run_selftest() -> bool:
    checks = [
        ("non-dominated sort matches brute force", check_sorting),
        ("gradients match finite differences", check_gradients),
        ("cached decoding matches a full re-decode", check_cached_decoding),
        ("igd fixtures", check_igd),
        ("rank-sum enumeration fixture", check_ranksum),
    ]
    all_ok = True
    for name, fn in checks:
        ok = fn()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return all_ok
