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
from .nn import (
    Tensor,
    attention_params,
    causal_mask,
    const,
    gradient_check,
    layer_norm,
    linear,
    mul,
    multi_head_attention,
    sum_all,
)
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
    """The full sort and an early-stopped one for a random member count: every
    ranked member has its brute-force rank, and at least that many are ranked."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        pop = _random_population(rng, int(rng.integers(2, 40)), int(rng.integers(2, 5)),
                                 constrained=t % 2 == 0)
        want = brute_force_ranks(pop)
        if not np.array_equal(fast_nondominated_sort(pop).rank, want):
            return False
        n_rank = int(rng.integers(0, len(pop) + 1))
        part = fast_nondominated_sort(pop, n_rank)
        ranked = part.rank < len(part.fronts)
        if ranked.sum() < n_rank or not np.array_equal(part.rank[ranked], want[ranked]):
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

    # the fused attention rule: masked self-attention over a stack of two
    # sequences, four rows of width 8 in two heads
    attn = attention_params(rng, 8)
    seq = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
    seq_probe = const(rng.normal(size=(2, 4, 8)))
    mask = causal_mask(4)

    def attention_loss():
        return sum_all(mul(multi_head_attention(seq, seq, seq, attn, 2, mask=mask), seq_probe))

    attn_params = [seq] + [t for lin in (attn.q, attn.k, attn.v, attn.out) for t in (lin.w, lin.b)]
    reports = [gradient_check(loss, [w, b, gain, bias]),
               gradient_check(attention_loss, attn_params)]
    return all(report["max_rel_err"] <= 1e-4 for report in reports)


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
    rng = np.random.default_rng(0)
    toy = dict(d_hat=8, m_hat=4, width=16, max_seq=12)
    cases = (  # (config, d, N, budget)
        (ModelConfig(layers=3, heads=4, **toy), 6, 10, 10),
        (ModelConfig(layers=1, heads=1, **toy), 6, 10, 7),  # the budget ends it partway
        (ModelConfig(), 30, 100, 100),  # the width and length the benchmark times
    )
    for cfg, d, n, budget in cases:
        problem = make_problem("zdt4", d=d)  # asymmetric bounds
        parents = evaluate(random_population(problem, n, rng), problem, EvaluationBudget(n))
        model = PopulationTransformer(cfg, seed=cfg.layers)
        offspring = model.generate(parents, problem, EvaluationBudget(budget), rng,
                                   n_offspring=n)
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
        ("non-dominated sort, full and early-stopped, matches brute force", check_sorting),
        ("gradients match finite differences", check_gradients),
        ("cached decoding matches a full re-decode", check_cached_decoding),
        ("igd fixtures", check_igd),
        ("rank-sum exact-null fixture", check_ranksum),
    ]
    all_ok = True
    for name, fn in checks:
        ok = fn()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return all_ok
