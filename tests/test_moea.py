import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popformer import (
    EvaluationBudget,
    ModelConfig,
    Population,
    PopulationTransformer,
    crowding_distance,
    cso_step,
    evaluate,
    fast_nondominated_sort,
    igd,
    make_problem,
    nsga2_select,
    polynomial_mutation,
    run_cso,
    run_nsga2,
    run_nsga2_model,
    run_random_search,
    sbx_crossover,
)
from popformer import moea
from popformer.core import Problem
from popformer.errors import ConfigError, ContractViolation
from popformer.moea import (
    _dominance_matrix,
    _merit_order,
    random_offspring,
    run_generational,
    sbx_pm_offspring,
)
from popformer.selftest import brute_force_ranks
import variation_oracle
from variation_oracle import BOUND_KINDS, bounds


def make_pop(objs, cvs=None):
    objs = np.asarray(objs, dtype=float)
    cvs = np.zeros(len(objs)) if cvs is None else np.asarray(cvs, dtype=float)
    return Population(np.zeros((len(objs), 2)), objs, cvs)


def evaluated(problem, xs):
    return evaluate(Population(xs), problem, EvaluationBudget(len(xs)))


# ---------------------------------------------------------------------------
# per-front reference selection: the loop form the whole-population passes
# replace


def reference_dominance(objs, cv):
    """dom[i, j]: i is no worse than j on every objective and better on one,
    or, with any member infeasible, wins on constrained dominance."""
    le = np.ones((len(objs), len(objs)), dtype=bool)
    lt = np.zeros_like(le)
    for col in objs.T:
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    pareto = le & lt
    if not np.any(cv > 0):
        return pareto
    feas = cv == 0.0
    return (pareto & feas[:, None] & feas[None, :]) | (cv[:, None] < cv[None, :])


def reference_sort(pop):
    """Every front peeled in turn, one dominator count update per front."""
    n = len(pop)
    dom = reference_dominance(pop.f, pop.cv)
    counts = dom.sum(axis=0)
    rank = np.full(n, -1, dtype=int)
    fronts = []
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        current = remaining & (counts == 0)
        if not current.any():
            current = remaining.copy()
        idx = np.flatnonzero(current)
        rank[idx] = len(fronts)
        fronts.append(tuple(idx.tolist()))
        remaining[idx] = False
        counts = counts - dom[idx].sum(axis=0)
    return tuple(fronts), rank


def reference_crowding(front_objs):
    """One front's crowding scores, one stable argsort per objective."""
    n, m = front_objs.shape
    scores = np.zeros(n)
    for j in range(m):
        order = np.argsort(front_objs[:, j], kind="stable")
        col = front_objs[order, j]
        scores[order[[0, -1]]] = np.inf
        span = col[-1] - col[0]
        if n > 2 and span > 0:
            scores[order[1:-1]] += (col[2:] - col[:-2]) / span
    return scores


def reference_rank_and_crowding(pop, rank=None):
    """Each member's rank (brute force unless given) and its crowding score
    within its front, one front at a time."""
    rank = brute_force_ranks(pop) if rank is None else rank
    crowd = np.zeros(len(pop))
    for r in set(rank):
        idx = np.flatnonzero(rank == r)
        crowd[idx] = reference_crowding(pop.f[idx])
    return rank, crowd


def reference_merit_order(pop):
    """Member indices by (rank asc, crowding desc, index asc)."""
    rank, crowd = reference_rank_and_crowding(pop, reference_sort(pop)[1])
    return np.lexsort((np.arange(len(pop)), -crowd, rank))


# ---------------------------------------------------------------------------
# per-pair reference variation: the loop form the array operators replace


def reference_tournament(rank, crowd, rng, count):
    n = len(rank)
    picks = np.empty(count, dtype=int)
    for t in range(count):
        i, j = rng.integers(0, n, size=2)
        a = (rank[i], -crowd[i], i)
        b = (rank[j], -crowd[j], j)
        picks[t] = i if a <= b else j
    return picks


# the standard settings: distribution index 20, crossover probability 1,
# mutation probability 1/d
ETA = 20.0


def reference_sbx_crossover(a, b, rng, lower, upper):
    c1, c2 = a.copy(), b.copy()
    if rng.random() > 1.0:
        return c1, c2
    eta = ETA
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

        v1 = 0.5 * ((y1 + y2) - child(beta_l) * span)
        v2 = 0.5 * ((y1 + y2) + child(beta_u) * span)
        v1 = min(max(v1, lower[i]), upper[i])
        v2 = min(max(v2, lower[i]), upper[i])
        if swap[i]:
            v1, v2 = v2, v1
        c1[i], c2[i] = v1, v2
    return c1, c2


def reference_polynomial_mutation(x, rng, lower, upper):
    x = x.copy()
    prob = 1.0 / x.size
    eta = ETA
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


def reference_sbx_pm_offspring(parents, rng, problem):
    lower, upper = problem.spec.lower, problem.spec.upper
    rank, crowd = reference_rank_and_crowding(parents)
    n = len(parents)
    picks = reference_tournament(rank, crowd, rng, n)
    children = np.empty((n, problem.spec.d))
    for k in range(0, n - 1, 2):
        c1, c2 = reference_sbx_crossover(parents.x[picks[k]], parents.x[picks[k + 1]],
                                         rng, lower, upper)
        children[k] = reference_polynomial_mutation(c1, rng, lower, upper)
        children[k + 1] = reference_polynomial_mutation(c2, rng, lower, upper)
    if n % 2:
        children[-1] = reference_polynomial_mutation(parents.x[picks[-1]], rng,
                                                     lower, upper)
    return children


class TestSort:
    def test_single_member(self):
        part = fast_nondominated_sort(make_pop([[1.0, 1.0]]))
        assert part.fronts == ((0,),)
        assert list(part.rank) == [0]

    def test_two_front_fixture(self):
        part = fast_nondominated_sort(make_pop([[1, 2], [2, 1], [2, 2]]))
        assert part.fronts == ((0, 1), (2,))

    def test_fronts_partition_indices(self):
        rng = np.random.default_rng(0)
        pop = make_pop(rng.integers(0, 5, size=(30, 3)))
        part = fast_nondominated_sort(pop)
        flat = sorted(i for front in part.fronts for i in front)
        assert flat == list(range(30))

    @pytest.mark.parametrize("constrained", [False, True])
    def test_matches_brute_force_oracle(self, constrained):
        rng = np.random.default_rng(11 if constrained else 13)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(2, 6))
            objs = rng.integers(0, 6, size=(n, m)).astype(float)
            cvs = (rng.integers(0, 3, size=n) * 0.5) if constrained else None
            pop = make_pop(objs, cvs)
            assert np.array_equal(fast_nondominated_sort(pop).rank, brute_force_ranks(pop))

    def test_unevaluated_member_rejected(self):
        pop = Population(np.zeros((1, 2)))
        with pytest.raises(ContractViolation):
            fast_nondominated_sort(pop)


class TestCrowding:
    def test_two_members_both_infinite(self):
        scores = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(np.isinf(scores))

    def test_middle_member_hand_value(self):
        scores = crowding_distance(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
        assert scores[1] == pytest.approx(2.0)
        assert np.isinf(scores[0]) and np.isinf(scores[2])

    def test_identical_objectives_interior_zero(self):
        scores = crowding_distance(np.tile([1.0, 2.0], (5, 1)))
        finite = scores[np.isfinite(scores)]
        assert np.all(finite == 0.0)

    def test_empty_front(self):
        assert crowding_distance(np.empty((0, 2))).size == 0

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_boundaries_infinite_and_scores_invariant(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        m = data.draw(st.integers(2, 4), label="m")
        objs = np.array(data.draw(st.lists(st.lists(st.integers(0, 20), min_size=m, max_size=m),
                                           min_size=n, max_size=n), label="objs"), dtype=float)
        perm = np.array(data.draw(st.permutations(range(m)), label="perm"))
        scale = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=m, max_size=m),
                                   label="scale"))
        scores = crowding_distance(objs)
        for col in objs.T:
            # some member at each end of every objective is a boundary member
            assert np.isinf(scores[col == col.min()]).any()
            assert np.isinf(scores[col == col.max()]).any()
        for moved in (objs[:, perm], objs * scale):
            assert np.allclose(crowding_distance(moved), scores, rtol=1e-12, atol=0.0)


class TestSelect:
    def test_identity_when_n_equals_size(self):
        pop = make_pop([[1, 2], [2, 1], [0, 3], [3, 0]])
        out = pop.take(nsga2_select(pop, 4)[0])
        assert {tuple(f) for f in out.f} == {tuple(f) for f in pop.f}

    def test_two_front_split_takes_extreme_crowding(self):
        # F1 = three mutually nondominated, F2 = three dominated copies shifted
        objs = [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0],
                [2.0, 3.0], [2.5, 2.5], [3.0, 2.0]]
        pop = make_pop(objs)
        out = pop.take(nsga2_select(pop, 4)[0])
        fs = [tuple(f) for f in out.f]
        assert set(fs[:3]) == {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)}
        # fourth pick is a boundary (infinite-crowding) member of F2 with lowest index
        assert fs[3] == (2.0, 3.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pop = make_pop(rng.random((20, 2)))
        a = [tuple(f) for f in pop.take(nsga2_select(pop, 7)[0]).f]
        b = [tuple(f) for f in pop.take(nsga2_select(pop, 7)[0]).f]
        assert a == b

    def test_size_subset_and_rank_prefix_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n_pop = int(rng.integers(4, 30))
            pop = make_pop(rng.integers(0, 5, size=(n_pop, 3)))
            n = int(rng.integers(1, n_pop + 1))
            out = nsga2_select(pop, n)[0]
            assert len(out) == n
            assert len(set(out)) == n and all(0 <= i < n_pop for i in out)
            # every selected rank-k member implies all rank-(k-1) members selected
            rank = fast_nondominated_sort(pop).rank
            selected_ranks = list(rank[out])
            if selected_ranks:
                worst = max(selected_ranks)
                for r in range(worst):
                    total_r = int(np.sum(rank == r))
                    assert selected_ranks.count(r) == total_r

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_whole_fronts_then_crowding_then_index(self, data):
        n_pop = data.draw(st.integers(1, 16), label="n_pop")
        m = data.draw(st.integers(2, 3), label="m")
        objs = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=m, max_size=m),
            min_size=n_pop, max_size=n_pop), label="objs"), dtype=float)
        cvs = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]),
                                          min_size=n_pop, max_size=n_pop), label="cvs"))
        n = data.draw(st.integers(1, n_pop), label="n")
        pop = make_pop(objs, cvs)
        out = nsga2_select(pop, n)[0]
        rank, crowd = reference_rank_and_crowding(pop)
        assert len(set(out)) == n
        # whole fronts in rank order: every better-ranked member is kept
        assert np.all(np.diff(rank[out]) >= 0)
        assert set(np.flatnonzero(rank < rank[out].max())) <= set(out)
        # within a front, by crowding descending and then by index
        key = [(rank[i], -crowd[i], i) for i in range(n_pop)]
        assert [key[i] for i in out] == sorted(key)[:n]

    def test_rejects_oversized_request(self):
        with pytest.raises(ContractViolation):
            nsga2_select(make_pop([[1, 2]]), 2)

    def test_rejects_negative_request(self):
        # a negative count would slice from the end and keep len(pop) - 1
        pop = make_pop([[1, 2], [2, 1], [0, 3], [3, 0], [2, 2]])
        with pytest.raises(ContractViolation):
            nsga2_select(pop, -1)


@st.composite
def integer_populations(draw):
    """Small integer objectives, so ties and duplicate rows are common, with
    or without constraint violations."""
    n_pop = draw(st.integers(1, 24), label="n_pop")
    m = draw(st.integers(2, 4), label="m")
    objs = draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                         min_size=n_pop, max_size=n_pop), label="objs")
    cvs = draw(st.one_of(
        st.just([0.0] * n_pop),
        st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n_pop, max_size=n_pop),
    ), label="cvs")
    return make_pop(objs, cvs)


class TestMatchesPerFrontReference:
    @settings(max_examples=200, deadline=None)
    @given(integer_populations())
    def test_selection_index_for_index(self, pop):
        want = reference_merit_order(pop)
        got = _merit_order(pop, fast_nondominated_sort(pop).rank)
        assert np.array_equal(np.argsort(got), np.argsort(want))
        for n in range(len(pop) + 1):
            assert np.array_equal(nsga2_select(pop, n)[0], want[:n])

    @settings(max_examples=200, deadline=None)
    @given(integer_populations())
    def test_early_stopped_sort_agrees_with_full_sort(self, pop):
        fronts, rank = reference_sort(pop)
        full = fast_nondominated_sort(pop)
        assert full.fronts == fronts and np.array_equal(full.rank, rank)
        for n in range(len(pop) + 1):
            part = fast_nondominated_sort(pop, n)
            ranked = part.rank < len(part.fronts)
            # it stops at the first front that ranks at least n members
            assert ranked.sum() >= n
            assert sum(map(len, part.fronts[:-1])) < n or not part.fronts
            assert part.fronts == fronts[:len(part.fronts)]
            assert np.array_equal(part.rank[ranked], rank[ranked])
            assert np.all(part.rank[~ranked] == len(part.fronts))

    @settings(max_examples=200, deadline=None)
    @given(integer_populations())
    def test_dominance_and_crowding_in_one_pass(self, pop):
        assert np.array_equal(_dominance_matrix(pop.f, pop.cv),
                              reference_dominance(pop.f, pop.cv))
        _, rank = reference_sort(pop)
        assert np.array_equal(crowding_distance(pop.f, rank),
                              reference_rank_and_crowding(pop, rank)[1])


@st.composite
def pools_with_copies(draw):
    """:func:`integer_populations` followed by repeats of some members, as
    the competitive swarm's pass-through winners repeat their parents."""
    pop = draw(integer_populations())
    copies = draw(st.lists(st.integers(0, len(pop) - 1), max_size=len(pop)), label="copies")
    return pop.concat(pop.take(copies)) if copies else pop


class ConstrainedZdt1(Problem):
    """zdt1 under x0 + x1 <= 1, which about half of a uniform sample breaks."""

    def __init__(self, d):
        self.base = make_problem("zdt1", d=d)
        self.spec = self.base.spec

    def objectives(self, x):
        return self.base.objectives(x)

    def constraints(self, x):
        return x[:, :1] + x[:, 1:2] - 1.0


class TestPassedRanks:
    """The run loop hands each generation's selection ranks to the
    tournament instead of sorting the parents again."""

    @settings(max_examples=200, deadline=None)
    @given(pools_with_copies())
    def test_survivor_ranks_equal_a_fresh_sort(self, pool):
        for n in range(1, len(pool) + 1):
            selected, rank = nsga2_select(pool, n)
            assert np.array_equal(rank, fast_nondominated_sort(pool.take(selected)).rank)

    def test_ranks_of_another_length_rejected(self):
        pop = make_pop([[1, 2], [2, 1], [2, 2]])
        with pytest.raises(ContractViolation, match="2 ranks given for 3 members"):
            _merit_order(pop, np.zeros(2, dtype=int))

    @pytest.mark.parametrize("problem", [make_problem("zdt1", d=6), ConstrainedZdt1(6)],
                             ids=["zdt1", "constrained"])
    @pytest.mark.parametrize("run,operator", [
        (run_nsga2, sbx_pm_offspring), (run_cso, cso_step),
        (run_random_search, None)], ids=["nsga2", "cso", "random"])
    def test_seeded_runs_equal_runs_that_sort_again(self, problem, run, operator):
        def resorted(parents, rank, rng, budget):
            if operator is None:
                return random_offspring(parents, rng, problem)
            return operator(parents, rng, problem, fast_nondominated_sort(parents).rank)

        for seed in (0, 5):
            got = run(problem, 11, 120, seed=seed)
            want = run_generational(problem, 11, 120, resorted, seed=seed)
            assert got.log == want.log
            for a, b in ((got.population.x, want.population.x),
                         (got.population.f, want.population.f),
                         (got.population.cv, want.population.cv)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("run", [run_nsga2, run_cso, run_random_search])
    def test_one_sort_per_generation(self, monkeypatch, run):
        calls = []
        original = moea.fast_nondominated_sort
        monkeypatch.setattr(moea, "fast_nondominated_sort",
                            lambda pop, *args: calls.append(len(pop)) or original(pop, *args))
        result = run(ConstrainedZdt1(6), 10, 60, seed=0)
        # the initial population's selection, then one per generation
        assert len(calls) == 1 + len(result.log)


class TestVariation:
    LOWER = np.zeros(6)
    UPPER = np.ones(6)
    # mutation draws at or below 1/d mutate their variable, draws above it do not
    EVERY = 1.0 / 6
    NONE = np.nextafter(1.0 / 6, 1.0)

    def sbx(self, a, b, rng):
        """SBX of the rows of ``a`` and ``b`` with draws from ``rng``."""
        a, b = np.atleast_2d(a), np.atleast_2d(b)
        return sbx_crossover(a, b, rng.random((len(a), 1 + 3 * a.shape[1])),
                             self.LOWER, self.UPPER)

    def pm(self, x, mask, rng):
        """Polynomial mutation of the rows of ``x`` with draws from ``rng``,
        every mutation draw replaced by ``mask``."""
        x = np.atleast_2d(x)
        draws = rng.random((len(x), 2 * x.shape[1]))
        draws[:, :x.shape[1]] = mask
        return polynomial_mutation(x, draws, self.LOWER, self.UPPER)

    def test_sbx_identical_parents_identical_children(self):
        p = np.full(6, 0.3)
        c1, c2 = self.sbx(p, p, np.random.default_rng(0))
        assert np.array_equal(c1[0], p) and np.array_equal(c2[0], p)

    def test_sbx_reproducible_under_seed(self):
        a, b = np.full(6, 0.2), np.full(6, 0.8)
        r1 = self.sbx(a, b, np.random.default_rng(42))
        r2 = self.sbx(a, b, np.random.default_rng(42))
        assert np.array_equal(r1[0], r2[0]) and np.array_equal(r1[1], r2[1])

    def test_sbx_mean_preservation_monte_carlo(self):
        a, b = np.full((10_000, 6), 0.4), np.full((10_000, 6), 0.6)
        c1, c2 = self.sbx(a, b, np.random.default_rng(7))
        mids = (c1 + c2) / 2
        se = mids.std(axis=0) / np.sqrt(len(mids))
        assert np.all(np.abs(mids.mean(axis=0) - 0.5) <= 3 * se + 1e-12)

    def test_sbx_children_in_bounds_extreme_parents(self):
        rng = np.random.default_rng(9)
        a = rng.choice([0.0, 1.0], size=(500, 6)) * rng.random((500, 6))
        b = rng.random((500, 6))
        for c in self.sbx(a, b, rng):
            assert np.all(c >= 0.0) and np.all(c <= 1.0)

    def test_pm_zero_probability_identity(self):
        x = np.full(6, 0.3)
        out = self.pm(x, self.NONE, np.random.default_rng(0))
        assert np.array_equal(out[0], x)

    def test_pm_mutates_every_variable_drawn_at_most_one_over_d(self):
        x = np.full((50, 6), 0.3)
        out = self.pm(x, self.EVERY, np.random.default_rng(0))
        assert np.all(out != x)

    def test_pm_reproducible(self):
        x = np.full(6, 0.5)
        a = self.pm(x, self.EVERY, np.random.default_rng(5))
        b = self.pm(x, self.EVERY, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_pm_symmetric_at_midpoint_monte_carlo(self):
        x = np.full((10_000, 6), 0.5)
        deltas = self.pm(x, self.EVERY, np.random.default_rng(8)) - 0.5
        se = deltas.std(axis=0) / np.sqrt(len(deltas))
        assert np.all(np.abs(deltas.mean(axis=0)) <= 3 * se)

    def test_pm_stays_in_bounds(self):
        rng = np.random.default_rng(10)
        out = self.pm(rng.random((500, 6)), self.EVERY, rng)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 2**32 - 1), prob=st.one_of(
        # zdt4's bounds are [0, 1] for x0 and [-5, 5] elsewhere
        st.builds(lambda name, d: make_problem(name, d=d),
                  st.sampled_from(["zdt1", "zdt4"]), st.integers(2, 8)),
        # lsmop1's are [0, 1] for x0 and x1 and [0, 10] elsewhere; m=3 takes d >= 27
        st.builds(lambda d: make_problem("lsmop1", d=d, m=3), st.integers(27, 32))))
    def test_offspring_match_per_pair_reference(self, n, seed, prob):
        d = prob.spec.d
        rng = np.random.default_rng(seed)
        parents = evaluated(prob, rng.uniform(prob.spec.lower, prob.spec.upper, (n, d)))
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = sbx_pm_offspring(parents, ours, prob, fast_nondominated_sort(parents).rank).x
        want = reference_sbx_pm_offspring(parents, theirs, prob)
        span = prob.spec.upper - prob.spec.lower
        # numpy's array power and Python's scalar pow may differ in the last bit
        assert np.all(np.abs(got - want) <= 1e-12 * span)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestFlatIndexOperators:
    """The flat-index SBX and mutation against the boolean-mask oracle in
    ``tests/variation_oracle.py``: the same arithmetic, so the same bytes."""

    # "all" sets every crossing or mutation draw below its threshold, "none"
    # every one above it, and "random" keeps the uniform draws
    MODES = ("random", "none", "all")

    @staticmethod
    def blocks(k, d, kind, seed, width):
        """Two parent blocks within ``kind``'s bounds, some variables on a
        bound, and (k, width) draws as a column view of a wider block, as
        ``sbx_pm_offspring`` passes them."""
        lower, upper = bounds(kind, d)
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(lower, upper, (2, k, d))
        a[:, 1::7], b[:, 3::7] = lower[1::7], upper[3::7]
        return a, b, rng.random((k, width + d))[:, :width], lower, upper

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 12), d=st.integers(3, 40), kind=st.sampled_from(BOUND_KINDS),
           mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1))
    def test_sbx_bytes_equal_the_oracle(self, k, d, kind, mode, seed):
        a, b, draws, lower, upper = self.blocks(k, d, kind, seed, 1 + 3 * d)
        if mode == "random":
            b[:, ::5] = a[:, ::5]  # equal parent variables never cross
        else:
            draws[:, 1:1 + d] = 0.0 if mode == "all" else 1.0
        got = sbx_crossover(a, b, draws, lower, upper)
        want = variation_oracle.sbx_crossover(a, b, draws, lower, upper)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        if mode != "random":  # every variable crossed, or none did
            changed = (got[0] != a) | (got[1] != b)
            assert changed.all() if mode == "all" else not changed.any()

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 12), d=st.integers(3, 40), kind=st.sampled_from(BOUND_KINDS),
           mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1))
    def test_mutation_bytes_equal_the_oracle(self, k, d, kind, mode, seed):
        x, _, draws, lower, upper = self.blocks(k, d, kind, seed, 2 * d)
        if mode != "random":
            draws[:, :d] = 0.0 if mode == "all" else 1.0
        got = polynomial_mutation(x, draws, lower, upper)
        want = variation_oracle.polynomial_mutation(x, draws, lower, upper)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if mode == "none":
            assert got.tobytes() == x.tobytes()

    @pytest.mark.parametrize("run", [run_nsga2, run_cso])
    @pytest.mark.parametrize("name,kwargs", [("zdt1", {"d": 30}), ("lsmop1", {"d": 300, "m": 3})],
                             ids=["zdt1", "lsmop1"])
    def test_whole_runs_equal_runs_through_the_oracle(self, monkeypatch, run, name, kwargs):
        problem = make_problem(name, **kwargs)
        got = run(problem, 100, 400, seed=11)
        for op in ("sbx_crossover", "polynomial_mutation", "random_population"):
            monkeypatch.setattr(moea, op, getattr(variation_oracle, op))
        want = run(problem, 100, 400, seed=11)
        assert got.log == want.log
        assert got.population.x.tobytes() == want.population.x.tobytes()
        assert got.population.f.tobytes() == want.population.f.tobytes()


class TestCso:
    def test_identical_population_unchanged(self):
        prob = make_problem("zdt1", d=6)
        pop = evaluated(prob, np.full((6, 6), 0.5))
        out = cso_step(pop, np.random.default_rng(0), prob, fast_nondominated_sort(pop).rank)
        assert np.array_equal(out.x, pop.x)

    def test_reproducible(self):
        prob = make_problem("zdt1", d=6)
        rng = np.random.default_rng(1)
        pop = evaluated(prob, rng.random((8, 6)))
        rank = fast_nondominated_sort(pop).rank
        a = cso_step(pop, np.random.default_rng(2), prob, rank).x
        b = cso_step(pop, np.random.default_rng(2), prob, rank).x
        assert np.array_equal(a, b)

    def test_winners_keep_evaluations_losers_reset(self):
        prob = make_problem("zdt1", d=6)
        rng = np.random.default_rng(3)
        pop = evaluated(prob, rng.random((8, 6)))
        out = cso_step(pop, np.random.default_rng(4), prob, fast_nondominated_sort(pop).rank)
        n_eval = out.evaluated.sum()
        assert n_eval == 4  # half the pairs win

    def test_odd_member_passes_through(self):
        prob = make_problem("zdt1", d=6)
        rng = np.random.default_rng(5)
        pop = evaluated(prob, rng.random((5, 6)))
        out = cso_step(pop, np.random.default_rng(6), prob, fast_nondominated_sort(pop).rank)
        assert out.evaluated.sum() == 3  # 2 winners + 1 leftover

    def test_improves_zdt1_over_fifty_generations(self):
        prob = make_problem("zdt1", d=100)
        front = prob.reference_front(500)
        rng = np.random.default_rng(0)
        initial = evaluated(prob, rng.uniform(prob.spec.lower, prob.spec.upper, (50, 100)))
        start = igd(front, initial.f).value
        result = run_cso(prob, 50, 50 + 50 * 25, seed=0)  # ~50 generations of 25 losers
        end = igd(front, result.population.f).value
        assert end < start


class TestRunLoops:
    def test_budget_arithmetic_nine_generations(self):
        prob = make_problem("zdt1", d=10)
        result = run_nsga2(prob, 100, 1000, seed=0)
        assert result.evaluations == 1000
        assert len(result.log) == 9
        assert all(e["offspring_evaluated"] == 100 for e in result.log)

    def test_budget_equal_to_popsize_returns_initial(self):
        prob = make_problem("zdt1", d=10)
        result = run_nsga2(prob, 10, 10, seed=0)
        assert result.evaluations == 10
        assert len(result.log) == 0
        assert len(result.population) == 10

    def test_partial_trailing_generation(self):
        prob = make_problem("zdt1", d=10)
        result = run_nsga2(prob, 10, 25, seed=0)
        assert result.evaluations == 25
        assert result.log[-1]["partial"] is True
        assert result.log[-1]["offspring_evaluated"] == 5

    def test_seeded_runs_bitwise_identical(self):
        prob = make_problem("zdt2", d=8)
        a = run_nsga2(prob, 10, 100, seed=77)
        b = run_nsga2(prob, 10, 100, seed=77)
        assert np.array_equal(a.population.x, b.population.x)
        assert np.array_equal(a.population.f, b.population.f)

    def test_total_evaluations_exact_fuzzed(self):
        prob = make_problem("zdt1", d=6)
        rng = np.random.default_rng(0)
        for _ in range(12):
            n = int(rng.integers(1, 10)) * 2
            e = int(rng.integers(n, 6 * n))
            for runner in (run_nsga2, run_random_search):
                assert runner(prob, n, e, seed=1).evaluations == e

    def test_offspring_always_within_bounds(self):
        prob = make_problem("zdt4", d=6)  # asymmetric bounds
        rng = np.random.default_rng(2)
        pop = evaluated(prob, rng.uniform(prob.spec.lower, prob.spec.upper, (10, 6)))
        rank = fast_nondominated_sort(pop).rank
        for seed in range(5):
            off = sbx_pm_offspring(pop, np.random.default_rng(seed), prob, rank)
            xs = off.x
            assert np.all(xs >= prob.spec.lower) and np.all(xs <= prob.spec.upper)

    @pytest.mark.parametrize("runner", ["nsga2", "cso", "random", "learned"])
    @pytest.mark.parametrize("n_pop,evals", [(10, 60), (7, 50), (10, 10)])
    def test_log_accounts_for_every_evaluation(self, runner, n_pop, evals):
        prob = make_problem("zdt1", d=10)
        if runner == "learned":
            model = PopulationTransformer(
                ModelConfig(d_hat=16, m_hat=4, width=16, layers=1, heads=2, max_seq=12), seed=0)
            result = run_nsga2_model(prob, model, n_pop, evals, seed=0)
        else:
            run = {"nsga2": run_nsga2, "cso": run_cso, "random": run_random_search}[runner]
            result = run(prob, n_pop, evals, seed=0)
        assert result.evaluations == evals
        assert n_pop + sum(e["offspring_evaluated"] for e in result.log) == evals
        assert [e["evaluations"] for e in result.log] == list(np.cumsum(
            [e["offspring_evaluated"] for e in result.log]) + n_pop)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_budget_exact_for_any_size(self, data):
        n_pop = data.draw(st.integers(2, 12), label="n_pop")
        evals = data.draw(st.integers(n_pop, 60), label="evals")
        runner = data.draw(st.sampled_from([run_nsga2, run_cso, run_random_search]),
                           label="runner")
        result = runner(make_problem("zdt1", d=4), n_pop, evals, seed=0)
        assert result.evaluations == evals
        assert n_pop + sum(e["offspring_evaluated"] for e in result.log) == evals
        assert len(result.population) == n_pop

    def test_generator_that_consumes_nothing_is_rejected(self):
        prob = make_problem("zdt1", d=6)
        with pytest.raises(ContractViolation, match="consumed no evaluations"):
            run_generational(prob, 10, 100, lambda parents, rank, rng, budget: parents)

    def test_hook_entries_join_the_log(self):
        prob = make_problem("zdt1", d=6)
        seen = []

        def hook(parents, offspring, selected):
            seen.append((len(parents), len(offspring)))
            return {"offspring": len(offspring)}

        result = run_generational(
            prob, 10, 35,
            lambda parents, rank, rng, budget: sbx_pm_offspring(parents, rng, prob, rank),
            after_generation=hook)
        assert seen == [(10, 10), (10, 10), (10, 5)]
        assert [e["offspring"] for e in result.log] == [10, 10, 5]
        assert result.log[-1]["partial"] is True

    def test_cut_swarm_generation_keeps_winners_and_the_funded_losers(self):
        # N=10, E=17: each swarm step passes 5 winners through and moves 5
        # losers; the second step's budget covers its first 2 losers only
        prob = make_problem("zdt1", d=6)
        steps, seen = [], []

        def operator(parents, rank, rng, budget):
            steps.append(cso_step(parents, rng, prob, rank))
            return steps[-1]

        def hook(parents, offspring, selected):
            seen.append(offspring)
            return {}

        result = run_generational(prob, 10, 17, operator, after_generation=hook)
        step, offspring = steps[-1], seen[-1]
        winners, losers = np.flatnonzero(step.evaluated), np.flatnonzero(~step.evaluated)
        kept = np.sort(np.concatenate([winners, losers[:2]]))
        assert len(winners) == len(losers) == 5 and len(seen) == 2
        assert np.array_equal(offspring.x, step.x[kept]) and offspring.all_evaluated
        is_winner = np.isin(kept, winners)
        assert np.array_equal(offspring.f[is_winner], step.f[winners])
        assert np.array_equal(offspring.f[~is_winner], prob.evaluate_batch(step.x[losers[:2]])[0])
        assert result.evaluations == 17
        assert [e["offspring_evaluated"] for e in result.log] == [5, 2]

    def test_runner_rejects_starved_budget(self):
        prob = make_problem("zdt1", d=8)
        with pytest.raises(ContractViolation):
            run_nsga2(prob, 10, 5, seed=0)

    @pytest.mark.parametrize("runner", [run_nsga2, run_cso, run_random_search])
    @pytest.mark.parametrize("seed,named", [(-1, "seed must be >= 0, got -1"),
                                            (1.5, "seed must be an int, got 1.5")],
                             ids=["negative", "float"])
    def test_bad_seed_rejected_before_any_evaluation(self, monkeypatch, runner, seed, named):
        prob = make_problem("zdt1", d=8)
        calls = []
        original = prob.evaluate_batch
        monkeypatch.setattr(prob, "evaluate_batch", lambda x: calls.append(1) or original(x))
        with pytest.raises(ConfigError, match=f"^{named}$"):
            runner(prob, 10, 30, seed=seed)
        assert calls == []
