import numpy as np
import pytest

from popformer import (
    ModelConfig,
    Population,
    PopulationTransformer,
    Solution,
    VariationConfig,
    crowding_distance,
    cso_step,
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
from popformer.dataset import TrajectorySink
from popformer.errors import ContractViolation
from popformer.moea import run_generational, sbx_pm_offspring
from popformer.selftest import brute_force_ranks


def make_pop(objs, cvs=None):
    objs = np.asarray(objs, dtype=float)
    cvs = np.zeros(len(objs)) if cvs is None else np.asarray(cvs, dtype=float)
    return Population(tuple(
        Solution(x=np.zeros(2), f=f, cv=c) for f, c in zip(objs, cvs)
    ))


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
        pop = Population((Solution(x=np.zeros(2)),))
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


class TestSelect:
    def test_identity_when_n_equals_size(self):
        pop = make_pop([[1, 2], [2, 1], [0, 3], [3, 0]])
        out = nsga2_select(pop, 4)
        assert {tuple(s.f) for s in out} == {tuple(s.f) for s in pop}

    def test_two_front_split_takes_extreme_crowding(self):
        # F1 = three mutually nondominated, F2 = three dominated copies shifted
        objs = [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0],
                [2.0, 3.0], [2.5, 2.5], [3.0, 2.0]]
        pop = make_pop(objs)
        out = nsga2_select(pop, 4)
        fs = [tuple(s.f) for s in out]
        assert set(fs[:3]) == {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)}
        # fourth pick is a boundary (infinite-crowding) member of F2 with lowest index
        assert fs[3] == (2.0, 3.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pop = make_pop(rng.random((20, 2)))
        a = [tuple(s.f) for s in nsga2_select(pop, 7)]
        b = [tuple(s.f) for s in nsga2_select(pop, 7)]
        assert a == b

    def test_size_subset_and_rank_prefix_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n_pop = int(rng.integers(4, 30))
            pop = make_pop(rng.integers(0, 5, size=(n_pop, 3)))
            n = int(rng.integers(1, n_pop + 1))
            out = nsga2_select(pop, n)
            assert len(out) == n
            ids_in = {id(s) for s in pop}
            assert all(id(s) in ids_in for s in out)
            # every selected rank-k member implies all rank-(k-1) members selected
            rank = fast_nondominated_sort(pop).rank
            by_id = {id(s): rank[i] for i, s in enumerate(pop.members)}
            selected_ranks = [by_id[id(s)] for s in out]
            if selected_ranks:
                worst = max(selected_ranks)
                for r in range(worst):
                    total_r = int(np.sum(rank == r))
                    assert selected_ranks.count(r) == total_r

    def test_rejects_oversized_request(self):
        with pytest.raises(ContractViolation):
            nsga2_select(make_pop([[1, 2]]), 2)


class TestVariation:
    CFG = VariationConfig()
    LOWER = np.zeros(6)
    UPPER = np.ones(6)

    def test_sbx_identical_parents_identical_children(self):
        p = np.full(6, 0.3)
        c1, c2 = sbx_crossover(p, p, self.CFG, np.random.default_rng(0), self.LOWER, self.UPPER)
        assert np.array_equal(c1, p) and np.array_equal(c2, p)

    def test_sbx_reproducible_under_seed(self):
        a, b = np.full(6, 0.2), np.full(6, 0.8)
        r1 = sbx_crossover(a, b, self.CFG, np.random.default_rng(42), self.LOWER, self.UPPER)
        r2 = sbx_crossover(a, b, self.CFG, np.random.default_rng(42), self.LOWER, self.UPPER)
        assert np.array_equal(r1[0], r2[0]) and np.array_equal(r1[1], r2[1])

    def test_sbx_mean_preservation_monte_carlo(self):
        a, b = np.full(6, 0.4), np.full(6, 0.6)
        rng = np.random.default_rng(7)
        mids = []
        for _ in range(10_000):
            c1, c2 = sbx_crossover(a, b, self.CFG, rng, self.LOWER, self.UPPER)
            mids.append((c1 + c2) / 2)
        mids = np.array(mids)
        se = mids.std(axis=0) / np.sqrt(len(mids))
        assert np.all(np.abs(mids.mean(axis=0) - 0.5) <= 3 * se + 1e-12)

    def test_sbx_children_in_bounds_extreme_parents(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a = rng.choice([0.0, 1.0], size=6) * rng.random(6)
            b = rng.random(6)
            c1, c2 = sbx_crossover(a, b, self.CFG, rng, self.LOWER, self.UPPER)
            for c in (c1, c2):
                assert np.all(c >= 0.0) and np.all(c <= 1.0)

    def test_pm_zero_probability_identity(self):
        cfg = VariationConfig(pm_prob=0.0)
        x = np.full(6, 0.3)
        out = polynomial_mutation(x, cfg, np.random.default_rng(0), self.LOWER, self.UPPER)
        assert np.array_equal(out, x)

    def test_pm_reproducible(self):
        cfg = VariationConfig(pm_prob=1.0)
        x = np.full(6, 0.5)
        a = polynomial_mutation(x, cfg, np.random.default_rng(5), self.LOWER, self.UPPER)
        b = polynomial_mutation(x, cfg, np.random.default_rng(5), self.LOWER, self.UPPER)
        assert np.array_equal(a, b)

    def test_pm_symmetric_at_midpoint_monte_carlo(self):
        cfg = VariationConfig(pm_prob=1.0)
        x = np.full(6, 0.5)
        rng = np.random.default_rng(8)
        deltas = np.array([
            polynomial_mutation(x, cfg, rng, self.LOWER, self.UPPER) - 0.5
            for _ in range(10_000)
        ])
        se = deltas.std(axis=0) / np.sqrt(len(deltas))
        assert np.all(np.abs(deltas.mean(axis=0)) <= 3 * se)

    def test_pm_stays_in_bounds(self):
        cfg = VariationConfig(pm_prob=1.0)
        rng = np.random.default_rng(10)
        for _ in range(500):
            x = rng.random(6)
            out = polynomial_mutation(x, cfg, rng, self.LOWER, self.UPPER)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestCso:
    def test_identical_population_unchanged(self):
        prob = make_problem("zdt1", d=6)
        sol = prob.evaluate_solution(np.full(6, 0.5))
        pop = Population((sol,) * 6)
        out = cso_step(pop, np.random.default_rng(0), prob)
        assert np.array_equal(out.decisions(), pop.decisions())

    def test_reproducible(self):
        prob = make_problem("zdt1", d=6)
        rng = np.random.default_rng(1)
        pop = Population(tuple(
            prob.evaluate_solution(x) for x in rng.random((8, 6))
        ))
        a = cso_step(pop, np.random.default_rng(2), prob).decisions()
        b = cso_step(pop, np.random.default_rng(2), prob).decisions()
        assert np.array_equal(a, b)

    def test_winners_keep_evaluations_losers_reset(self):
        prob = make_problem("zdt1", d=6)
        rng = np.random.default_rng(3)
        pop = Population(tuple(prob.evaluate_solution(x) for x in rng.random((8, 6))))
        out = cso_step(pop, np.random.default_rng(4), prob)
        n_eval = sum(s.evaluated for s in out)
        assert n_eval == 4  # half the pairs win

    def test_odd_member_passes_through(self):
        prob = make_problem("zdt1", d=6)
        rng = np.random.default_rng(5)
        pop = Population(tuple(prob.evaluate_solution(x) for x in rng.random((5, 6))))
        out = cso_step(pop, np.random.default_rng(6), prob)
        assert sum(s.evaluated for s in out) == 3  # 2 winners + 1 leftover

    def test_improves_zdt1_over_fifty_generations(self):
        prob = make_problem("zdt1", d=100)
        front = prob.reference_front(500)
        rng = np.random.default_rng(0)
        initial = Population(tuple(
            prob.evaluate_solution(x)
            for x in rng.uniform(prob.spec.lower, prob.spec.upper, (50, 100))
        ))
        start = igd(front, initial.objectives()).value
        result = run_cso(prob, 50, 50 + 50 * 25, seed=0)  # ~50 generations of 25 losers
        end = igd(front, result.population.objectives()).value
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
        assert np.array_equal(a.population.decisions(), b.population.decisions())
        assert np.array_equal(a.population.objectives(), b.population.objectives())

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
        pop = Population(tuple(
            prob.evaluate_solution(x)
            for x in rng.uniform(prob.spec.lower, prob.spec.upper, (10, 6))
        ))
        for seed in range(5):
            off = sbx_pm_offspring(pop, VariationConfig(), np.random.default_rng(seed), prob)
            xs = off.decisions()
            assert np.all(xs >= prob.spec.lower) and np.all(xs <= prob.spec.upper)

    def test_trajectory_sink_receives_consecutive_pairs(self):
        prob = make_problem("zdt1", d=8)
        sink = TrajectorySink()
        run_nsga2(prob, 10, 100, seed=0, sink=sink)
        # 90 offspring evals -> 9 recorded generations -> 8 consecutive pairs
        assert len(sink.pairs) == 8
        for k, pair in enumerate(sink.pairs):
            assert pair.generation == k
            assert pair.size == 10
        # successor of pair k equals parent of pair k+1
        for p1, p2 in zip(sink.pairs, sink.pairs[1:]):
            assert np.allclose(p1.x_g1.decisions(), p2.x_g.decisions())

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

    def test_generator_that_consumes_nothing_is_rejected(self):
        prob = make_problem("zdt1", d=6)
        with pytest.raises(ContractViolation, match="consumed no evaluations"):
            run_generational(prob, 10, 100, lambda parents, rng, budget: parents)

    def test_hook_entries_join_the_log(self):
        prob = make_problem("zdt1", d=6)
        seen = []

        def hook(parents, offspring):
            seen.append((len(parents), len(offspring)))
            return {"offspring": len(offspring)}

        result = run_generational(
            prob, 10, 35, lambda parents, rng, budget: sbx_pm_offspring(
                parents, VariationConfig(), rng, prob),
            after_generation=hook)
        assert seen == [(10, 10), (10, 10), (10, 5)]
        assert [e["offspring"] for e in result.log] == [10, 10, 5]
        assert result.log[-1]["partial"] is True

    def test_runner_rejects_starved_budget(self):
        prob = make_problem("zdt1", d=8)
        with pytest.raises(ContractViolation):
            run_nsga2(prob, 10, 5, seed=0)
