import threading

import numpy as np
import pytest

from popformer import (
    EvaluationBudget,
    Population,
    constrained_dominates,
    denormalize_decision,
    dominates,
    evaluate,
    normalize_decision,
    random_population,
)
from popformer.core import Problem, ProblemSpec, aggregate_violation
from popformer.errors import BudgetExhausted, ContractViolation, EvaluationError


def sol(f):
    return np.asarray(f, dtype=float)


class SquareProblem(Problem):
    def __init__(self, d=3):
        self.spec = ProblemSpec.unit_box("square", d, 2)

    def objectives(self, x):
        return np.array([np.sum(x * x), np.sum((x - 1.0) ** 2)])


class NanProblem(SquareProblem):
    def objectives(self, x):
        return np.array([np.nan, 1.0])


class TestDominance:
    def test_strict_improvement_one_objective(self):
        assert dominates(sol([1, 2]), sol([1, 3]))

    def test_identical_vectors_never_dominate(self):
        assert not dominates(sol([1, 2]), sol([1, 2]))

    def test_mutually_nondominated(self):
        a, b = sol([1, 3]), sol([2, 2])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_unevaluated_operand_rejected(self):
        with pytest.raises(ContractViolation):
            dominates(np.full(2, np.nan), sol([1, 2]))

    def test_properties_on_random_solutions(self):
        # irreflexive, antisymmetric, transitive
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b, c = (sol(rng.integers(0, 4, size=3)) for _ in range(3))
            assert not dominates(a, a)
            if dominates(a, b):
                assert not dominates(b, a)
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestConstrainedDominance:
    def test_feasible_beats_infeasible_regardless_of_objectives(self):
        assert constrained_dominates(sol([9, 9]), 0.0, sol([1, 1]), 0.5)

    def test_smaller_violation_wins(self):
        assert constrained_dominates(sol([9, 9]), 0.2, sol([1, 1]), 0.7)

    def test_both_feasible_reduces_to_pareto(self):
        assert constrained_dominates(sol([1, 2]), 0.0, sol([1, 3]), 0.0)
        assert not constrained_dominates(sol([1, 3]), 0.0, sol([1, 2]), 0.0)

    def test_aggregate_violation_rules(self):
        assert aggregate_violation(np.array([-1.0, -2.0])) == 0.0
        assert aggregate_violation(np.array([0.5, -1.0])) == 0.5
        # equalities inside the tolerance count as satisfied
        assert aggregate_violation(np.array([]), np.array([5e-5])) == 0.0
        assert aggregate_violation(np.array([]), np.array([0.01])) == pytest.approx(0.01)


class TestNormalization:
    SPEC = ProblemSpec("box", 3, 2, lower=np.array([-5.0, 0.0, 1.0]),
                       upper=np.array([5.0, 1.0, 3.0]))

    def test_lower_maps_to_zeros(self):
        assert np.allclose(normalize_decision(self.SPEC.lower, self.SPEC), 0.0)

    def test_upper_maps_to_ones(self):
        assert np.allclose(normalize_decision(self.SPEC.upper, self.SPEC), 1.0)

    def test_midpoint(self):
        mid = (self.SPEC.lower + self.SPEC.upper) / 2
        assert np.allclose(normalize_decision(mid, self.SPEC), 0.5)

    def test_round_trip_error_tiny(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(self.SPEC.lower, self.SPEC.upper)
            back = denormalize_decision(normalize_decision(x, self.SPEC), self.SPEC)
            assert np.max(np.abs(back - x)) <= 1e-12

    def test_zero_width_bound_rejected_at_construction(self):
        with pytest.raises(ContractViolation):
            ProblemSpec("bad", 2, 2, lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]))


class TestEvaluate:
    def test_full_evaluation_consumes_population_size(self):
        prob = SquareProblem()
        budget = EvaluationBudget(1000)
        pop = random_population(prob, 100, np.random.default_rng(0))
        out = evaluate(pop, prob, budget)
        assert budget.used == 100
        assert out.all_evaluated

    def test_partial_prefix_then_signal(self):
        prob = SquareProblem()
        budget = EvaluationBudget(1000, used=950)
        pop = random_population(prob, 100, np.random.default_rng(0))
        with pytest.raises(BudgetExhausted) as exc:
            evaluate(pop, prob, budget)
        assert exc.value.performed == 50
        partial = exc.value.population
        assert partial.evaluated.sum() == 50
        assert list(partial.evaluated) == [True] * 50 + [False] * 50
        assert budget.used == 1000

    def test_zero_budget_signal_reports_zero(self):
        prob = SquareProblem()
        budget = EvaluationBudget(10, used=10)
        pop = random_population(prob, 5, np.random.default_rng(0))
        with pytest.raises(BudgetExhausted) as exc:
            evaluate(pop, prob, budget)
        assert exc.value.performed == 0
        assert budget.used == 10

    def test_empty_population_is_noop(self):
        prob = SquareProblem()
        budget = EvaluationBudget(10)
        out = evaluate(Population(np.empty((0, 3))), prob, budget)
        assert len(out) == 0 and budget.used == 0

    def test_already_evaluated_members_cost_nothing(self):
        prob = SquareProblem()
        budget = EvaluationBudget(10)
        pop = evaluate(random_population(prob, 3, np.random.default_rng(0)), prob, budget)
        again = evaluate(pop, prob, budget)
        assert budget.used == 3
        assert again is pop

    def test_deterministic(self):
        prob = SquareProblem()
        pop = random_population(prob, 4, np.random.default_rng(1))
        a = evaluate(pop, prob, EvaluationBudget(10)).f
        b = evaluate(pop, prob, EvaluationBudget(10)).f
        assert np.array_equal(a, b)

    def test_nan_objective_is_hard_error_and_budget_released(self):
        prob = NanProblem()
        budget = EvaluationBudget(10)
        pop = random_population(prob, 4, np.random.default_rng(0))
        with pytest.raises(EvaluationError):
            evaluate(pop, prob, budget)
        assert budget.used == 0

    def test_out_of_bounds_rejected(self):
        prob = SquareProblem()
        with pytest.raises(ContractViolation):
            prob.evaluate_solution(np.array([2.0, 0.0, 0.0]))


class TestBudget:
    def test_never_exceeds_total_under_random_interleavings(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            budget = EvaluationBudget(int(rng.integers(1, 40)))
            reserved = 0
            for _ in range(60):
                if rng.random() < 0.7:
                    got = budget.reserve(int(rng.integers(0, 10)))
                    reserved += got
                elif reserved > 0:
                    back = int(rng.integers(0, reserved + 1))
                    budget.release(back)
                    reserved -= back
                assert 0 <= budget.used <= budget.total
                assert budget.used == reserved

    def test_thread_hammer_respects_total(self):
        budget = EvaluationBudget(1000)
        granted = []
        lock = threading.Lock()

        def worker():
            rng = np.random.default_rng(threading.get_ident() % 2**32)
            local = 0
            for _ in range(200):
                local += budget.reserve(int(rng.integers(1, 5)))
            with lock:
                granted.append(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(granted) == budget.used <= budget.total

    def test_invalid_operations_rejected(self):
        with pytest.raises(ContractViolation):
            EvaluationBudget(0)
        budget = EvaluationBudget(5)
        with pytest.raises(ContractViolation):
            budget.release(1)
        with pytest.raises(ContractViolation):
            budget.reserve(-1)


class TestInvariants:
    def test_solution_fields_come_together(self):
        with pytest.raises(ContractViolation):
            Population(np.zeros((1, 2)), f=np.array([[1.0, 2.0]]))  # cv missing
        with pytest.raises(ContractViolation):
            Population(np.zeros((1, 2)), np.array([[1.0, 2.0]]), np.array([-0.5]))
        with pytest.raises(ContractViolation):  # one row's objectives pending, its cv not
            Population(np.zeros((2, 2)), np.array([[1.0, 2.0], [np.nan, np.nan]]),
                       np.zeros(2))

    def test_nonfinite_decision_rejected(self):
        with pytest.raises(ContractViolation):
            Population(np.array([[np.nan, 0.0]]))

    def test_population_rejects_mixed_dimensions(self):
        with pytest.raises(ContractViolation):
            Population([np.zeros(2), np.zeros(3)])

    def test_solutions_are_immutable(self):
        s = Population(np.zeros((1, 2)), np.array([[1.0, 2.0]]), np.zeros(1))
        for arr in (s.x, s.f, s.cv):
            with pytest.raises(Exception):
                arr[0] = 5.0
