import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from popformer.core import Problem, ProblemSpec, aggregate_violation, require_count
from popformer.errors import ConfigError, ContractViolation, EvaluationError
from variation_oracle import BOUND_KINDS, bounds


def sol(f):
    return np.asarray(f, dtype=float)


class SquareProblem(Problem):
    def __init__(self, d=3):
        self.spec = ProblemSpec.unit_box("square", d, 2)

    def objectives(self, x):
        return np.stack([np.sum(x * x, axis=-1), np.sum((x - 1.0) ** 2, axis=-1)], axis=-1)


class NanProblem(SquareProblem):
    def objectives(self, x):
        f = super().objectives(x)
        f[..., 0] = np.nan
        return f


def assert_same_frozen_population(got, want):
    """``got`` holds read-only arrays equal to ``want``'s, NaN rows included."""
    assert got.generation_index == want.generation_index
    for a, b in ((got.x, want.x), (got.f, want.f), (got.cv, want.cv)):
        if b is None:
            assert a is None
            continue
        assert np.array_equal(a, b, equal_nan=True) and a.dtype == b.dtype
        with pytest.raises(ValueError):
            a[0] = 5.0


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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 20), d=st.integers(1, 40), kind=st.sampled_from(BOUND_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_random_population_is_rng_uniform_bit_for_bit(self, n, d, kind, seed):
        lower, upper = bounds(kind, d)
        problem = SimpleNamespace(spec=ProblemSpec("box", d, 2, lower, upper))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_population(problem, n, ours).x
        want = theirs.uniform(lower, upper, (n, d))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_zero_width_bound_rejected_at_construction(self):
        with pytest.raises(ContractViolation):
            ProblemSpec("bad", 2, 2, lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]))


class TestRequireCount:
    """core.require_count, the package's one integer rule."""

    @pytest.mark.parametrize("value,minimum", [
        (3, 1), (np.int64(3), 1), (np.int32(0), 0), (np.uint8(2), 2), (-7, None),
        (np.int64(-7), None), (2**64 - 1, 0),
    ])
    def test_counts_come_back_as_ints(self, value, minimum):
        got = require_count(value, "n", minimum=minimum)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, np.float64(2.0),
                                       "2", None, [2]])
    def test_non_ints_rejected_with_the_type_message(self, value):
        for minimum in (1, None):
            with pytest.raises(ConfigError) as exc:
                require_count(value, "n", minimum=minimum)
            assert str(exc.value) == f"n must be an int, got {value!r}"

    @pytest.mark.parametrize("value,minimum", [(0, 1), (-1, 0), (np.int64(1), 2)])
    def test_ints_below_the_minimum_rejected_with_the_range_message(self, value, minimum):
        with pytest.raises(ConfigError) as exc:
            require_count(value, "n", minimum=minimum)
        assert str(exc.value) == f"n must be >= {minimum}, got {int(value)}"

    @pytest.mark.parametrize("d,m,named", [(0, 2, "d must be >= 1, got 0"),
                                           (3, 1, "m must be >= 2, got 1"),
                                           (2.0, 2, "d must be an int, got 2.0")],
                             ids=["d-0", "m-1", "float-d"])
    def test_problem_spec_sizes(self, d, m, named):
        with pytest.raises(ConfigError, match=f"^{named}$"):
            ProblemSpec("bad", d, m, lower=np.zeros(2), upper=np.ones(2))
        spec = ProblemSpec("box", np.int64(2), np.int64(2), lower=np.zeros(2), upper=np.ones(2))
        assert spec.lower.shape == (2,)


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
        budget = EvaluationBudget(1000)
        budget.reserve(950)
        pop = random_population(prob, 100, np.random.default_rng(0))
        partial = evaluate(pop, prob, budget)
        assert partial.evaluated.sum() == 50
        assert list(partial.evaluated) == [True] * 50 + [False] * 50
        assert budget.used == 1000

    def test_zero_budget_signal_reports_zero(self):
        prob = SquareProblem()
        budget = EvaluationBudget(10)
        budget.reserve(10)
        pop = random_population(prob, 5, np.random.default_rng(0))
        assert evaluate(pop, prob, budget) is pop
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

    def test_result_equals_a_validated_construction(self):
        # evaluate builds its result unchecked from a checked population and
        # checked evaluator output; it must match the validating constructor
        prob = SquareProblem()
        x = np.random.default_rng(6).random((6, 3))
        f, cv = prob.evaluate_batch(x)
        part_f, part_cv = f.copy(), cv.copy()
        part_f[[1, 4]], part_cv[[1, 4]] = np.nan, np.nan
        for pop in (Population(x, generation_index=3), Population(x, part_f, part_cv, 3)):
            assert_same_frozen_population(evaluate(pop, prob, EvaluationBudget(10)),
                                          Population(x, f, cv, 3))
        # a budget for one of the two pending rows evaluates row 1 only
        partial = evaluate(Population(x, part_f, part_cv, 3), prob, EvaluationBudget(1))
        part_f[1], part_cv[1] = f[1], cv[1]
        assert_same_frozen_population(partial, Population(x, part_f, part_cv, 3))

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

    def test_block_that_raises_charges_nothing(self):
        class RaisesOnMarkedRow(SquareProblem):
            def objectives(self, x):
                if np.any(x[..., 0] == 0.5):
                    raise RuntimeError("evaluator crashed")
                return super().objectives(x)

        xs = np.random.default_rng(0).uniform(0.6, 1.0, (5, 3))
        xs[3, 0] = 0.5  # row 3 of 5 raises
        budget = EvaluationBudget(10)
        with pytest.raises(RuntimeError, match="evaluator crashed"):
            evaluate(Population(xs), RaisesOnMarkedRow(), budget)
        assert budget.used == 0

    @settings(max_examples=200, deadline=None)
    @given(evaluated=st.lists(st.booleans(), max_size=12), total=st.integers(1, 15),
           spent=st.integers(0, 15), seed=st.integers(0, 2**32 - 1))
    def test_budget_funds_the_first_pending_rows(self, evaluated, total, spent, seed):
        # evaluated and pending rows interleave, as a competitive-swarm step returns them
        prob = SquareProblem()
        x = np.random.default_rng(seed).random((len(evaluated), 3))
        f, cv = np.full((len(x), 2), np.nan), np.full(len(x), np.nan)
        done = np.flatnonzero(evaluated)
        f[done], cv[done] = prob.evaluate_batch(x[done])
        pop = Population(x, f, cv)
        budget = EvaluationBudget(total)
        budget.reserve(spent)
        used = budget.used
        out = evaluate(pop, prob, budget)
        pending = np.flatnonzero(~np.array(evaluated, dtype=bool))
        funded = pending[:min(total - used, len(pending))]
        assert budget.used == used + len(funded)
        assert np.array_equal(np.flatnonzero(out.evaluated & ~pop.evaluated), funded)
        want_f, want_cv = prob.evaluate_batch(x[funded])
        assert np.array_equal(out.f[funded], want_f) and np.array_equal(out.cv[funded], want_cv)
        assert np.array_equal(out.f[done], f[done]) and np.array_equal(out.cv[done], cv[done])
        assert np.array_equal(out.x, x)

    def test_out_of_bounds_row_named(self):
        xs = np.full((4, 3), 0.5)
        xs[2, 1] = 1.5
        budget = EvaluationBudget(10)
        with pytest.raises(ContractViolation, match="row 2 out of bounds"):
            evaluate(Population(xs), SquareProblem(), budget)
        assert budget.used == 0


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

    @pytest.mark.parametrize("total", [0, -3, 10.7, 0.5, True, "5"])
    def test_non_count_total_rejected_by_value(self, total):
        with pytest.raises(ContractViolation, match=f"got {total!r}"):
            EvaluationBudget(total)

    def test_numpy_int_total_accepted(self):
        budget = EvaluationBudget(np.int64(5))
        assert budget.total == 5 and type(budget.total) is int

    def test_invalid_operations_rejected(self):
        with pytest.raises(ContractViolation):
            EvaluationBudget(0)
        budget = EvaluationBudget(5)
        with pytest.raises(ContractViolation):
            budget.release(1)
        with pytest.raises(ContractViolation):
            budget.reserve(-1)

    @pytest.mark.parametrize("k", [2.5, True, -1])
    def test_non_count_reserve_and_release_rejected(self, k):
        budget = EvaluationBudget(10)
        budget.reserve(4)
        for op in (budget.reserve, budget.release):
            with pytest.raises(ContractViolation, match=f"got {k!r}"):
                op(k)
            assert budget.used == 4

    def test_zero_and_numpy_int_counts_accepted(self):
        budget = EvaluationBudget(10)
        assert budget.reserve(0) == 0 and budget.used == 0
        got = budget.reserve(np.int64(3))
        assert got == 3 and type(got) is int and budget.used == 3
        budget.release(np.int64(2))
        budget.release(0)
        assert budget.used == 1


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

    def test_take_and_concat_equal_a_validated_construction(self):
        rng = np.random.default_rng(0)
        pop = Population(rng.random((5, 3)), rng.random((5, 2)), np.zeros(5), 2)
        other = Population(rng.random((2, 3)), rng.random((2, 2)), np.ones(2), 7)
        idx = [3, 0, 3]
        cases = [
            (pop.take(idx), Population(pop.x[idx], pop.f[idx], pop.cv[idx], 2)),
            (pop.take(idx, 4), Population(pop.x[idx], pop.f[idx], pop.cv[idx], 4)),
            (pop.take(slice(1, 3)), Population(pop.x[1:3], pop.f[1:3], pop.cv[1:3], 2)),
            (Population(pop.x).take(idx), Population(pop.x[idx], generation_index=0)),
            (pop.concat(other), Population(np.concatenate([pop.x, other.x]),
                                           np.concatenate([pop.f, other.f]),
                                           np.concatenate([pop.cv, other.cv]), 2)),
        ]
        for got, want in cases:
            assert_same_frozen_population(got, want)
        with pytest.raises(ContractViolation):
            pop.concat(Population(other.x))
        with pytest.raises(ContractViolation):
            pop.take(idx, -1)

    def test_solutions_are_immutable(self):
        s = Population(np.zeros((1, 2)), np.array([[1.0, 2.0]]), np.zeros(1))
        for arr in (s.x, s.f, s.cv):
            with pytest.raises(Exception):
                arr[0] = 5.0
