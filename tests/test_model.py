import numpy as np
import pytest

from popformer import (
    EvaluationBudget,
    Population,
    ProblemSpec,
    Solution,
    evaluate,
    make_problem,
    random_population,
)
from popformer.errors import (
    BudgetExhausted,
    CapacityError,
    CheckpointError,
    ConfigError,
    DataError,
    ModelOutputError,
)
from popformer.model import (
    ModelConfig,
    PopulationTransformer,
    load_checkpoint,
    save_checkpoint,
    teacher_forced_loss,
)
from popformer.nn import Tape, gradient_check
from popformer.selftest import redecode_offspring

TOY = ModelConfig(d_hat=8, m_hat=4, width=16, layers=2, heads=2, max_seq=12)


def evaluated_pop(problem, n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(problem.spec.lower, problem.spec.upper, (n, problem.spec.d))
    return Population(tuple(problem.evaluate_solution(x) for x in xs))


class TestConfig:
    def test_width_heads_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(width=10, heads=3)

    def test_layers_at_least_one(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=0)

    def test_head_mode_values(self):
        with pytest.raises(ConfigError):
            ModelConfig(head_mode="linear")
        ModelConfig(head_mode="softmax")

    def test_param_count_matches_live_model(self):
        for cfg in (TOY, ModelConfig(), ModelConfig(d_hat=32, m_hat=5, width=32,
                                                    layers=3, heads=8, max_seq=16)):
            model = PopulationTransformer(cfg, seed=0)
            assert cfg.param_count() == sum(p.data.size for p in model.parameters())

    def test_json_round_trip(self):
        cfg = ModelConfig(d_hat=32, width=32, heads=4)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_json('{"banana": 3}')


class TestEmbedding:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=0)
        self.problem = make_problem("shift", d=6, m=3)

    def test_zero_vector_embeds_to_zero_row(self):
        # normalized zeros + zero padding -> zero projection
        pop = Population((Solution(x=np.zeros(6), f=np.array([1.0, 2.0, 3.0]), cv=0.0),
                          Solution(x=np.full(6, 0.5), f=np.array([3.0, 2.0, 1.0]), cv=0.0)))
        rows = self.model.embed_decisions(pop, self.problem.spec).data
        assert np.array_equal(rows[0], np.zeros(TOY.width))
        assert not np.array_equal(rows[1], np.zeros(TOY.width))

    def test_output_shape(self):
        pop = evaluated_pop(self.problem, 5)
        assert self.model.embed(pop, self.problem.spec).shape == (5, TOY.width)

    def test_identical_solutions_identical_rows(self):
        s = self.problem.evaluate_solution(np.full(6, 0.25))
        pop = Population((s, s, s))
        rows = self.model.embed(pop, self.problem.spec).data
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[1], rows[2])

    def test_equal_objectives_normalize_to_half(self):
        s = self.problem.evaluate_solution(np.full(6, 0.25))
        pop = Population((s, s))
        rows = self.model.embed_objectives(pop).data
        # all-equal objectives -> all rows are 0.5 * (sum of first m embedding rows)
        want = 0.5 * self.model.e_obj.data[:3].sum(axis=0)
        assert np.allclose(rows, want)

    def test_sum_decomposition(self):
        pop = evaluated_pop(self.problem, 4)
        z = self.model.embed(pop, self.problem.spec).data
        d0 = self.model.embed_decisions(pop, self.problem.spec).data
        o0 = self.model.embed_objectives(pop).data
        assert np.allclose(z, d0 + o0)

    def test_permutation_equivariance(self):
        pop = evaluated_pop(self.problem, 5)
        z = self.model.embed(pop, self.problem.spec).data
        perm = [3, 1, 4, 0, 2]
        # per-generation objective normalization is permutation invariant
        permuted = Population(tuple(pop.members[i] for i in perm))
        zp = self.model.embed(permuted, self.problem.spec).data
        assert np.allclose(zp, z[perm])

    def test_capacity_errors(self):
        big_d = make_problem("shift", d=TOY.d_hat + 1, m=2)
        with pytest.raises(CapacityError):
            self.model.embed(evaluated_pop(big_d, 2), big_d.spec)
        wide_m = make_problem("shift", d=4, m=TOY.m_hat + 1)
        with pytest.raises(CapacityError):
            self.model.embed(evaluated_pop(wide_m, 2), wide_m.spec)
        with pytest.raises(CapacityError):
            self.model.embed(evaluated_pop(self.problem, TOY.max_seq + 1), self.problem.spec)


class TestEncoder:
    def test_zeroed_blocks_make_identity(self):
        model = PopulationTransformer(TOY, seed=0)
        for name, p in model.named_parameters():
            if name.startswith("encoder") and not name.endswith("gain"):
                p.data = np.zeros_like(p.data)
            if name.startswith("encoder") and name.endswith("gain"):
                p.data = np.ones_like(p.data)
        # zero attention/MLP weights leave only the residual paths
        problem = make_problem("shift", d=6, m=3)
        z = model.embed(evaluated_pop(problem, 4), problem.spec)
        out = model.encode(z)
        assert np.allclose(out.data, z.data)

    def test_every_row_influences_every_output(self):
        model = PopulationTransformer(TOY, seed=1)
        problem = make_problem("shift", d=6, m=3)
        pop = evaluated_pop(problem, 5)
        base = model.encode(model.embed(pop, problem.spec)).data
        for j in range(5):
            members = list(pop.members)
            members[j] = problem.evaluate_solution(np.full(6, 0.987))
            z = model.embed(Population(tuple(members)), problem.spec)
            pert = model.encode(z).data
            assert not np.allclose(pert, base)  # no causal mask in the encoder

    def test_layer_outputs_length(self):
        model = PopulationTransformer(TOY, seed=0)
        problem = make_problem("shift", d=6, m=3)
        outs = model.encode_layers(model.embed(evaluated_pop(problem, 3), problem.spec))
        assert len(outs) == TOY.layers


class TestDecoding:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=2)
        self.problem = make_problem("zdt4", d=6)  # asymmetric bounds
        self.parents = evaluated_pop(self.problem, 6)
        self.encoded = self.model.encode_parents(self.parents, self.problem.spec)

    def test_output_length_and_bounds(self):
        ctx = evaluated_pop(self.problem, 3, seed=5)
        x = self.model.decode_step(ctx, self.encoded, self.problem.spec)
        assert x.shape == (6,)
        assert np.all(x >= self.problem.spec.lower) and np.all(x <= self.problem.spec.upper)

    def test_appending_context_does_not_change_earlier_positions(self):
        ctx = evaluated_pop(self.problem, 4, seed=6)
        spec = self.problem.spec
        frame = (self.encoded.obj_low, self.encoded.obj_span)
        y_small = self.model.decode(
            self.model.embed(ctx, spec, frame=frame), self.encoded.memories)
        extra = self.problem.evaluate_solution(
            np.random.default_rng(8).uniform(spec.lower, spec.upper))
        bigger = Population(ctx.members + (extra,))
        y_big = self.model.decode(
            self.model.embed(bigger, spec, frame=frame), self.encoded.memories)
        assert np.array_equal(y_big.data[: len(ctx)], y_small.data)

    def test_deterministic(self):
        ctx = evaluated_pop(self.problem, 3, seed=7)
        a = self.model.decode_step(ctx, self.encoded, self.problem.spec)
        b = self.model.decode_step(ctx, self.encoded, self.problem.spec)
        assert np.array_equal(a, b)

    def test_decode_rejects_empty_context(self):
        with pytest.raises(DataError):
            self.model.decode_step(Population(()), self.encoded, self.problem.spec)


class TestGenerate:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=3)
        self.problem = make_problem("zdt1", d=6)
        self.parents = evaluated_pop(self.problem, 8)

    def test_exact_budget_consumption(self):
        budget = EvaluationBudget(100)
        rng = np.random.default_rng(0)
        result = self.model.generate(self.parents, self.problem, budget, rng, n_offspring=8)
        assert len(result) == 8
        assert budget.used == 8

    def test_short_generation_on_small_budget(self):
        budget = EvaluationBudget(5)
        rng = np.random.default_rng(0)
        result = self.model.generate(self.parents, self.problem, budget, rng, n_offspring=8)
        assert len(result) == 5
        assert budget.used == 5

    def test_zero_budget_signal(self):
        budget = EvaluationBudget(10, used=10)
        with pytest.raises(BudgetExhausted) as exc:
            self.model.generate(self.parents, self.problem, budget,
                                np.random.default_rng(0), n_offspring=8)
        assert exc.value.performed == 0

    def test_offspring_evaluated_and_in_bounds(self):
        budget = EvaluationBudget(50)
        result = self.model.generate(self.parents, self.problem, budget,
                                     np.random.default_rng(1), n_offspring=8)
        assert result.all_evaluated
        xs = result.decisions()
        assert np.all(xs >= self.problem.spec.lower) and np.all(xs <= self.problem.spec.upper)

    def test_reproducible_under_seed(self):
        a = self.model.generate(self.parents, self.problem, EvaluationBudget(20),
                                np.random.default_rng(9), n_offspring=6)
        b = self.model.generate(self.parents, self.problem, EvaluationBudget(20),
                                np.random.default_rng(9), n_offspring=6)
        assert np.array_equal(a.decisions(), b.decisions())


class TestCachedDecoding:
    """Cached ``generate`` against one full ``decode`` of the generated prefix."""

    @pytest.mark.parametrize("layers,heads,head_mode,budget", [
        (1, 1, "logistic", 20),
        (1, 4, "logistic", 20),
        (3, 1, "logistic", 20),
        (3, 4, "logistic", 20),
        (2, 4, "softmax", 20),
        (3, 4, "logistic", 7),  # the budget ends the generation partway
    ])
    def test_offspring_match_full_redecode(self, layers, heads, head_mode, budget):
        cfg = ModelConfig(d_hat=8, m_hat=4, width=16, layers=layers, heads=heads,
                          max_seq=12, head_mode=head_mode)
        model = PopulationTransformer(cfg, seed=layers + heads)
        problem = make_problem("zdt4", d=6)  # asymmetric bounds
        parents = evaluated_pop(problem, 10, seed=heads)
        offspring = model.generate(parents, problem, EvaluationBudget(budget),
                                   np.random.default_rng(layers), n_offspring=10)
        assert len(offspring) == min(budget, 10)
        want = redecode_offspring(model, parents, offspring, problem.spec)
        assert np.abs(offspring.decisions()[1:] - want).max() <= 1e-12

    def test_non_finite_output_names_generation_and_step(self):
        model = PopulationTransformer(TOY, seed=3)
        model.head.b.data[0] = np.nan
        problem = make_problem("zdt1", d=6)
        parents = Population(evaluated_pop(problem, 8).members, 4)
        budget = EvaluationBudget(20)
        with pytest.raises(ModelOutputError, match="generation 5, decode step 1") as exc:
            model.generate(parents, problem, budget, np.random.default_rng(0))
        assert (exc.value.generation, exc.value.step) == (5, 1)
        assert budget.used == 1  # only the initialization token was evaluated


class TestTeacherForcing:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=4)
        self.problem = make_problem("shift", d=6, m=2)
        self.parents = evaluated_pop(self.problem, 6, seed=1)
        self.targets = evaluated_pop(self.problem, 6, seed=2)

    def test_loss_zero_iff_predictions_equal_targets(self):
        # the loss is a masked MSE: feeding the model's own predictions back
        # as the comparison matrix must give exactly zero
        spec = self.problem.spec
        with Tape() as tape:
            loss = self.model.forced_loss(self.parents, self.targets, spec)
        tape.backward(loss)
        assert loss.item() > 0.0
        # structural zero: identical prediction/target matrices
        from popformer.nn import const, mul, scale, sub, sum_all
        pred = const(np.random.default_rng(0).random((5, TOY.d_hat)))
        diff = sub(pred, pred)
        assert sum_all(mul(diff, diff)).item() == 0.0

    def test_gradients_fill_all_parameters(self):
        loss = teacher_forced_loss(self.model, self.parents, self.targets,
                                   self.problem.spec)
        assert np.isfinite(loss)
        assert all(p.grad is not None for p in self.model.parameters())

    def test_loss_ignores_padded_head_columns(self):
        spec = self.problem.spec
        base = teacher_forced_loss(self.model, self.parents, self.targets, spec)
        # rewire head columns beyond d; the masked loss must not move
        self.model.head.w.data[:, spec.d:] += 123.0
        self.model.head.b.data[spec.d:] -= 7.0
        again = teacher_forced_loss(self.model, self.parents, self.targets, spec)
        assert again == base

    def test_causality_exact(self):
        spec = self.problem.spec
        model = self.model
        encoded = model.encode_parents(self.parents, spec)
        frame = (encoded.obj_low, encoded.obj_span)

        def predictions(targets):
            ctx = Population(targets.members[:-1])
            y = model.decode(model.embed(ctx, spec, frame=frame), encoded.memories)
            return model.head_activations(y).data

        base = predictions(self.targets)
        for j in range(2, len(self.targets)):
            members = list(self.targets.members)
            members[j] = self.problem.evaluate_solution(
                np.clip(members[j].x + 0.31, 0, 1))
            pert = predictions(Population(tuple(members)))
            # outputs at positions strictly before j are bitwise unchanged
            assert np.array_equal(base[:j - 1], pert[:j - 1])

    def test_dimension_mismatch_rejected(self):
        other = make_problem("shift", d=5, m=2)
        bad = evaluated_pop(other, 6, seed=3)
        with pytest.raises(DataError):
            teacher_forced_loss(self.model, self.parents, bad, self.problem.spec)

    def test_target_too_short_rejected(self):
        single = Population(self.targets.members[:1])
        with pytest.raises(DataError):
            teacher_forced_loss(self.model, self.parents, single, self.problem.spec)


class TestCapacityPolymorphism:
    def test_one_model_many_problem_shapes(self):
        cfg = ModelConfig(d_hat=64, m_hat=10, width=32, layers=2, heads=4, max_seq=16)
        model = PopulationTransformer(cfg, seed=0)
        rng = np.random.default_rng(0)
        for d, m in ((8, 2), (32, 3), (64, 10)):
            problem = make_problem("shift", d=d, m=m)
            parents = evaluated_pop(problem, 6, seed=d)
            budget = EvaluationBudget(12)
            result = model.generate(parents, problem, budget, rng, n_offspring=6)
            assert len(result) == 6
            targets = evaluated_pop(problem, 6, seed=d + 1)
            model.zero_grad()
            loss = teacher_forced_loss(model, parents, targets, problem.spec)
            assert np.isfinite(loss)


class TestFullModelGradient:
    def test_finite_difference_check_toy_config(self):
        cfg = ModelConfig(d_hat=8, m_hat=4, width=16, layers=2, heads=2, max_seq=8)
        model = PopulationTransformer(cfg, seed=1)
        problem = make_problem("shift", d=6, m=3)
        parents = evaluated_pop(problem, 4, seed=2)
        targets = evaluated_pop(problem, 4, seed=3)

        def loss():
            return model.forced_loss(parents, targets, problem.spec)

        report = gradient_check(loss, model.parameters(), max_entries=4, seed=0)
        assert report["max_rel_err"] <= 1e-4


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        model = PopulationTransformer(TOY, seed=5)
        p1 = tmp_path / "a.petm"
        p2 = tmp_path / "b.petm"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(a.data, b.data)

    def test_truncated_file_rejected(self, tmp_path):
        model = PopulationTransformer(TOY, seed=6)
        path = tmp_path / "model.petm"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = PopulationTransformer(TOY, seed=6)
        path = tmp_path / "model.petm"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_finite_weight_rejected_by_name(self, tmp_path):
        model = PopulationTransformer(TOY, seed=6)
        model.head.w.data[0, 0] = np.nan
        path = tmp_path / "model.petm"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="parameter head.w has non-finite"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.petm"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_config_mismatch_rejected(self, tmp_path):
        model = PopulationTransformer(TOY, seed=7)
        path = tmp_path / "model.petm"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_config=ModelConfig())
        # matching request passes
        load_checkpoint(path, expect_config=TOY)
