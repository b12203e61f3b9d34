import json
import struct
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from popformer import (
    EvaluationBudget,
    Population,
    ProblemSpec,
    evaluate,
    make_problem,
    random_population,
)
from popformer.errors import (
    CapacityError,
    CheckpointError,
    ConfigError,
    ContractViolation,
    DataError,
    ModelOutputError,
)
from popformer.model import (
    CHECKPOINT_VERSION,
    DecoderCache,
    ModelConfig,
    PopulationTransformer,
    load_checkpoint,
    save_checkpoint,
    teacher_forced_loss,
)
from popformer.nn import Adam, Tape, gradient_check
from popformer.pipeline import train_step
from popformer.selftest import redecode_offspring

TOY = ModelConfig(d_hat=8, m_hat=4, width=16, layers=2, heads=2, max_seq=12)


def evaluated(problem, xs, gen=0):
    return evaluate(Population(xs, generation_index=gen), problem, EvaluationBudget(len(xs)))


def evaluated_pop(problem, n, seed=0, gen=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(problem.spec.lower, problem.spec.upper, (n, problem.spec.d))
    return evaluated(problem, xs, gen)


class TestConfig:
    def test_width_heads_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(width=10, heads=3)

    def test_layers_at_least_one(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=0)

    @pytest.mark.parametrize("field", ["d_hat", "m_hat", "width", "layers", "heads",
                                       "max_seq"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_field_below_one_named(self, field, value):
        # every field is checked before width % heads, so heads=0 divides nothing
        with pytest.raises(ConfigError, match=f"^{field} must be >= 1, got {value}$"):
            ModelConfig(**{field: value})

    def test_numpy_int_fields_save_a_byte_identical_checkpoint(self, tmp_path):
        cfg = ModelConfig(**{k: np.int64(v) for k, v in asdict(TOY).items()})
        assert cfg == TOY and cfg.to_json() == TOY.to_json()
        paths = [tmp_path / "np.petm", tmp_path / "int.petm"]
        for config, path in zip((cfg, TOY), paths):
            save_checkpoint(PopulationTransformer(config, seed=5), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("seed,named", [(-1, "seed must be >= 0, got -1"),
                                            (0.5, "seed must be an int, got 0.5")],
                             ids=["negative", "float"])
    def test_bad_model_seed_named(self, seed, named):
        with pytest.raises(ConfigError, match=f"^{named}$"):
            PopulationTransformer(TOY, seed=seed)

    def test_json_round_trip(self):
        cfg = ModelConfig(d_hat=32, width=32, heads=4)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_json('{"banana": 3}')

    @pytest.mark.parametrize("text", ['{"heads": "2"}', '{"layers": 1.5}',
                                      '{"width": true}', '[1, 2]'])
    def test_json_rejects_non_int_capacity(self, text):
        with pytest.raises(ConfigError):
            ModelConfig.from_json(text)


class TestEmbedding:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=0)
        self.problem = make_problem("shift", d=6, m=3)

    def test_zero_vector_embeds_to_zero_row(self):
        # normalized zeros + zero padding -> zero projection, for the decisions
        # and for objectives at the frame's low
        x = np.array([np.zeros(6), np.full(6, 0.5)])
        f = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        frame = (f[0], np.ones(3))
        rows = self.model.embed(x, f, self.problem.spec, frame=frame).data
        assert np.array_equal(rows[0], np.zeros(TOY.width))
        assert not np.array_equal(rows[1], np.zeros(TOY.width))

    def test_output_shape(self):
        pop = evaluated_pop(self.problem, 5)
        assert self.model.embed(pop.x, pop.f, self.problem.spec).shape == (5, TOY.width)

    def test_identical_solutions_identical_rows(self):
        pop = evaluated(self.problem, np.full((3, 6), 0.25))
        rows = self.model.embed(pop.x, pop.f, self.problem.spec).data
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[1], rows[2])

    def test_equal_objectives_normalize_to_half(self):
        pop = evaluated(self.problem, np.zeros((2, 6)))  # zero decisions embed to zero
        rows = self.model.embed(pop.x, pop.f, self.problem.spec).data
        # all-equal objectives -> all rows are 0.5 * (sum of first m embedding rows)
        want = 0.5 * self.model.e_obj.data[:3].sum(axis=0)
        assert np.allclose(rows, want)

    def test_sum_decomposition(self):
        pop = evaluated_pop(self.problem, 4)
        z = self.model.embed(pop.x, pop.f, self.problem.spec).data
        d0 = np.zeros((4, TOY.d_hat))
        d0[:, :6] = pop.x  # the shift family lives in the unit box
        o0 = np.zeros((4, TOY.m_hat))
        o0[:, :3] = (pop.f - pop.f.min(axis=0)) / (pop.f.max(axis=0) - pop.f.min(axis=0))
        assert np.allclose(z, d0 @ self.model.e_dim.data + o0 @ self.model.e_obj.data)

    def test_permutation_equivariance(self):
        pop = evaluated_pop(self.problem, 5)
        z = self.model.embed(pop.x, pop.f, self.problem.spec).data
        perm = [3, 1, 4, 0, 2]
        # per-generation objective normalization is permutation invariant
        zp = self.model.embed(pop.x[perm], pop.f[perm], self.problem.spec).data
        assert np.allclose(zp, z[perm])

    def test_capacity_errors(self):
        def embed(problem, n):
            pop = evaluated_pop(problem, n)
            return self.model.embed(pop.x, pop.f, problem.spec)

        with pytest.raises(CapacityError):
            embed(make_problem("shift", d=TOY.d_hat + 1, m=2), 2)
        with pytest.raises(CapacityError):
            embed(make_problem("shift", d=4, m=TOY.m_hat + 1), 2)
        with pytest.raises(CapacityError):
            embed(self.problem, TOY.max_seq + 1)


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
        pop = evaluated_pop(problem, 4)
        z = model.embed(pop.x, pop.f, problem.spec)
        out = model.encode_layers(z)[-1]
        assert np.allclose(out.data, z.data)

    def test_every_row_influences_every_output(self):
        model = PopulationTransformer(TOY, seed=1)
        problem = make_problem("shift", d=6, m=3)
        pop = evaluated_pop(problem, 5)
        base = model.encode_layers(model.embed(pop.x, pop.f, problem.spec))[-1].data
        for j in range(5):
            x = pop.x.copy()
            x[j] = 0.987
            other = evaluated(problem, x)
            z = model.embed(other.x, other.f, problem.spec)
            pert = model.encode_layers(z)[-1].data
            assert not np.allclose(pert, base)  # no causal mask in the encoder

    def test_layer_outputs_length(self):
        model = PopulationTransformer(TOY, seed=0)
        problem = make_problem("shift", d=6, m=3)
        pop = evaluated_pop(problem, 3)
        outs = model.encode_layers(model.embed(pop.x, pop.f, problem.spec))
        assert len(outs) == TOY.layers


class TestDecoding:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=2)
        self.problem = make_problem("zdt4", d=6)  # asymmetric bounds
        self.parents = evaluated_pop(self.problem, 6)
        self.encoded = self.model.encode_parents(self.parents, self.problem.spec)

    def test_output_length_and_bounds(self):
        offspring = self.model.generate(self.parents, self.problem, EvaluationBudget(4),
                                        np.random.default_rng(5), n_offspring=4)
        x = offspring.x
        assert x.shape == (4, 6)
        assert np.all(x >= self.problem.spec.lower) and np.all(x <= self.problem.spec.upper)

    def test_appending_context_does_not_change_earlier_positions(self):
        ctx = evaluated_pop(self.problem, 4, seed=6)
        spec = self.problem.spec
        frame = (self.encoded.obj_low, self.encoded.obj_span)
        y_small = self.model.decode(
            self.model.embed(ctx.x, ctx.f, spec, frame=frame), self.encoded.memories)
        extra = evaluated(self.problem,
                          np.random.default_rng(8).uniform(spec.lower, spec.upper, (1, 6)))
        bigger = ctx.concat(extra)
        y_big = self.model.decode(
            self.model.embed(bigger.x, bigger.f, spec, frame=frame), self.encoded.memories)
        assert np.array_equal(y_big.data[: len(ctx)], y_small.data)

    def test_deterministic(self):
        a, b = (self.model.generate(self.parents, self.problem, EvaluationBudget(4),
                                    np.random.default_rng(7), n_offspring=4).x
                for _ in range(2))
        assert np.array_equal(a, b)


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
        budget = EvaluationBudget(10)
        budget.reserve(10)
        result = self.model.generate(self.parents, self.problem, budget,
                                     np.random.default_rng(0), n_offspring=8)
        assert len(result) == 0 and result.generation_index == 1
        assert budget.used == 10

    @pytest.mark.parametrize("n_offspring", [0, -3, 2.5, True])
    def test_non_count_offspring_size_rejected_by_value(self, n_offspring):
        budget = EvaluationBudget(100)
        with pytest.raises(ContractViolation, match=f"n_offspring .* got {n_offspring!r}"):
            self.model.generate(self.parents, self.problem, budget,
                                np.random.default_rng(0), n_offspring=n_offspring)
        assert budget.used == 0

    @pytest.mark.parametrize("n_offspring,size", [(None, 8), (np.int64(5), 5)])
    def test_offspring_size_default_and_numpy_int(self, n_offspring, size):
        budget = EvaluationBudget(100)
        result = self.model.generate(self.parents, self.problem, budget,
                                     np.random.default_rng(0), n_offspring=n_offspring)
        assert len(result) == size and budget.used == size

    def test_more_offspring_than_capacity_rejected(self):
        budget = EvaluationBudget(100)
        with pytest.raises(CapacityError, match="50 offspring exceed model capacity 12"):
            self.model.generate(self.parents, self.problem, budget,
                                np.random.default_rng(0), n_offspring=50)
        assert budget.used == 0

    def test_unevaluated_parents_rejected_before_any_evaluation(self):
        budget = EvaluationBudget(100)
        with pytest.raises(DataError, match="evaluated parent population"):
            self.model.generate(Population(self.parents.x), self.problem, budget,
                                np.random.default_rng(0))
        assert budget.used == 0

    def test_offspring_evaluated_and_in_bounds(self):
        budget = EvaluationBudget(50)
        result = self.model.generate(self.parents, self.problem, budget,
                                     np.random.default_rng(1), n_offspring=8)
        assert result.all_evaluated
        xs = result.x
        assert np.all(xs >= self.problem.spec.lower) and np.all(xs <= self.problem.spec.upper)

    def test_reproducible_under_seed(self):
        a = self.model.generate(self.parents, self.problem, EvaluationBudget(20),
                                np.random.default_rng(9), n_offspring=6)
        b = self.model.generate(self.parents, self.problem, EvaluationBudget(20),
                                np.random.default_rng(9), n_offspring=6)
        assert np.array_equal(a.x, b.x)


class TestCachedDecoding:
    """Cached ``generate`` against one full ``decode`` of the generated prefix."""

    # ids: layers-heads-head-budget
    @pytest.mark.parametrize("layers,heads,budget", [
        pytest.param(1, 1, 20, id="1-1-logistic-20"),
        pytest.param(1, 4, 20, id="1-4-logistic-20"),
        pytest.param(3, 1, 20, id="3-1-logistic-20"),
        pytest.param(3, 4, 20, id="3-4-logistic-20"),
        # the budget ends the generation partway
        pytest.param(3, 4, 7, id="3-4-logistic-7"),
    ])
    def test_offspring_match_full_redecode(self, layers, heads, budget):
        cfg = ModelConfig(d_hat=8, m_hat=4, width=16, layers=layers, heads=heads,
                          max_seq=12)
        model = PopulationTransformer(cfg, seed=layers + heads)
        problem = make_problem("zdt4", d=6)  # asymmetric bounds
        parents = evaluated_pop(problem, 10, seed=heads)
        offspring = model.generate(parents, problem, EvaluationBudget(budget),
                                   np.random.default_rng(layers), n_offspring=10)
        assert len(offspring) == min(budget, 10)
        want = redecode_offspring(model, parents, offspring, problem.spec)
        assert np.abs(offspring.x[1:] - want).max() <= 1e-12

    def test_non_finite_output_names_generation_and_step(self):
        model = PopulationTransformer(TOY, seed=3)
        model.head.b.data[0] = np.nan
        problem = make_problem("zdt1", d=6)
        parents = evaluated_pop(problem, 8, gen=4)
        budget = EvaluationBudget(20)
        with pytest.raises(ModelOutputError, match="generation 5, decode step 1") as exc:
            model.generate(parents, problem, budget, np.random.default_rng(0))
        assert (exc.value.generation, exc.value.step) == (5, 1)
        assert budget.used == 1  # only the initialization token was evaluated

    def test_non_finite_decoder_activation_names_generation_and_step(self):
        model = PopulationTransformer(TOY, seed=3)
        model.decoder[0].self_attn.q.w.data[0, 0] = np.inf
        problem = make_problem("zdt1", d=6)
        parents = evaluated_pop(problem, 8, gen=4)
        budget = EvaluationBudget(20)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ModelOutputError, match="generation 5, decode step 1"):
            model.generate(parents, problem, budget, np.random.default_rng(0))
        assert budget.used == 1

    def test_online_update_reaches_the_next_generation(self, tmp_path):
        model = PopulationTransformer(TOY, seed=3)
        problem = make_problem("zdt1", d=6)
        parents = evaluated_pop(problem, 8)

        def offspring(m, seed):
            return m.generate(parents, problem, EvaluationBudget(8), np.random.default_rng(seed)).x

        before = offspring(model, 1)
        first = model.generate(parents, problem, EvaluationBudget(8), np.random.default_rng(0))
        train_step(model, Adam(model.parameters(), lr=1e-2), [(parents, first)], problem.spec)
        after = offspring(model, 1)
        path = tmp_path / "updated.petm"
        save_checkpoint(model, path)
        assert np.array_equal(after, offspring(load_checkpoint(path), 1))
        assert not np.array_equal(after[1:], before[1:])  # the update moved the offspring


class TestTapeFreeInference:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=3)
        self.problem = make_problem("zdt1", d=6)
        self.parents = evaluated_pop(self.problem, 8)

    def test_generate_records_nothing_on_an_active_tape(self):
        with Tape() as tape:
            offspring = self.model.generate(self.parents, self.problem, EvaluationBudget(20),
                                            np.random.default_rng(0), n_offspring=8)
        assert len(offspring) == 8
        assert len(tape) == 0
        assert all(p.grad is None for p in self.model.parameters())

    def test_embed_next_is_a_framed_one_row_embed(self):
        spec = self.problem.spec
        cache = DecoderCache(self.model, self.model.encode_parents(self.parents, spec), 4)
        x, f = self.parents.x, self.parents.f * 3.0  # objectives beyond the frame clip
        for i in range(3):  # rows reuse the cache's buffers
            want = self.model.embed(x[i:i + 1], f[i:i + 1], spec, cache.frame, tape=False)
            assert np.array_equal(self.model.embed_next(x[i], f[i], spec, cache), want[0])

    def test_decoder_cache_holds_only_arrays(self):
        encoded = self.model.encode_parents(self.parents, self.problem.spec)
        cache = DecoderCache(self.model, encoded, 4)
        z = self.model.embed_next(self.parents.x[0], self.parents.f[0], self.problem.spec,
                                  cache)
        row = self.model.decode_next(z, cache)
        assert type(row) is np.ndarray and row.shape == (TOY.width,)
        held = [*encoded.memories, *cache.frame, *cache.keys, *cache.values,
                cache.decisions, cache.objectives,
                *(a for pair in cache.cross + cache.qkv for a in pair)]
        assert len(held) == 4 + 7 * TOY.layers
        assert all(type(a) is np.ndarray for a in held)


class TestTeacherForcing:
    def setup_method(self):
        self.model = PopulationTransformer(TOY, seed=4)
        self.problem = make_problem("shift", d=6, m=2)
        self.parents = evaluated_pop(self.problem, 6, seed=1)
        self.targets = evaluated_pop(self.problem, 6, seed=2)

    def test_loss_zero_iff_predictions_equal_targets(self):
        # the loss is an MSE: feeding the model's own predictions back
        # as the comparison matrix must give exactly zero
        spec = self.problem.spec
        with Tape() as tape:
            loss = self.model.forced_loss([(self.parents, self.targets)], spec)
        tape.backward(loss)
        assert loss.item() > 0.0
        # structural zero: identical prediction/target matrices
        from popformer.nn import const, mul, scale, sub, sum_all
        pred = const(np.random.default_rng(0).random((5, TOY.d_hat)))
        diff = sub(pred, pred)
        assert sum_all(mul(diff, diff)).item() == 0.0

    def test_gradients_fill_all_parameters(self):
        loss = teacher_forced_loss(self.model, [(self.parents, self.targets)],
                                   self.problem.spec)
        assert np.isfinite(loss)
        assert all(p.grad is not None for p in self.model.parameters())

    def test_loss_ignores_padded_head_columns(self):
        spec = self.problem.spec
        base = teacher_forced_loss(self.model, [(self.parents, self.targets)], spec)
        # rewire head columns beyond d; the loss must not move
        self.model.head.w.data[:, spec.d:] += 123.0
        self.model.head.b.data[spec.d:] -= 7.0
        again = teacher_forced_loss(self.model, [(self.parents, self.targets)], spec)
        assert again == base

    def test_padded_head_columns_get_exactly_zero_gradients(self):
        # the goal's padded columns are the prediction itself, so their
        # error, and every gradient through them, is exactly 0
        spec = self.problem.spec
        teacher_forced_loss(self.model, [(self.parents, self.targets)], spec)
        head = self.model.head
        assert np.all(head.w.grad[:, spec.d:] == 0.0) and np.all(head.b.grad[spec.d:] == 0.0)
        assert np.all(head.b.grad[:spec.d] != 0.0)

    def test_causality_exact(self):
        spec = self.problem.spec
        model = self.model
        encoded = model.encode_parents(self.parents, spec)
        frame = (encoded.obj_low, encoded.obj_span)

        def predictions(targets):
            y = model.decode(model.embed(targets.x[:-1], targets.f[:-1], spec, frame=frame),
                             encoded.memories)
            return model.head_activations(y).data

        base = predictions(self.targets)
        for j in range(2, len(self.targets)):
            x = self.targets.x.copy()
            x[j] = np.clip(x[j] + 0.31, 0, 1)
            pert = predictions(evaluated(self.problem, x))
            # outputs at positions strictly before j are bitwise unchanged
            assert np.array_equal(base[:j - 1], pert[:j - 1])

    def test_dimension_mismatch_rejected(self):
        other = make_problem("shift", d=5, m=2)
        bad = evaluated_pop(other, 6, seed=3)
        with pytest.raises(DataError):
            teacher_forced_loss(self.model, [(self.parents, bad)], self.problem.spec)

    def test_stack_is_sum_of_pairs(self):
        # three pairs, each with its own objective frame: one stacked pass
        # gives the sum of the per-pair losses and gradients
        spec = self.problem.spec
        pairs = [(evaluated_pop(self.problem, 6, seed=10 + k),
                  evaluated_pop(self.problem, 6, seed=20 + k)) for k in range(3)]
        params = self.model.parameters()
        want_loss, want_grads = 0.0, None
        for pair in pairs:
            for p in params:
                p.grad = None
            want_loss += teacher_forced_loss(self.model, [pair], spec)
            grads = [p.grad.copy() for p in params]
            want_grads = grads if want_grads is None else \
                [a + b for a, b in zip(want_grads, grads)]
        for p in params:
            p.grad = None
        loss = teacher_forced_loss(self.model, pairs, spec)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        # relative to the largest gradient entry: the key biases' gradients
        # are zero up to rounding, softmax being blind to a common shift
        scale = max(np.abs(want).max() for want in want_grads)
        for (name, p), want in zip(self.model.named_parameters(), want_grads):
            assert np.abs(p.grad - want).max() <= 1e-12 * scale, name

    def test_stacked_pairs_must_share_shape(self):
        spec = self.problem.spec
        longer = (evaluated_pop(self.problem, 7, seed=3), evaluated_pop(self.problem, 7, seed=4))
        with pytest.raises(DataError, match="disagree in shape"):
            teacher_forced_loss(self.model, [(self.parents, self.targets), longer], spec)
        with pytest.raises(DataError):
            teacher_forced_loss(self.model, [], spec)

    def test_target_too_short_rejected(self):
        single = self.targets.take([0])
        with pytest.raises(DataError):
            teacher_forced_loss(self.model, [(self.parents, single)], self.problem.spec)


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
            loss = teacher_forced_loss(model, [(parents, targets)], problem.spec)
            assert np.isfinite(loss)


class TestFullModelGradient:
    def test_finite_difference_check_toy_config(self):
        cfg = ModelConfig(d_hat=8, m_hat=4, width=16, layers=2, heads=2, max_seq=8)
        model = PopulationTransformer(cfg, seed=1)
        problem = make_problem("shift", d=6, m=3)
        parents = evaluated_pop(problem, 4, seed=2)
        targets = evaluated_pop(problem, 4, seed=3)

        def loss():
            return model.forced_loss([(parents, targets)], problem.spec)

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

    def test_parameter_order_is_the_file_layout(self):
        cfg = ModelConfig(d_hat=4, m_hat=2, width=8, layers=1, heads=2, max_seq=4)
        names = [name for name, _ in PopulationTransformer(cfg).named_parameters()]

        def attn(prefix):
            return [f"{prefix}.{lin}.{t}" for lin in ("q", "k", "v", "out") for t in ("w", "b")]

        def norm(prefix):
            return [f"{prefix}.gain", f"{prefix}.bias"]

        mlp = ["mlp.inner.w", "mlp.inner.b", "mlp.outer.w", "mlp.outer.b"]
        assert names == (
            ["e_dim", "e_obj"]
            + norm("encoder.0.ln_attn") + attn("encoder.0.attn") + norm("encoder.0.ln_mlp")
            + [f"encoder.0.{n}" for n in mlp]
            + norm("decoder.0.ln_self") + attn("decoder.0.self_attn")
            + attn("decoder.0.cross_attn") + norm("decoder.0.ln_mlp")
            + [f"decoder.0.{n}" for n in mlp]
            + ["head.w", "head.b"]
        )

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

    @staticmethod
    def with_config(blob: bytes, text: str) -> bytes:
        """``blob`` with its config JSON replaced by ``text``."""
        (length,) = struct.unpack("<I", blob[8:12])
        cfg = text.encode("utf-8")
        return blob[:8] + struct.pack("<I", len(cfg)) + cfg + blob[12 + length:]

    def test_undecodable_config_names_path(self, tmp_path):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=6), path)
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="model.petm: bad model config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [("heads", '"2"'), ("layers", "1.5")])
    def test_non_int_config_field_names_path(self, tmp_path, field, value):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=6), path)
        text = TOY.to_json().replace(f'"{field}":{getattr(TOY, field)}',
                                     f'"{field}":{value}')
        assert value in text
        path.write_bytes(self.with_config(path.read_bytes(), text))
        with pytest.raises(CheckpointError, match=f"model.petm: bad model config: {field}"):
            load_checkpoint(path)

    def test_zero_heads_with_a_valid_checksum_names_path(self, tmp_path):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=6), path)
        text = TOY.to_json().replace('"heads":2', '"heads":0')
        blob = self.with_config(path.read_bytes(), text)[:-4]
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(CheckpointError,
                           match="model.petm: bad model config: heads must be >= 1, got 0"):
            load_checkpoint(path)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_file_loads_or_raises_checkpoint_error(self, tmp_path, data):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=6), path)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(path) in str(exc)

    def test_every_spaced_byte_flip_rejected(self, tmp_path):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=6), path)
        blob = path.read_bytes()
        for at in np.linspace(0, len(blob) - 1, 200).astype(int):
            flipped = bytearray(blob)
            flipped[at] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError, match="model.petm"):
                load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=6), path)
        blob = path.read_bytes()
        assert blob[4:8] == struct.pack("<I", CHECKPOINT_VERSION) != struct.pack("<I", 1)
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:-4])
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    @staticmethod
    def with_head_mode(path, head: str) -> None:
        """Rewrite ``path`` as a file written while the head was a config field."""
        text = json.dumps({**asdict(TOY), "head_mode": head}, sort_keys=True,
                          separators=(",", ":"))
        blob = TestCheckpoint.with_config(path.read_bytes(), text)[:-4]
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))

    def test_logistic_head_mode_key_is_dropped(self, tmp_path):
        model = PopulationTransformer(TOY, seed=6)
        path = tmp_path / "model.petm"
        save_checkpoint(model, path)
        self.with_head_mode(path, "logistic")
        loaded = load_checkpoint(path)
        assert loaded.config == TOY
        for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_softmax_head_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=6), path)
        self.with_head_mode(path, "softmax")
        with pytest.raises(CheckpointError, match="model.petm: bad model config: .*softmax"):
            load_checkpoint(path)

    def test_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(TOY, seed=7), path)
        # a valid file whose config disagrees with the parameters it holds
        blob = self.with_config(path.read_bytes(), ModelConfig().to_json())[:-4]
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(CheckpointError, match="parameter e_dim has shape"):
            load_checkpoint(path)
