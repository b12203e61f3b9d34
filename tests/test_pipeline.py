import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from popformer import (
    EvaluationBudget,
    FinetuneConfig,
    ModelConfig,
    Population,
    PopulationTransformer,
    PretrainConfig,
    TrajectoryDataset,
    TrajectoryPair,
    collect_trajectories,
    evaluate,
    finetune_step,
    make_problem,
    pipeline,
    pretrain,
    run_nsga2_model,
    save_checkpoint,
    teacher_forced_loss,
)
from popformer import moea
from popformer.errors import CapacityError, ConfigError, ContractViolation, DataError
from popformer.moea import nsga2_select
from popformer.nn import Adam
from test_moea import ConstrainedZdt1

TOY = ModelConfig(d_hat=16, m_hat=4, width=16, layers=2, heads=2, max_seq=12)


def evaluated(problem, xs, gen=0):
    return evaluate(Population(xs, generation_index=gen), problem, EvaluationBudget(len(xs)))


def evaluated_pop(problem, n, seed=0, gen=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(problem.spec.lower, problem.spec.upper, (n, problem.spec.d))
    return evaluated(problem, xs, gen)


def select(x_g, x_g1):
    """nsga2_select over parents u offspring at the parent size."""
    return nsga2_select(x_g.concat(x_g1), len(x_g))[0]


def online_update(model, x_g, x_g1, problem, selected):
    """One-step finetune_step with a fresh online Adam, as a run's first
    generation has at the default FinetuneConfig."""
    return finetune_step(model, Adam(model.parameters(), lr=1e-4), x_g, x_g1, problem, 1,
                         selected)


def copy_of(model):
    twin = PopulationTransformer(model.config, seed=0)
    for src, dst in zip(model.parameters(), twin.parameters()):
        dst.data = src.data.copy()
    return twin


def shift_pairs(n_pairs, pop_size=6, d=6, seed=0):
    problem = make_problem("shift", d=d, m=2, shift=0.05)
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n_pairs):
        parents = problem.evaluate_free(problem.cluster_population(pop_size, rng))
        targets = problem.evaluate_free(problem.target_population(parents))
        pairs.append(TrajectoryPair.from_populations(
            problem.spec, parents, targets, teacher="shift", seed=seed, generation=k))
    return problem, pairs


class TestCollect:
    def test_pair_count_arithmetic(self):
        # E=100, N=10 -> 9 recorded generations -> 8 consecutive pairs per cell
        problems = [make_problem("zdt1", d=8)]
        ds = collect_trajectories(problems, ["nsga2"], [0], n_pop=10, evals=100)
        assert len(ds.pairs) == 8

    def test_manifest_counts_match(self):
        problems = [make_problem("zdt1", d=8), make_problem("zdt2", d=8)]
        ds = collect_trajectories(problems, ["nsga2"], [0, 1], n_pop=10, evals=60)
        manifest = ds.manifest()
        assert manifest["pair_count"] == len(ds.pairs)
        assert sum(c["pairs"] for c in manifest["cells"]) == len(ds.pairs)
        assert len(manifest["cells"]) == 4

    def test_recollection_byte_identical(self, tmp_path):
        problems = [make_problem("zdt3", d=8)]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        collect_trajectories(problems, ["nsga2", "cso"], [0], n_pop=8, evals=48).save(a)
        collect_trajectories(problems, ["nsga2", "cso"], [0], n_pop=8, evals=48).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_teacher_rejected(self):
        with pytest.raises(ConfigError):
            collect_trajectories([make_problem("zdt1", d=8)], ["alien"], [0], 10, 100)

    def test_failing_cell_skipped(self):
        # d too small for the model? No: make a problem that errors mid-run
        class Exploding:
            spec = make_problem("zdt1", d=8).spec

            def evaluate_batch(self, x):
                raise RuntimeError("boom")

        good = make_problem("zdt1", d=8)
        ds = collect_trajectories([Exploding(), good], ["nsga2"], [0], n_pop=10, evals=60)
        # only the good problem contributed: 50/10 -> 5 generations -> 4 pairs
        assert {p.problem_name for p in ds.pairs} == {"zdt1"}
        assert len(ds.pairs) == 4

    def test_infeasible_cell_logged_and_skipped(self, caplog):
        good = make_problem("zdt1", d=8)
        with caplog.at_level(logging.ERROR, logger=pipeline.__name__):
            ds = collect_trajectories([ConstrainedZdt1(6), good], ["nsga2"], [0], n_pop=10,
                                      evals=60)
        assert {p.d for p in ds.pairs} == {8} and len(ds.pairs) == 4
        assert "zdt1/nsga2/seed=0; skipping" in caplog.text
        assert "zdt1 pair at generation 0 has infeasible members" in caplog.text

    def test_pairs_equal_teacher_runs_cut_at_each_generation(self):
        # a run with budget N + k*e ends at generation k's parents, where e is
        # the evaluations per generation: N for NSGA-II, the N/2 losers for CSO
        problem, n, evals, seed = make_problem("zdt1", d=8), 10, 120, 3
        for teacher, per_generation in (("nsga2", n), ("cso", n // 2)):
            generations = (evals - n) // per_generation
            cut = [moea.TEACHERS[teacher](problem, n, n + k * per_generation, seed=seed).population
                   for k in range(generations)]
            want = [TrajectoryPair.from_populations(problem.spec, x_g, x_g1, teacher, seed, k)
                    for k, (x_g, x_g1) in enumerate(zip(cut, cut[1:]))]
            got = collect_trajectories([problem], [teacher], [seed], n, evals).pairs
            assert len(got) == generations - 1
            for a, b in zip(got, want):
                assert (a.teacher, a.seed, a.generation) == (b.teacher, b.seed, b.generation)
                for pa, pb in ((a.x_g, b.x_g), (a.x_g1, b.x_g1)):
                    assert pa.x.tobytes() == pb.x.tobytes() and pa.f.tobytes() == pb.f.tobytes()
                assert a.x_g1.generation_index == a.generation + 1


class TestDataset:
    def test_infeasible_population_rejected(self):
        problem = ConstrainedZdt1(8)
        pop = evaluated_pop(problem, 10)
        assert np.any(pop.cv > 0)
        with pytest.raises(DataError, match="zdt1 pair at generation 4 has infeasible members"):
            TrajectoryPair.from_populations(problem.spec, pop, pop, "t", 0, 4)

    def test_round_trip_byte_identical(self, tmp_path):
        _, pairs = shift_pairs(5)
        ds = TrajectoryDataset(pairs=pairs)
        p1 = tmp_path / "d1.jsonl"
        p2 = tmp_path / "d2.jsonl"
        ds.save(p1)
        TrajectoryDataset.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pairs_survive_round_trip(self, tmp_path):
        _, pairs = shift_pairs(3)
        path = tmp_path / "d.jsonl"
        TrajectoryDataset(pairs=pairs).save(path)
        loaded = TrajectoryDataset.load(path)
        assert len(loaded.pairs) == 3
        for a, b in zip(pairs, loaded.pairs):
            assert np.array_equal(a.x_g.x, b.x_g.x)
            assert np.array_equal(a.x_g1.f, b.x_g1.f)

    def test_manifest_count_mismatch_rejected(self, tmp_path):
        _, pairs = shift_pairs(2)
        path = tmp_path / "d.jsonl"
        TrajectoryDataset(pairs=pairs).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
        with pytest.raises(DataError):
            TrajectoryDataset.load(path)

    @pytest.mark.parametrize("corrupt", ["nan_objective", "ragged_row"])
    def test_bad_record_names_file_and_line(self, tmp_path, corrupt):
        _, pairs = shift_pairs(3)
        path = tmp_path / "d.jsonl"
        TrajectoryDataset(pairs=pairs).save(path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        if corrupt == "nan_objective":
            rec["f_g1"][1][0] = float("nan")
        else:
            rec["x_g"][3] = rec["x_g"][3][:-1]
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{path.name}: line 3: "):
            TrajectoryDataset.load(path)

    @pytest.mark.parametrize("field,value,named", [
        ("d", 8.5, "d must be an int, got 8.5"), ("generation", True, "generation must be an int"),
        ("m", 1, "m must be >= 2, got 1"), ("seed", -1, "seed must be >= 0, got -1"),
    ], ids=["float-d", "bool-generation", "m-1", "negative-seed"])
    def test_bad_integer_field_names_file_and_line(self, tmp_path, field, value, named):
        # a float or a bool in an integer field is an error, never truncated
        _, pairs = shift_pairs(3)
        path = tmp_path / "d.jsonl"
        TrajectoryDataset(pairs=pairs).save(path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"d.jsonl: line 3: .*{named}"):
            TrajectoryDataset.load(path)

    def test_not_a_dataset_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"format":"something-else"}\n')
        with pytest.raises(DataError):
            TrajectoryDataset.load(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        _, pairs = shift_pairs(2)
        path = tmp_path / "d.jsonl"
        TrajectoryDataset(pairs=pairs).save(path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match="d.jsonl: line 3: invalid UTF-8"):
            TrajectoryDataset.load(path)

    @pytest.mark.parametrize("manifest", ["not json", "[1, 2]"])
    def test_bad_manifest_names_file_and_line(self, tmp_path, manifest):
        _, pairs = shift_pairs(2)
        path = tmp_path / "d.jsonl"
        TrajectoryDataset(pairs=pairs).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([manifest] + lines[1:]) + "\n")
        with pytest.raises(DataError, match="d.jsonl: line 1: "):
            TrajectoryDataset.load(path)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_file_loads_or_raises_data_error(self, tmp_path, data):
        _, pairs = shift_pairs(2, pop_size=4, d=3)
        path = tmp_path / "d.jsonl"
        TrajectoryDataset(pairs=pairs).save(path)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(blob))
        try:
            TrajectoryDataset.load(path)
        except DataError as exc:
            assert str(path) in str(exc)

    def test_pair_invariants(self):
        problem = make_problem("shift", d=4, m=2)
        pop = evaluated_pop(problem, 4)
        with pytest.raises(DataError):
            TrajectoryPair.from_populations(problem.spec, pop,
                                            pop.take(np.arange(3)), "t", 0, 0)
        raw = pop.take(np.arange(4))
        pair = TrajectoryPair.from_populations(problem.spec, raw, raw, "t", 0, 0)
        assert pair.size == 4
        assert np.all(pair.x_g.x >= 0) and np.all(pair.x_g.x <= 1)


class TestTrainingConfigs:
    @pytest.mark.parametrize("kwargs", [
        {"eval_every": 0}, {"lr": float("nan")}, {"lr": 0.0}, {"lr": float("inf")},
        {"lr": "fast"}, {"weight_decay": -0.1}, {"weight_decay": float("nan")},
        {"steps": 1.5}, {"batch_size": True}, {"eval_every": 2.0},
    ])
    def test_bad_pretrain_config_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            PretrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"lr": float("nan")}, {"lr": -1e-4}, {"lr": "fast"},
        {"steps_per_generation": 1.5}, {"steps_per_generation": -1},
        {"steps_per_generation": True},
    ])
    def test_bad_finetune_config_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            FinetuneConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"lr": True}, {"weight_decay": True}, {"seed": -1}, {"seed": 1.5},
        {"seed": np.float64(2.0)},
    ])
    def test_bools_and_bad_seeds_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=f"^{next(iter(kwargs))} must be"):
            PretrainConfig(**kwargs)
        if "lr" in kwargs:
            with pytest.raises(ConfigError, match="^lr must be"):
                FinetuneConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        pre = PretrainConfig(steps=np.int64(5), batch_size=np.int32(4), lr=np.float32(1e-3),
                             weight_decay=np.float32(0.0), seed=np.int64(3),
                             eval_every=np.uint16(2))
        assert pre == PretrainConfig(steps=5, batch_size=4, lr=np.float32(1e-3),
                                     weight_decay=0.0, seed=3, eval_every=2)
        fine = FinetuneConfig(steps_per_generation=np.int64(0), lr=np.float32(1e-4))
        assert fine.steps_per_generation == 0

    def test_zero_weight_decay_and_zero_steps_accepted(self):
        assert PretrainConfig(weight_decay=0.0).weight_decay == 0.0
        assert FinetuneConfig(steps_per_generation=0).steps_per_generation == 0


class TestPretrain:
    def test_loss_decreases_on_shift_family(self):
        _, pairs = shift_pairs(24, pop_size=6)
        model = PopulationTransformer(TOY, seed=0)
        curve = pretrain(TrajectoryDataset(pairs=pairs), model,
                         PretrainConfig(steps=60, batch_size=8, lr=3e-3,
                                        weight_decay=0.0, seed=0, eval_every=10))
        assert curve[0][0] == 1
        losses = [v for _, v in curve]
        assert all(np.isfinite(v) for v in losses)
        assert losses[-1] < losses[0]

    def test_equal_seeds_identical_checkpoints(self, tmp_path):
        _, pairs = shift_pairs(8)
        cfg = PretrainConfig(steps=12, batch_size=4, seed=3)
        paths = []
        for tag in ("a", "b"):
            model = PopulationTransformer(TOY, seed=1)
            pretrain(TrajectoryDataset(pairs=pairs), model, cfg)
            path = tmp_path / f"{tag}.petm"
            save_checkpoint(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_non_finite_loss_raises_at_its_step(self, monkeypatch):
        _, pairs = shift_pairs(4)
        real = pipeline.teacher_forced_loss
        calls = []

        def loss_nan_on_second_call(*args):
            calls.append(1)
            value = real(*args)
            return float("nan") if len(calls) == 2 else value

        monkeypatch.setattr(pipeline, "teacher_forced_loss", loss_nan_on_second_call)
        with pytest.raises(DataError, match="at step 2$"):
            pretrain(TrajectoryDataset(pairs=pairs), PopulationTransformer(TOY, seed=0),
                     PretrainConfig(steps=10, batch_size=1, eval_every=50))
        assert len(calls) == 2

    @pytest.mark.parametrize("pop_size,passes", [(20, [5, 3]), (100, [1] * 8)])
    def test_batch_runs_in_passes_of_at_most_max_seq_rows(self, monkeypatch, pop_size,
                                                           passes):
        _, pairs = shift_pairs(8, pop_size=pop_size)
        real = pipeline.teacher_forced_loss
        sizes = []

        def counting(model, pairs, spec):
            sizes.append(len(pairs))
            return real(model, pairs, spec)

        monkeypatch.setattr(pipeline, "teacher_forced_loss", counting)
        cfg = ModelConfig(d_hat=8, m_hat=4, width=16, layers=1, heads=2, max_seq=100)
        pretrain(TrajectoryDataset(pairs=pairs), PopulationTransformer(cfg, seed=0),
                 PretrainConfig(steps=1, batch_size=8))
        assert sizes == passes

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            pretrain(TrajectoryDataset(), PopulationTransformer(TOY), PretrainConfig(steps=1))

    def test_capacity_violation_names_pair(self):
        problem = make_problem("shift", d=TOY.d_hat + 4, m=2)
        pop = evaluated_pop(problem, 4)
        pair = TrajectoryPair.from_populations(problem.spec, pop, pop, "t", 0, 0)
        with pytest.raises(CapacityError) as exc:
            pretrain(TrajectoryDataset(pairs=[pair]), PopulationTransformer(TOY),
                     PretrainConfig(steps=1))
        assert "shift" in str(exc.value)

    def test_mixed_shape_batches_allowed(self):
        _, pairs_a = shift_pairs(4, pop_size=5, d=6, seed=0)
        _, pairs_b = shift_pairs(4, pop_size=7, d=9, seed=1)
        model = PopulationTransformer(TOY, seed=0)
        curve = pretrain(TrajectoryDataset(pairs=pairs_a + pairs_b), model,
                         PretrainConfig(steps=6, batch_size=4, seed=0, eval_every=2))
        assert all(np.isfinite(v) for _, v in curve)


class TestFinetune:
    def setup_method(self):
        self.problem = make_problem("shift", d=6, m=2)
        self.model = PopulationTransformer(TOY, seed=5)
        self.x_g = evaluated_pop(self.problem, 6, seed=1, gen=0)
        self.x_g1 = evaluated_pop(self.problem, 6, seed=2, gen=1)

    def snapshot(self):
        return [p.data.copy() for p in self.model.parameters()]

    def test_zero_steps_leaves_parameters_bitwise(self):
        before = self.snapshot()
        out = finetune_step(self.model, None, self.x_g, self.x_g1, self.problem, 0,
                            select(self.x_g, self.x_g1))
        assert out is None
        for a, b in zip(before, self.snapshot()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("selected", [[0, 1, 2, 6, 7, 8], list(range(6))],
                             ids=["offspring-target", "survivor-target"])
    def test_unevaluated_offspring_rejected_before_any_update(self, selected):
        before = self.snapshot()
        pending = Population(self.x_g1.x, generation_index=1)
        with pytest.raises(ContractViolation):
            online_update(self.model, self.x_g, pending, self.problem, np.array(selected))
        for a, b in zip(before, self.snapshot()):
            assert a.tobytes() == b.tobytes()

    def test_one_step_changes_parameters(self):
        before = self.snapshot()
        loss = online_update(self.model, self.x_g, self.x_g1, self.problem,
                             select(self.x_g, self.x_g1))
        assert loss is not None and np.isfinite(loss)
        assert any(not np.array_equal(a, b) for a, b in zip(before, self.snapshot()))

    def test_target_is_surviving_offspring(self):
        selected = select(self.x_g, self.x_g1)
        kept = [i - 6 for i in selected if i >= 6]
        assert 2 <= len(kept) < 6
        want = teacher_forced_loss(PopulationTransformer(TOY, seed=5), [(self.x_g, self.x_g1.take(kept))],
                                   self.problem.spec)
        got = online_update(self.model, self.x_g, self.x_g1, self.problem, selected)
        assert got == want

    def test_rejected_offspring_fall_back_to_survivors(self):
        # every offspring is dominated by every parent, so selection keeps the
        # parents and the update trains toward them
        problem = make_problem("zdt1", d=6)
        rng = np.random.default_rng(0)
        parents = evaluated(problem, np.c_[rng.uniform(0.1, 0.9, 6), np.zeros((6, 5))])
        offspring = evaluated(problem, np.ones((6, 6)), gen=1)
        selected = select(parents, offspring)
        survivors = parents.concat(offspring).take(selected)
        want = teacher_forced_loss(PopulationTransformer(TOY, seed=5), [(parents, survivors)],
                                   problem.spec)
        got = online_update(self.model, parents, offspring, problem, selected)
        assert got == want

    def test_pretrain_optimizer_not_reused_at_equal_lr(self):
        # pretraining at the online lr must not hand its Adam moments or
        # weight decay to the online update: a run on the pretrained model
        # equals a run on an untouched twin holding the same weights
        _, pairs = shift_pairs(4, pop_size=6, d=6, seed=0)
        trained = PopulationTransformer(TOY, seed=5)
        pretrain(TrajectoryDataset(pairs=pairs), trained,
                 PretrainConfig(steps=4, batch_size=2, lr=1e-4, seed=0))
        twin = copy_of(trained)
        finals = [run_nsga2_model(self.problem, model, 6, 30, seed=0,
                                  fine_cfg=FinetuneConfig(lr=1e-4)).population.x
                  for model in (trained, twin)]
        assert np.array_equal(finals[0], finals[1])
        for a, b in zip(trained.parameters(), twin.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_non_finite_loss_leaves_parameters_bitwise(self, monkeypatch):
        real = pipeline.teacher_forced_loss

        def poisoned(model, pairs, spec):
            real(model, pairs, spec)
            model.parameters()[0].grad[...] = np.nan
            return float("nan")

        monkeypatch.setattr(pipeline, "teacher_forced_loss", poisoned)
        before = self.snapshot()
        with pytest.raises(DataError, match="non-finite training loss"):
            online_update(self.model, self.x_g, self.x_g1, self.problem,
                          select(self.x_g, self.x_g1))
        for a, b in zip(before, self.snapshot()):
            assert np.array_equal(a, b)

    def test_descent_direction_statistics(self):
        # one update step lowers the same-pair loss in >= 80% of 50 random trials
        wins = 0
        for seed in range(50):
            model = PopulationTransformer(TOY, seed=seed)
            x_g = evaluated_pop(self.problem, 6, seed=100 + seed, gen=0)
            x_g1 = evaluated_pop(self.problem, 6, seed=200 + seed, gen=1)
            selected = select(x_g, x_g1)
            target = x_g.concat(x_g1).take(selected)
            pair = TrajectoryPair.from_populations(self.problem.spec, x_g, target,
                                                   "t", seed, 0)
            before = teacher_forced_loss(model, [(pair.x_g, pair.x_g1)], pair.unit_spec())
            online_update(model, x_g, x_g1, self.problem, selected)
            after = teacher_forced_loss(model, [(pair.x_g, pair.x_g1)], pair.unit_spec())
            wins += after <= before
        assert wins >= 40


class TestModelRun:
    def test_budget_exactness(self):
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=0)
        result = run_nsga2_model(problem, model, 10, 100, seed=0)
        assert result.evaluations == 100
        assert len(result.log) == 9
        assert all(e["offspring_evaluated"] == 10 for e in result.log)

    def test_budget_exactness_fuzzed(self):
        rng = np.random.default_rng(1)
        problem = make_problem("zdt2", d=8)
        for _ in range(5):
            n = int(rng.integers(2, 7)) * 2
            e = int(rng.integers(n, 5 * n))
            model = PopulationTransformer(TOY, seed=2)
            assert run_nsga2_model(problem, model, n, e, seed=3).evaluations == e

    def test_partial_generation_logged(self):
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=0)
        result = run_nsga2_model(problem, model, 10, 25, seed=0)
        assert result.evaluations == 25
        assert result.log[-1]["partial"] is True
        assert result.log[-1]["offspring_evaluated"] == 5

    def test_frozen_arm_never_updates_model(self):
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=4)
        before = [p.data.copy() for p in model.parameters()]
        run_nsga2_model(problem, model, 8, 40, seed=0,
                        fine_cfg=FinetuneConfig(steps_per_generation=0))
        for a, p in zip(before, model.parameters()):
            assert np.array_equal(a, p.data)

    def test_finetune_arm_updates_model(self):
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=4)
        before = [p.data.copy() for p in model.parameters()]
        run_nsga2_model(problem, model, 8, 40, seed=0, fine_cfg=FinetuneConfig())
        assert any(not np.array_equal(a, p.data)
                   for a, p in zip(before, model.parameters()))

    def test_second_run_starts_a_fresh_optimizer(self):
        # Adam moments stay with the run that made them: a second run on a
        # model equals a first run on a copy holding the same weights
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=4)
        run_nsga2_model(problem, model, 8, 40, seed=0)
        twin = copy_of(model)
        finals = [run_nsga2_model(problem, m, 8, 40, seed=1).population.x
                  for m in (model, twin)]
        assert np.array_equal(finals[0], finals[1])
        for a, b in zip(model.parameters(), twin.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_seeded_run_reproducible(self):
        problem = make_problem("zdt6", d=8)
        final = []
        for _ in range(2):
            model = PopulationTransformer(TOY, seed=9)
            result = run_nsga2_model(problem, model, 8, 56, seed=11)
            final.append(result.population.x)
        assert np.array_equal(final[0], final[1])

    def test_reference_front_logging(self):
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=0)
        front = problem.reference_front(50)
        result = run_nsga2_model(problem, model, 8, 32, seed=0, reference_front=front)
        assert all(np.isfinite(e["igd"]) for e in result.log)

    def test_union_sorted_once_per_generation(self, monkeypatch):
        # the online update, the logged IGD and the next parents share the
        # loop's one selection per generation, plus the initial population's
        calls = []
        original = moea.fast_nondominated_sort
        monkeypatch.setattr(moea, "fast_nondominated_sort",
                            lambda pop, *args: calls.append(len(pop)) or original(pop, *args))
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=0)
        result = run_nsga2_model(problem, model, 8, 32, seed=0,
                                 reference_front=problem.reference_front(50))
        assert len(result.log) == 3
        assert len(calls) == 3 + 1

    def test_population_too_big_for_model(self):
        problem = make_problem("zdt1", d=8)
        model = PopulationTransformer(TOY, seed=0)
        with pytest.raises(CapacityError):
            run_nsga2_model(problem, model, TOY.max_seq + 2, 200, seed=0)

    @pytest.mark.parametrize("d,m", [(TOY.d_hat + 2, 2), (4, TOY.m_hat + 1)],
                             ids=["too-wide", "too-many-objectives"])
    def test_problem_too_big_for_model_fails_before_any_evaluation(self, monkeypatch, d, m):
        problem = make_problem("shift", d=d, m=m)
        calls = []
        for name in ("evaluate_batch", "evaluate_solution"):
            original = getattr(problem, name)
            monkeypatch.setattr(problem, name,
                                lambda x, original=original: calls.append(1) or original(x))
        with pytest.raises(CapacityError, match="population members with"):
            run_nsga2_model(problem, PopulationTransformer(TOY, seed=0), 8, 32, seed=0)
        assert calls == []
