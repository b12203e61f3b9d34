import json

import numpy as np
import pytest

from popformer import cli
from popformer.cli import main
from popformer.model import ModelConfig, PopulationTransformer, save_checkpoint
from popformer.pipeline import PretrainConfig

TOY_CONFIG = {"d_hat": 16, "m_hat": 4, "width": 16, "layers": 2, "heads": 2, "max_seq": 12}


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run_cli("collect") == 1  # missing required args
        assert run_cli("not-a-command") == 1

    def test_runtime_failure_is_two(self, capsys):
        assert run_cli("pretrain", "--data", "/nonexistent.jsonl", "--out", "/tmp/x.petm") == 2

    def test_bad_training_flag_names_the_setting(self, capsys):
        assert run_cli("pretrain", "--data", "/nonexistent.jsonl", "--out", "/tmp/x.petm",
                       "--lr", "nan") == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "lr" in err

    @pytest.mark.parametrize("flags,named", [
        (("--pop", "1"), "population size must be >= 2, got 1"),
        (("--evals", "5", "--pop", "10"), "evals (5) must cover the initial population of 10"),
        (("--seeds", "0"), "at least one seed"),
        (("--problems", ","), "at least one problem"),
        (("--teachers", ""), "at least one teacher"),
    ], ids=["pop-1", "evals-below-pop", "seeds-0", "no-problems", "no-teachers"])
    def test_collect_rejects_bad_sizes_before_any_run(self, tmp_path, capsys, flags, named):
        out = tmp_path / "data.jsonl"
        assert run_cli("collect", "--problems", "zdt1", "--d", "4", "--out", str(out),
                       *flags) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        (("--pop", "1"), "population size must be >= 2, got 1"),
        (("--pop", "10", "--evals", "5"), "evals (5) must cover the initial population of 10"),
    ], ids=["pop-1", "evals-below-pop"])
    def test_optimize_bad_sizes_are_usage_errors(self, tmp_path, capsys, flags, named):
        model = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(ModelConfig(**TOY_CONFIG), seed=0), model)
        log = tmp_path / "run.jsonl"
        assert run_cli("optimize", "--problem", "zdt1", "--d", "8", "--model", str(model),
                       "--log", str(log), *flags) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and named in err
        assert not log.exists()

    def test_optimize_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        model = tmp_path / "model.petm"
        save_checkpoint(PopulationTransformer(ModelConfig(**TOY_CONFIG), seed=0), model)
        log = tmp_path / "run.jsonl"
        assert run_cli("optimize", "--problem", "zdt1", "--d", "8", "--model", str(model),
                       "--pop", "8", "--evals", "16", "--seed", "-1", "--log", str(log)) == 1
        assert "ConfigError: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("flags,config,named", [
        (("--seed", "-1"), TOY_CONFIG, "ConfigError: seed must be >= 0, got -1"),
        ((), {**TOY_CONFIG, "heads": 0}, "ConfigError: heads must be >= 1, got 0"),
    ], ids=["seed-minus-1", "heads-0"])
    def test_pretrain_bad_integers_are_usage_errors(self, tmp_path, capsys, flags, config,
                                                    named):
        data = tmp_path / "data.jsonl"
        assert run_cli("collect", "--problems", "zdt1", "--d", "4", "--pop", "4",
                       "--evals", "12", "--out", str(data)) == 0
        cfg_path = tmp_path / "model.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "model.petm"
        assert run_cli("pretrain", "--data", str(data), "--config", str(cfg_path),
                       "--steps", "1", "--batch", "1", "--out", str(out), *flags) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_selftest_passes(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


class TestIgdCommand:
    def test_three_four_five(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        sols = tmp_path / "sols.csv"
        np.savetxt(front, np.array([[0.0, 0.0]]), delimiter=",")
        np.savetxt(sols, np.array([[3.0, 4.0]]), delimiter=",")
        assert run_cli("igd", "--front", str(front), "--solutions", str(sols)) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(5.0, abs=1e-12)

    def test_non_finite_point_fails_naming_its_row(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        sols = tmp_path / "sols.csv"
        front.write_text("0,0\n1,1\n")
        sols.write_text("0.5,0.5\nnan,0\n")
        assert run_cli("igd", "--front", str(front), "--solutions", str(sols)) == 2
        assert "ContractViolation: solutions row 1 is not finite" in capsys.readouterr().err


class TestMallocSetUp:
    def test_main_fixes_malloc_thresholds_before_parsing(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "fix_malloc_thresholds", lambda: calls.append(True))
        assert run_cli("not-a-command") == 1
        assert calls == [True]


class TestPipelineCommands:
    def test_pretrain_defaults_are_the_config_defaults(self):
        args = cli._build_parser().parse_args(["pretrain", "--data", "d", "--out", "o"])
        assert PretrainConfig(steps=args.steps, batch_size=args.batch, lr=args.lr,
                              seed=args.seed) == PretrainConfig()

    def test_collect_pretrain_optimize_chain(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        code = run_cli("collect", "--problems", "zdt1,zdt2", "--teachers", "nsga2",
                       "--seeds", "1", "--pop", "8", "--evals", "40",
                       "--d", "8", "--out", str(data))
        assert code == 0
        assert data.exists()
        first = json.loads(data.read_text().splitlines()[0])
        assert first["pair_count"] == 2 * 3  # two problems x (4 gens -> 3 pairs)

        cfg_path = tmp_path / "model.json"
        cfg_path.write_text(json.dumps(TOY_CONFIG))
        model_path = tmp_path / "model.petm"
        code = run_cli("pretrain", "--data", str(data), "--config", str(cfg_path),
                       "--steps", "3", "--batch", "2", "--out", str(model_path))
        assert code == 0
        assert model_path.exists()

        log_path = tmp_path / "run.jsonl"
        sols_path = tmp_path / "final.csv"
        code = run_cli("optimize", "--problem", "zdt6", "--d", "8",
                       "--model", str(model_path), "--pop", "8", "--evals", "32",
                       "--seed", "1", "--log", str(log_path),
                       "--solutions-out", str(sols_path))
        assert code == 0
        events = [json.loads(ln) for ln in log_path.read_text().splitlines()]
        assert len(events) == 3  # 32 evals = 8 init + 3x8
        assert events[-1]["evaluations"] == 32
        final = np.loadtxt(sols_path, delimiter=",")
        assert final.shape == (8, 2)
        out = capsys.readouterr().out
        assert "final IGD" in out

    def test_benchmark_command(self, tmp_path, capsys):
        cfg = {
            "problems": [{"name": "zdt1", "d": 8, "m": 2}],
            "arms": [{"kind": "nsga2"}, {"kind": "random"}],
            "n_pop": 8, "evals": 24, "n_seeds": 3,
            "reference_arm": "random", "reference_front_size": 50,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "reports"
        assert run_cli("benchmark", "--config", str(cfg_path), "--out", str(out_dir)) == 0
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "table.txt").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_benchmark_rejects_fewer_than_one_worker(self, tmp_path, capsys, workers):
        cfg = {"problems": [{"name": "zdt1", "d": 8, "m": 2}], "arms": [{"kind": "random"}],
               "n_pop": 8, "evals": 16, "n_seeds": 1, "reference_arm": "random"}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "reports"
        assert run_cli("benchmark", "--config", str(cfg_path), "--out", str(out_dir),
                       "--workers", workers) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and f"workers must be >= 1, got {workers}" in err
        assert not out_dir.exists()

    def test_optimize_rejects_corrupt_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.petm"
        bad.write_bytes(b"JUNKJUNK")
        assert run_cli("optimize", "--problem", "zdt1", "--d", "8",
                       "--model", str(bad)) == 2
