import csv
import ctypes
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from popformer import bench
from popformer.bench import (
    ArmSpec,
    ExperimentConfig,
    ProblemCase,
    RunRecord,
    derive_seed,
    emit_report,
    roc_percent,
    run_benchmark,
    summarize,
)
from popformer.cli import main
from popformer.errors import ConfigError
from popformer.moea import run_nsga2
from popformer.pipeline import FinetuneConfig, collect_trajectories
from popformer.problems import make_problem

TINY = ExperimentConfig(
    problems=(ProblemCase("zdt1", d=8),),
    arms=(ArmSpec("nsga2"), ArmSpec("random")),
    n_pop=8,
    evals=40,
    n_seeds=3,
    master_seed=7,
    reference_arm="random",
    reference_front_size=100,
)


class TestSeeds:
    def test_deterministic_and_distinct(self):
        s1 = derive_seed(0, "a", "zdt1", 30, 2, 0)
        s2 = derive_seed(0, "a", "zdt1", 30, 2, 0)
        assert s1 == s2
        others = {derive_seed(0, arm, prob, d, 2, i)
                  for arm in ("a", "b") for prob in ("zdt1", "zdt2")
                  for d in (10, 30) for i in range(4)}
        assert len(others) == 32


class TestRunBenchmark:
    def test_record_counting(self):
        records = run_benchmark(TINY)
        assert len(records) == 2 * 1 * 3
        assert all(r.status == "ok" for r in records)
        assert all(r.evaluations == 40 for r in records)

    def test_rerun_identical_medians(self):
        summaries = []
        for _ in range(2):
            records = run_benchmark(TINY)
            summaries.append(summarize(records, TINY))
        a, b = summaries
        for ea, eb in zip(a["problems"], b["problems"]):
            for arm in ea["arms"]:
                assert ea["arms"][arm]["median"] == eb["arms"][arm]["median"]

    def test_worker_pool_matches_sequential(self):
        seq = run_benchmark(TINY)
        par = run_benchmark(TINY, workers=2)
        assert [(r.arm, r.seed, r.igd) for r in seq] == [(r.arm, r.seed, r.igd) for r in par]

    def test_worker_crash_fails_only_unfinished_cells(self, monkeypatch):
        # a forked worker that dies breaks the pool: its cell and every cell
        # still pending become failed records naming the error, while cells
        # that finished keep their results
        seq = {(r.arm, r.seed): r.igd for r in run_benchmark(TINY)}
        monkeypatch.setitem(bench.ARM_RUNNERS, "random", lambda *args: os._exit(3))
        records = run_benchmark(TINY, workers=2)
        assert len(records) == 6
        for r in records:
            if r.arm == "random" or r.status != "ok":
                assert r.status == "failed" and "BrokenProcessPool" in r.error
                assert math.isnan(r.igd)
            else:
                assert r.igd == seq[(r.arm, r.seed)]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # each cell reports its worker's BLAS thread count through its error
        lib = bench._openblas()
        if lib is None:
            pytest.skip("numpy has no bundled scipy-openblas")
        getter = lib.scipy_openblas_get_num_threads64_
        getter.restype = ctypes.c_int
        getter.argtypes = []
        before = getter()

        def report_threads(*args):
            raise RuntimeError(f"blas threads {getter()}")

        monkeypatch.setitem(bench.ARM_RUNNERS, "random", report_threads)
        pooled = [r for r in run_benchmark(TINY, workers=2) if r.arm == "random"]
        assert [r.error for r in pooled] == ["RuntimeError: blas threads 1"] * 3
        inline = [r for r in run_benchmark(TINY) if r.arm == "random"]
        assert [r.error for r in inline] == [f"RuntimeError: blas threads {before}"] * 3
        assert getter() == before

    def test_pool_workers_fix_malloc_thresholds(self, monkeypatch):
        # each cell reports whether its worker ran the malloc set-up
        fixed = []
        monkeypatch.setattr(bench, "fix_malloc_thresholds", lambda: fixed.append(os.getpid()))

        def report_fixed(*args):
            raise RuntimeError(f"thresholds fixed {os.getpid() in fixed}")

        monkeypatch.setitem(bench.ARM_RUNNERS, "random", report_fixed)
        pooled = [r for r in run_benchmark(TINY, workers=2) if r.arm == "random"]
        assert [r.error for r in pooled] == ["RuntimeError: thresholds fixed True"] * 3
        assert fixed == []  # the set-up ran in the workers, not here

    def test_failing_arm_yields_nan_convention(self):
        cfg = ExperimentConfig(
            problems=(ProblemCase("zdt1", d=8),),
            arms=(ArmSpec("nsga2"), ArmSpec("learned", label="broken",
                                            model="/nonexistent/model.petm")),
            n_pop=8, evals=24, n_seeds=3, reference_arm="nsga2",
            reference_front_size=50,
        )
        records = run_benchmark(cfg)
        broken = [r for r in records if r.arm == "broken"]
        assert all(r.status == "failed" for r in broken)
        assert all(math.isnan(r.igd) for r in broken)
        summary = summarize(records, cfg)
        assert math.isnan(summary["problems"][0]["arms"]["broken"]["median"])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(problems=(ProblemCase("zdt1", d=8),),
                             arms=(ArmSpec("nsga2"),), reference_arm="missing")
        with pytest.raises(ConfigError):
            ArmSpec("unknown-kind")

    def test_arm_defaults_are_the_finetune_defaults(self):
        assert ArmSpec("learned").finetune_config() == FinetuneConfig()

    GOOD = {"problems": [{"name": "zdt1", "d": 8}], "arms": [{"kind": "nsga2"}],
            "n_pop": 8, "evals": 16, "n_seeds": 1, "reference_arm": "nsga2"}

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps([GOOD]),
        json.dumps({k: v for k, v in GOOD.items() if k != "problems"}),
        json.dumps({**GOOD, "n_pops": 8}),
        json.dumps({**GOOD, "arms": [{"kind": "nsga2", "steps": 1}]}),
        json.dumps({**GOOD, "n_pop": "10"}),
        json.dumps({**GOOD, "evals": 16.0}),
        json.dumps({**GOOD, "problems": [{"name": "zdt1", "d": "8"}]}),
        json.dumps({**GOOD, "arms": [{"kind": "nsga2", "steps_per_generation": True}]}),
        json.dumps({**GOOD, "n_pop": 1, "evals": 0}),
        json.dumps({**GOOD, "evals": 7}),
        json.dumps({**GOOD, "problems": []}),
        json.dumps({**GOOD, "arms": []}),
        json.dumps({**GOOD, "alpha": 0}),
        json.dumps({**GOOD, "alpha": 1.5}),
        json.dumps({**GOOD, "arms": [{"kind": "nsga2"}, {"kind": "learned", "lr": "fast"}]}),
        json.dumps({**GOOD, "arms": [{"kind": "nsga2"}, {"kind": "learned", "lr": 0}]}),
        json.dumps({**GOOD, "arms": [{"kind": "nsga2"},
                                     {"kind": "learned", "steps_per_generation": 1.5}]}),
    ], ids=["malformed", "not-an-object", "no-problems", "unknown-key", "unknown-arm-key",
            "string-int", "float-int", "string-d", "bool-int", "n_pop-1", "evals-below-n_pop",
            "empty-problems", "empty-arms", "alpha-0", "alpha-1.5", "string-lr", "zero-lr",
            "float-steps"])
    def test_bad_config_rejected_before_any_cell(self, text, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="grid.json"):
            ExperimentConfig.from_json(text, source=str(path))
        assert main(["benchmark", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change,named", [
        ({"reference_front_size": 0}, "reference_front_size must be >= 1, got 0"),
        ({"reference_front_size": -5}, "reference_front_size must be >= 1, got -5"),
        ({"n_seeds": 0}, "n_seeds must be >= 1, got 0"),
        ({"master_seed": 1.5}, "master_seed must be an int, got 1.5"),
        ({"problems": [{"name": "zdt1", "d": 0}]}, "d must be >= 1, got 0"),
        ({"problems": [{"name": "zdt1", "d": 8, "m": 1}]}, "m must be >= 2, got 1"),
        ({"arms": [{"kind": "nsga2"}, {"kind": "learned", "lr": True}]},
         "lr must be a finite number > 0, got True"),
    ], ids=["front-0", "front-minus-5", "n_seeds-0", "float-master-seed", "d-0", "m-1",
            "bool-lr"])
    def test_integer_and_rate_rules_name_the_file(self, tmp_path, change, named):
        path = tmp_path / "grid.json"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json(json.dumps({**self.GOOD, **change}), source=str(path))
        assert str(exc.value) == f"{path}: {named}"

    def test_negative_master_seed_accepted(self):
        cfg = ExperimentConfig.from_json(json.dumps({**self.GOOD, "master_seed": -3}))
        assert cfg.master_seed == -3

    def test_numpy_numbers_write_the_same_json(self):
        cfg = ExperimentConfig(
            problems=(ProblemCase("zdt1", d=np.int64(8), m=np.int32(2)),),
            arms=(ArmSpec("nsga2"), ArmSpec("random"),
                  ArmSpec("learned", lr=np.float32(0.5), steps_per_generation=np.int64(2))),
            n_pop=np.int64(8), evals=np.int64(40), n_seeds=np.int64(3),
            master_seed=np.int64(7), reference_arm="random",
            reference_front_size=np.int64(100))
        plain = replace(TINY, arms=TINY.arms + (ArmSpec("learned", lr=0.5,
                                                        steps_per_generation=2),))
        assert cfg.to_json() == plain.to_json()
        assert ExperimentConfig.from_json(cfg.to_json()) == plain

    def test_good_config_accepted(self):
        cfg = ExperimentConfig.from_json(json.dumps(self.GOOD), source="grid.json")
        assert cfg.problems == (ProblemCase("zdt1", d=8),) and cfg.evals == 16

    def test_config_json_round_trip(self):
        text = TINY.to_json()
        again = ExperimentConfig.from_json(text)
        assert again == TINY


def _grid(n_pop, evals):
    return ExperimentConfig(problems=(ProblemCase("zdt1", d=4),), arms=(ArmSpec("nsga2"),),
                            n_pop=n_pop, evals=evals, reference_arm="nsga2")


class TestRunSizes:
    """moea.check_run_sizes, the one run-size rule, at each entry point."""

    ENTRY_POINTS = {
        "run_nsga2": lambda n, e: run_nsga2(make_problem("zdt1", d=4), n, e),
        "collect_trajectories": lambda n, e: collect_trajectories(
            [make_problem("zdt1", d=4)], ["nsga2"], [0], n_pop=n, evals=e),
        "ExperimentConfig": _grid,
    }

    @pytest.mark.parametrize("n_pop,evals,message", [
        (4.0, 30, "population size must be an int, got 4.0"),
        (1, 30, "population size must be >= 2, got 1"),
        (True, 30, "population size must be an int, got True"),
        (10, 30.5, "evals must be an int, got 30.5"),
        (10, 5, "evals (5) must cover the initial population of 10"),
    ], ids=["float-pop", "pop-1", "bool-pop", "float-evals", "evals-below-pop"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_same_config_error_at_every_entry_point(self, entry, n_pop, evals, message):
        with pytest.raises(ConfigError) as exc:
            self.ENTRY_POINTS[entry](n_pop, evals)
        assert str(exc.value) == message

    def test_numpy_ints_are_sizes(self):
        cfg = _grid(np.int64(4), np.int64(12))
        assert ExperimentConfig.from_json(cfg.to_json()) == _grid(4, 12)
        assert run_nsga2(make_problem("zdt1", d=4), np.int64(4), np.int64(12)).evaluations == 12


class TestMallocThresholds:
    def test_glibc_takes_both_thresholds(self):
        if not hasattr(ctypes.CDLL(None), "gnu_get_libc_version"):
            pytest.skip("the C library is not glibc")
        assert bench.fix_malloc_thresholds() is True
        assert bench.fix_malloc_thresholds() is True  # setting them again is harmless

    def test_no_op_on_another_libc(self, monkeypatch):
        calls = []

        class MuslLike:  # a libc with a mallopt but none of glibc's symbols
            def mallopt(self, *args):
                calls.append(args)
                return 0

        monkeypatch.setattr(bench.ctypes, "CDLL", lambda name: MuslLike())
        assert bench.fix_malloc_thresholds() is False
        monkeypatch.setattr(bench.sys, "platform", "win32")
        monkeypatch.setattr(bench.ctypes, "CDLL", lambda name: calls.append(name))
        assert bench.fix_malloc_thresholds() is False
        assert calls == []


class TestRoc:
    def test_headline_fixture(self):
        assert roc_percent(7.82, 0.655) == pytest.approx(91.62, abs=0.005)

    def test_summary_computes_roc_from_best_baseline(self):
        records = []
        vals = {"a1": 4.0, "a2": 2.0, "ref": 1.0}
        for arm, med in vals.items():
            for i in range(5):
                records.append(RunRecord(arm=arm, problem="p", d=4, m=2, seed_index=i,
                                         seed=i, igd=med + 0.001 * i, evaluations=8,
                                         wall_time=0.0))
        cfg = ExperimentConfig(
            problems=(ProblemCase("p", d=4),),
            arms=(ArmSpec("nsga2", label="a1"), ArmSpec("nsga2", label="a2"),
                  ArmSpec("nsga2", label="ref")),
            n_pop=4, evals=8, n_seeds=5, reference_arm="ref",
        )
        summary = summarize(records, cfg)
        entry = summary["problems"][0]
        med_a2 = entry["arms"]["a2"]["median"]  # best baseline
        med_ref = entry["arms"]["ref"]["median"]
        want = (med_a2 - med_ref) / med_a2 * 100
        assert entry["roc_percent"] == pytest.approx(want, rel=1e-12)
        # fully separated with 5v5 seeds: exact p = 2/252 < 0.05, higher IGD -> worse
        assert entry["arms"]["a1"]["mark"] == "-"


class TestReports:
    def test_emit_files(self, tmp_path):
        records = run_benchmark(TINY)
        summary = summarize(records, TINY)
        paths = emit_report(records, summary, tmp_path / "reports")
        with open(paths["csv"]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(records) + 1  # header
        # full precision round trip through repr in the csv
        assert float(rows[1][6]) == records[0].igd
        loaded = json.loads(paths["json"].read_text())
        assert loaded["reference_arm"] == "random"
        table = paths["txt"].read_text()
        assert "zdt1" in table and "ROC(%)" in table
        # the table shows medians at three significant digits
        median = summary["problems"][0]["arms"]["nsga2"]["median"]
        assert f"{median:.2e}" in table
