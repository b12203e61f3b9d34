import csv
import json
import math
import os

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
from popformer.errors import ConfigError

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

    def test_config_json_round_trip(self):
        text = TINY.to_json()
        again = ExperimentConfig.from_json(text)
        assert again == TINY


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
