"""Experiment orchestration: run (arm x problem x seed) grids, aggregate IGD
medians, compare arms with the rank-sum test and emit CSV/JSON/text reports."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, IgdUndefined
from .metrics import igd, wilcoxon_rank_sum
from .model import ModelConfig, PopulationTransformer, load_checkpoint
from .moea import run_cso, run_nsga2, run_random_search
from .pipeline import FinetuneConfig, run_nsga2_model
from .problems import make_problem


def _run_learned(arm, problem, n_pop, evals, seed):
    if arm.model:
        model = load_checkpoint(arm.model)
    else:
        model = PopulationTransformer(ModelConfig(), seed=seed)
    fine = FinetuneConfig(steps_per_generation=arm.steps_per_generation,
                          lr=arm.lr, enabled=arm.finetune)
    return run_nsga2_model(problem, model, n_pop, evals, fine_cfg=fine, seed=seed)


# Arm kind -> runner(arm, problem, n_pop, evals, seed). Each entry looks its
# runner up by name when called, so a wrapped module-level runner is the one run.
ARM_RUNNERS = {
    "nsga2": lambda arm, p, n, e, seed: run_nsga2(p, n, e, seed=seed),
    "cso": lambda arm, p, n, e, seed: run_cso(p, n, e, seed=seed),
    "random": lambda arm, p, n, e, seed: run_random_search(p, n, e, seed=seed),
    "learned": lambda arm, p, n, e, seed: _run_learned(arm, p, n, e, seed),
}
ARM_KINDS = tuple(ARM_RUNNERS)


@dataclass(frozen=True)
class ArmSpec:
    """One algorithm arm. ``learned`` arms need a checkpoint path (or run a
    freshly initialized model when ``model`` is null, the no-training arm)."""

    kind: str
    label: str | None = None
    model: str | None = None
    finetune: bool = True
    lr: float = 1e-4
    steps_per_generation: int = 1

    def __post_init__(self):
        if self.kind not in ARM_KINDS:
            raise ConfigError(f"unknown arm kind {self.kind!r} (known: {ARM_KINDS})")
        if self.label is None:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True)
class ProblemCase:
    name: str
    d: int
    m: int = 2


@dataclass(frozen=True)
class ExperimentConfig:
    problems: tuple[ProblemCase, ...]
    arms: tuple[ArmSpec, ...]
    n_pop: int = 100
    evals: int = 1000
    n_seeds: int = 20
    master_seed: int = 0
    reference_arm: str = "learned"
    reference_front_size: int | None = None
    alpha: float = 0.05

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        labels = [a.label for a in self.arms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate arm labels: {labels}")
        if self.reference_arm not in labels:
            raise ConfigError(f"reference arm {self.reference_arm!r} not among arms {labels}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        problems = tuple(ProblemCase(**p) for p in raw.pop("problems"))
        arms = tuple(ArmSpec(**a) for a in raw.pop("arms"))
        return cls(problems=problems, arms=arms, **raw)

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, sort_keys=True, indent=2)


@dataclass
class RunRecord:
    arm: str
    problem: str
    d: int
    m: int
    seed_index: int
    seed: int
    igd: float
    evaluations: int
    wall_time: float
    status: str = "ok"
    error: str | None = None


def derive_seed(master_seed: int, arm: str, problem: str, d: int, m: int, index: int) -> int:
    """Deterministic, platform-independent per-cell seed."""
    key = f"{master_seed}|{arm}|{problem}|{d}|{m}|{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def default_front_size(m: int) -> int:
    return 1000 if m <= 3 else 5000


def _blank_record(payload: dict) -> dict:
    """A cell's record before it runs: its key fields, no result yet."""
    case = payload["problem"]
    return {
        "arm": ArmSpec(**payload["arm"]).label, "problem": case["name"], "d": case["d"],
        "m": case["m"], "seed_index": payload["seed_index"], "seed": payload["seed"],
        "igd": math.nan, "evaluations": 0, "wall_time": 0.0,
        "status": "ok", "error": None,
    }


def _run_cell(payload: dict) -> dict:
    """Execute one (arm, problem, seed) cell; importable for worker pools."""
    arm = ArmSpec(**payload["arm"])
    case = ProblemCase(**payload["problem"])
    record = _blank_record(payload)
    start = time.perf_counter()
    try:
        problem = make_problem(case.name, d=case.d, m=case.m)
        front = problem.reference_front(payload["front_size"] or default_front_size(case.m))
        result = ARM_RUNNERS[arm.kind](arm, problem, payload["n_pop"], payload["evals"],
                                       payload["seed"])
        pop = result.population
        record["igd"] = igd(front, pop.f[pop.cv == 0]).value
        record["evaluations"] = result.evaluations
    except IgdUndefined:
        record["status"] = "infeasible"
    except Exception as exc:  # cell failures are data, not crashes
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["wall_time"] = time.perf_counter() - start
    return record


def _pooled_result(future, payload: dict) -> dict:
    """A worker's record, or a failed one naming why the worker gave none."""
    try:
        return future.result()
    except Exception as exc:  # e.g. BrokenProcessPool when a worker dies
        return {**_blank_record(payload), "status": "failed",
                "error": f"worker failed: {type(exc).__name__}: {exc}"}


def run_benchmark(cfg: ExperimentConfig, workers: int = 1) -> list[RunRecord]:
    """Run every (arm x problem x seed) cell with derived seeds.

    Cells are keyed deterministically; with ``workers > 1`` they execute in a
    process pool and merge back in key order. A cell whose worker raised or
    died, which breaks the pool for every cell still pending, becomes a
    ``failed`` record naming the error; finished cells keep their results.
    """
    payloads = []
    for case in cfg.problems:
        for arm in cfg.arms:
            for idx in range(cfg.n_seeds):
                payloads.append({
                    "arm": asdict(arm),
                    "problem": asdict(case),
                    "seed_index": idx,
                    "seed": derive_seed(cfg.master_seed, arm.label, case.name,
                                        case.d, case.m, idx),
                    "n_pop": cfg.n_pop,
                    "evals": cfg.evals,
                    "front_size": cfg.reference_front_size,
                })
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, p) for p in payloads]
            results = [_pooled_result(f, p) for f, p in zip(futures, payloads)]
    else:
        results = [_run_cell(p) for p in payloads]
    return [RunRecord(**r) for r in results]


def roc_percent(best_baseline: float, ours: float) -> float:
    """Relative improvement of ``ours`` over the best baseline, in percent."""
    return (best_baseline - ours) / best_baseline * 100.0


def summarize(records: list[RunRecord], cfg: ExperimentConfig) -> dict:
    """Medians per (arm, problem), rank-sum marks against the reference arm,
    and the percent improvement over the best baseline median."""
    problems = [(c.name, c.d, c.m) for c in cfg.problems]
    by_cell: dict[tuple, list[float]] = {}
    for r in records:
        if r.status == "ok" and math.isfinite(r.igd):
            by_cell.setdefault((r.arm, r.problem, r.d, r.m), []).append(r.igd)

    summary: dict = {"reference_arm": cfg.reference_arm, "alpha": cfg.alpha, "problems": []}
    for name, d, m in problems:
        ref_vals = by_cell.get((cfg.reference_arm, name, d, m), [])
        entry: dict = {
            "problem": name, "d": d, "m": m,
            "arms": {},
        }
        for arm in cfg.arms:
            vals = by_cell.get((arm.label, name, d, m), [])
            cell: dict = {
                "median": float(np.median(vals)) if vals else math.nan,
                "runs_ok": len(vals),
            }
            if arm.label != cfg.reference_arm:
                if len(vals) >= 3 and len(ref_vals) >= 3:
                    test = wilcoxon_rank_sum(vals, ref_vals, alpha=cfg.alpha)
                    cell["p_value"] = test.p_value
                    cell["mark"] = {"better": "+", "worse": "-", "indifferent": "="}[test.decision]
                else:
                    cell["p_value"] = math.nan
                    cell["mark"] = "?"
            entry["arms"][arm.label] = cell
        baselines = [entry["arms"][a.label]["median"] for a in cfg.arms
                     if a.label != cfg.reference_arm]
        baselines = [v for v in baselines if not math.isnan(v)]
        ref_median = entry["arms"].get(cfg.reference_arm, {}).get("median", math.nan)
        if baselines and not math.isnan(ref_median):
            entry["roc_percent"] = roc_percent(min(baselines), ref_median)
        else:
            entry["roc_percent"] = math.nan
        summary["problems"].append(entry)
    return summary


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    return f"{v:.2e}"


def emit_report(records: list[RunRecord], summary: dict, out_dir) -> dict[str, Path]:
    """Write runs.csv (one row per record), summary.json and table.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    csv_path = out / "runs.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "problem", "d", "m", "seed_index", "seed",
                         "igd", "evaluations", "wall_time", "status", "error"])
        for r in records:
            writer.writerow([r.arm, r.problem, r.d, r.m, r.seed_index, r.seed,
                             repr(r.igd), r.evaluations, repr(r.wall_time),
                             r.status, r.error or ""])
    paths["csv"] = csv_path

    json_path = out / "summary.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=True)
    paths["json"] = json_path

    txt_path = out / "table.txt"
    arms = list(summary["problems"][0]["arms"]) if summary["problems"] else []
    ref = summary["reference_arm"]
    with open(txt_path, "w", encoding="utf-8") as fh:
        header = ["problem", "d", "m"] + arms + ["ROC(%)"]
        fh.write("  ".join(f"{h:>12}" for h in header) + "\n")
        for entry in summary["problems"]:
            row = [entry["problem"], str(entry["d"]), str(entry["m"])]
            for arm in arms:
                cell = entry["arms"][arm]
                text = _fmt(cell["median"])
                if arm != ref:
                    text += cell.get("mark", "")
                row.append(text)
            roc = entry["roc_percent"]
            row.append("NaN" if math.isnan(roc) else f"{roc:.2f}%")
            fh.write("  ".join(f"{c:>12}" for c in row) + "\n")
    paths["txt"] = txt_path
    return paths
