"""Experiment orchestration: run (arm x problem x seed) grids, aggregate IGD
medians, compare arms with the rank-sum test and emit CSV/JSON/text reports."""
from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .core import require_count
from .errors import ConfigError, IgdUndefined
from .metrics import igd, wilcoxon_rank_sum
from .model import ModelConfig, PopulationTransformer, load_checkpoint
from .moea import check_run_sizes, run_cso, run_nsga2, run_random_search
from .pipeline import FinetuneConfig, run_nsga2_model
from .problems import make_problem


def _run_learned(arm, problem, n_pop, evals, seed):
    if arm.model:
        model = load_checkpoint(arm.model)
    else:
        model = PopulationTransformer(ModelConfig(), seed=seed)
    return run_nsga2_model(problem, model, n_pop, evals, fine_cfg=arm.finetune_config(),
                           seed=seed)


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
    freshly initialized model when ``model`` is null, the no-training arm);
    ``lr`` and ``steps_per_generation`` set their online update."""

    kind: str
    label: str | None = None
    model: str | None = None
    lr: float = FinetuneConfig.lr
    steps_per_generation: int = FinetuneConfig.steps_per_generation

    def __post_init__(self):
        if self.kind not in ARM_KINDS:
            raise ConfigError(f"unknown arm kind {self.kind!r} (known: {ARM_KINDS})")
        self.finetune_config()  # validates lr and steps_per_generation
        if self.label is None:
            object.__setattr__(self, "label", self.kind)

    def finetune_config(self) -> FinetuneConfig:
        return FinetuneConfig(steps_per_generation=self.steps_per_generation, lr=self.lr)


@dataclass(frozen=True)
class ProblemCase:
    name: str
    d: int
    m: int = 2

    def __post_init__(self):
        require_count(self.d, "d")
        require_count(self.m, "m", minimum=2)


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
        check_run_sizes(self.n_pop, self.evals)
        require_count(self.n_seeds, "n_seeds")
        require_count(self.master_seed, "master_seed", minimum=None)
        if self.reference_front_size is not None:
            require_count(self.reference_front_size, "reference_front_size")
        if not (self.problems and self.arms):
            raise ConfigError("a grid needs at least one problem and one arm")
        if not (isinstance(self.alpha, (int, float)) and 0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha!r}")
        labels = [a.label for a in self.arms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate arm labels: {labels}")
        if self.reference_arm not in labels:
            raise ConfigError(f"reference arm {self.reference_arm!r} not among arms {labels}")

    @classmethod
    def from_json(cls, text: str, source: str = "experiment config") -> "ExperimentConfig":
        """Parse a grid config; any problem with it is a ConfigError naming
        ``source``, e.g. the file it came from."""
        try:
            raw = json.loads(text)
            if not isinstance(raw, dict):
                raise ConfigError(f"must be a JSON object, got {type(raw).__name__}")
            problems = tuple(ProblemCase(**p) for p in raw.pop("problems", ()))
            arms = tuple(ArmSpec(**a) for a in raw.pop("arms", ()))
            return cls(problems=problems, arms=arms, **raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: bad JSON: {exc}") from exc
        except (ConfigError, TypeError) as exc:  # TypeError: an entry's fields do not fit
            raise ConfigError(f"{source}: {exc}") from exc

    def to_json(self) -> str:
        # numpy numbers, which the checks accept, are written as Python numbers
        return json.dumps(asdict(self), sort_keys=True, indent=2, default=np.generic.item)


@dataclass
class RunRecord:
    arm: str
    problem: str
    d: int
    m: int
    seed_index: int
    seed: int
    igd: float = math.nan
    evaluations: int = 0
    wall_time: float = 0.0
    status: str = "ok"
    error: str | None = None


def derive_seed(master_seed: int, arm: str, problem: str, d: int, m: int, index: int) -> int:
    """Deterministic, platform-independent per-cell seed."""
    key = f"{master_seed}|{arm}|{problem}|{d}|{m}|{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def default_front_size(m: int) -> int:
    return 1000 if m <= 3 else 5000


def _run_cell(record: RunRecord, arm: ArmSpec, cfg: ExperimentConfig) -> RunRecord:
    """Execute one (arm, problem, seed) cell from its blank ``record``;
    importable for worker pools."""
    start = time.perf_counter()
    try:
        problem = make_problem(record.problem, d=record.d, m=record.m)
        front = problem.reference_front(cfg.reference_front_size
                                        or default_front_size(record.m))
        result = ARM_RUNNERS[arm.kind](arm, problem, cfg.n_pop, cfg.evals, record.seed)
        pop = result.population
        record = replace(record, igd=igd(front, pop.f[pop.cv == 0]).value,
                         evaluations=result.evaluations)
    except IgdUndefined:
        record = replace(record, status="infeasible")
    except Exception as exc:  # cell failures are data, not crashes
        record = replace(record, status="failed", error=f"{type(exc).__name__}: {exc}")
    return replace(record, wall_time=time.perf_counter() - start)


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS when it exports the scipy-openblas thread
    setter, else None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold at 32 MiB, the ceiling of its dynamic rule
    on 64-bit, and its trim threshold at twice that, as the rule keeps them.
    Left dynamic, both rise when a larger mmap-served block is freed, so speed
    would rest on which temporaries came first. True when glibc took both;
    on another libc a no-op that returns False."""
    libc = ctypes.CDLL(None) if sys.platform != "win32" else None
    if not hasattr(libc, "gnu_get_libc_version"):  # musl, macOS, Windows
        return False
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h
    return libc.mallopt(-3, 32 << 20) == 1 and libc.mallopt(-1, 64 << 20) == 1


def _init_worker() -> None:
    """Pool initializer: the fixed malloc thresholds, and one BLAS thread per
    worker, so ``workers`` processes do not each start a BLAS thread per core.
    Without the setter it leaves BLAS alone."""
    fix_malloc_thresholds()
    if (lib := _openblas()) is not None:
        setter = lib.scipy_openblas_set_num_threads64_
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _pooled_result(future, blank: RunRecord) -> RunRecord:
    """A worker's record, or the ``blank`` one failed, naming why the worker
    gave none."""
    try:
        return future.result()
    except Exception as exc:  # e.g. BrokenProcessPool when a worker dies
        return replace(blank, status="failed",
                       error=f"worker failed: {type(exc).__name__}: {exc}")


def run_benchmark(cfg: ExperimentConfig, workers: int = 1) -> list[RunRecord]:
    """Run every (arm x problem x seed) cell with derived seeds.

    Each cell is one :class:`RunRecord` throughout: built here with its key
    fields and no result, then filled in by its run. Cells are keyed
    deterministically; with ``workers > 1`` they execute in a
    process pool, each worker pinned to one BLAS thread, and merge back in
    key order. A cell whose worker raised or died, which breaks the pool for
    every cell still pending, becomes a ``failed`` record naming the error;
    finished cells keep their results. Fewer than one worker is a
    ConfigError.
    """
    require_count(workers, "workers")
    cells = [(arm, RunRecord(arm.label, case.name, case.d, case.m, idx,
                             derive_seed(cfg.master_seed, arm.label, case.name,
                                         case.d, case.m, idx)))
             for case in cfg.problems for arm in cfg.arms for idx in range(cfg.n_seeds)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker) as pool:
            futures = [pool.submit(_run_cell, blank, arm, cfg) for arm, blank in cells]
            return [_pooled_result(f, blank) for f, (_, blank) in zip(futures, cells)]
    return [_run_cell(blank, arm, cfg) for arm, blank in cells]


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
