"""The three pipeline steps the benchmark times, each as a popformer CLI call.

Every workload writes its inputs from the workload seed during set-up; the
program receives only those files and CLI arguments. After each operation the
workload checks the program's outputs and raises :class:`CheckFailed` when
they are wrong; a failed check counts the operation as failed.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from popformer.model import ModelConfig, PopulationTransformer, load_checkpoint, save_checkpoint
from popformer.problems import make_problem


class CheckFailed(Exception):
    """An operation's output is wrong; the message says which check failed."""


@dataclass(frozen=True)
class Outcome:
    """What a checked operation produced.

    ``items`` is the work done (evaluations or trajectory pairs), ``quality``
    the result the user reads (final IGD or final loss). Operations with equal
    ``key`` must give equal ``fingerprint``, which checks seeded determinism.
    """

    items: int
    quality: float
    key: object
    fingerprint: object


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _last_match(pattern: str, text: str, what: str) -> re.Match:
    matches = list(re.finditer(pattern, text, flags=re.MULTILINE))
    _require(bool(matches), f"no {what} line in the CLI output")
    return matches[-1]


def igd(front: np.ndarray, points: np.ndarray) -> float:
    """Mean distance from each reference point to its nearest obtained point."""
    diffs = front[:, None, :] - points[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1).mean())


class ClassicGrid:
    """``popformer benchmark``: NSGA-II, CSO and random arms on two problems.

    zdt1 (d=30, m=2) and lsmop1 (d=300, m=3) make both the per-variable SBX/PM
    loops and the three-objective sort show. Three seeds per cell keep the
    pooled rank-sum samples at six, so ``wilcoxon_rank_sum`` takes its exact
    path. Every operation repeats the same grid. The reported quality is the
    geometric mean of the cells' final IGD, so each problem weighs the same.
    """

    name = "classic_grid"
    boundaries = ("popformer.moea:sbx_pm_offspring", "popformer.moea:cso_step",
                  "popformer.moea:random_offspring")
    delimiter = "popformer.moea:run_generational"
    min_ops = 3
    problems = ({"name": "zdt1", "d": 30, "m": 2}, {"name": "lsmop1", "d": 300, "m": 3})
    arms = ("nsga2", "cso", "random")
    n_pop, evals, n_seeds = 100, 1000, 3

    def make_inputs(self, work: Path, seed: int) -> dict[str, Path]:
        config = {
            "problems": list(self.problems),
            "arms": [{"kind": kind} for kind in self.arms],
            "n_pop": self.n_pop,
            "evals": self.evals,
            "n_seeds": self.n_seeds,
            "master_seed": seed,
            "reference_arm": "nsga2",
        }
        self.config = work / "grid.json"
        self.config.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        return {"grid.json": self.config}

    def argv(self, op: int, out: Path) -> list[str]:
        return ["benchmark", "--config", str(self.config), "--out", str(out / "reports"),
                "--workers", "1"]

    def check(self, op: int, code: int, stdout: str, out: Path) -> Outcome:
        _require(code == 0, f"benchmark exited with {code}")
        with open(out / "reports" / "runs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = len(self.problems) * len(self.arms) * self.n_seeds
        _require(len(rows) == expected, f"runs.csv has {len(rows)} rows, expected {expected}")
        for row in rows:
            cell = f"{row['arm']}/{row['problem']}/seed {row['seed_index']}"
            _require(row["status"] == "ok", f"cell {cell} has status {row['status']}")
            _require(int(row["evaluations"]) == self.evals,
                     f"cell {cell} used {row['evaluations']} evaluations of {self.evals}")
            _require(math.isfinite(float(row["igd"])), f"cell {cell} has IGD {row['igd']}")
        igds = tuple(float(row["igd"]) for row in rows)
        return Outcome(items=sum(int(row["evaluations"]) for row in rows),
                       quality=float(np.exp(np.mean(np.log(igds)))), key="grid",
                       fingerprint=igds)


class Pretrain:
    """``popformer pretrain`` with the default model and batch 8.

    The dataset has a long shape group (N=100, d=30, m=2: arithmetic-bound
    steps) and a short one (N=20, d=10, m=3: overhead-bound steps). Group sizes
    are multiples of the batch, so every step trains exactly 8 pairs; one long
    batch per three short ones keeps the median step in the short group and
    the tail in the long one. Each pass over the data runs the long batch
    first or last, so the 30th step, the second of the eighth pass, is always
    a short batch and the printed final loss never switches group. The pairs
    come from numpy formulas here, not from the program's own evolutionary
    loops.
    """

    name = "pretrain"
    boundaries = ("popformer.nn.optim:Adam.step",)
    delimiter = None
    min_ops = 3
    batch, steps = 8, 30
    groups = ((100, 30, 2, 8), (20, 10, 3, 24))  # (N, d, m, pairs)

    def make_inputs(self, work: Path, seed: int) -> dict[str, Path]:
        self.seed = seed
        self.data = work / "pairs.jsonl"
        write_dataset(self.data, np.random.default_rng(seed), self.groups)
        return {"pairs.jsonl": self.data}

    def argv(self, op: int, out: Path) -> list[str]:
        return ["pretrain", "--data", str(self.data), "--steps", str(self.steps),
                "--batch", str(self.batch), "--seed", str(self.seed),
                "--out", str(out / "model.petm")]

    def check(self, op: int, code: int, stdout: str, out: Path) -> Outcome:
        _require(code == 0, f"pretrain exited with {code}")
        last = _last_match(r"^step\s+(\d+)\s+loss\s+(\S+)$", stdout, "loss")
        _require(int(last.group(1)) == self.steps,
                 f"last logged step is {last.group(1)}, expected {self.steps}")
        loss = float(last.group(2))
        _require(math.isfinite(loss), f"final loss is {loss}")
        checkpoint = out / "model.petm"
        resaved = out / "resaved.petm"
        save_checkpoint(load_checkpoint(checkpoint), resaved)
        _require(resaved.read_bytes() == checkpoint.read_bytes(),
                 "checkpoint does not re-save byte-identically")
        return Outcome(items=self.steps * self.batch, quality=loss, key="pretrain",
                       fingerprint=loss)


class LearnedOptimize:
    """``popformer optimize`` on zdt6 (d=30, N=100) with fine-tuning on.

    The checkpoint is a seeded-init model written here, so its weights do not
    depend on the pretrain code. Operations cycle through ``min_ops`` seeds;
    the reported quality is the median final IGD over them.
    """

    name = "learned_optimize"
    boundaries = ("popformer.model:PopulationTransformer.generate",)
    delimiter = None
    min_ops = 5
    problem, d, n_pop, evals = "zdt6", 30, 100, 1000

    def make_inputs(self, work: Path, seed: int) -> dict[str, Path]:
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=self.min_ops + 1)]
        self.model = work / "init.petm"
        write_seeded_checkpoint(self.model, rng)
        return {"init.petm": self.model}

    def seed_for(self, op: int) -> int:
        """The warm-up (op -1) has a seed of its own; timed operations cycle."""
        return self.seeds[-1] if op < 0 else self.seeds[op % self.min_ops]

    def argv(self, op: int, out: Path) -> list[str]:
        return ["optimize", "--problem", self.problem, "--d", str(self.d),
                "--pop", str(self.n_pop), "--evals", str(self.evals),
                "--seed", str(self.seed_for(op)),
                "--model", str(self.model), "--log", str(out / "log.jsonl"),
                "--solutions-out", str(out / "solutions.csv")]

    def check(self, op: int, code: int, stdout: str, out: Path) -> Outcome:
        _require(code == 0, f"optimize exited with {code}")
        used = int(_last_match(r"^evaluations used: (\d+)$", stdout, "evaluations").group(1))
        _require(used == self.evals, f"CLI reports {used} evaluations of {self.evals}")
        with open(out / "log.jsonl", encoding="utf-8") as fh:
            log = [json.loads(line) for line in fh if line.strip()]
        _require(bool(log), "empty optimize log")
        _require(log[-1]["evaluations"] == self.evals,
                 f"log ends at {log[-1]['evaluations']} evaluations of {self.evals}")
        drawn = self.n_pop + sum(entry["offspring_evaluated"] for entry in log)
        _require(drawn == self.evals, f"log accounts for {drawn} evaluations of {self.evals}")
        printed = float(_last_match(r"^final IGD: (\S+)$", stdout, "IGD").group(1))
        points = np.loadtxt(out / "solutions.csv", delimiter=",", ndmin=2)
        value = igd(self.front, points)
        _require(abs(value - printed) <= 5e-7 * abs(printed),
                 f"recomputed IGD {value!r} differs from printed {printed!r}")
        return Outcome(items=used, quality=value, key=self.seed_for(op), fingerprint=value)

    @cached_property
    def front(self) -> np.ndarray:
        """The reference front the CLI scores against: 1,000 points for m=2."""
        return make_problem(self.problem, d=self.d).reference_front(1000)


WORKLOADS = {w.name: w for w in (ClassicGrid, Pretrain, LearnedOptimize)}


def _objectives(x: np.ndarray, m: int) -> np.ndarray:
    """ZDT1 for two objectives, DTLZ2 for three."""
    if m == 2:
        g = 1.0 + 9.0 * x[:, 1:].mean(axis=1)
        return np.column_stack([x[:, 0], g * (1.0 - np.sqrt(x[:, 0] / g))])
    g = ((x[:, 2:] - 0.5) ** 2).sum(axis=1)
    a, b = x[:, 0] * np.pi / 2, x[:, 1] * np.pi / 2
    return (1.0 + g)[:, None] * np.column_stack(
        [np.cos(a) * np.cos(b), np.cos(a) * np.sin(b), np.sin(a)])


def _minmax(f: np.ndarray) -> np.ndarray:
    low = f.min(axis=0)
    return (f - low) / (f.max(axis=0) - low)


def write_dataset(path: Path, rng: np.random.Generator, groups) -> None:
    """Write synthetic (generation, next generation) pairs in the documented
    JSONL dataset format: a manifest line, then one record per pair with unit-box
    decisions and per-generation min-max objectives. The next generation is the
    current one ordered by its first objective and jittered."""
    records, cells = [], []
    for n, d, m, count in groups:
        name = f"synthetic_d{d}_m{m}"
        for generation in range(count):
            x = rng.random((n, d))
            order = np.argsort(_objectives(x, m)[:, 0], kind="stable")
            x1 = np.clip(x[order] + rng.normal(0.0, 0.05, size=(n, d)), 0.0, 1.0)
            records.append({
                "problem": name, "d": d, "m": m, "teacher": "synthetic", "seed": 0,
                "generation": generation,
                "x_g": x.tolist(), "f_g": _minmax(_objectives(x, m)).tolist(),
                "x_g1": x1.tolist(), "f_g1": _minmax(_objectives(x1, m)).tolist(),
            })
        cells.append({"problem": name, "d": d, "m": m, "teacher": "synthetic", "seed": 0,
                      "pairs": count})
    manifest = {"format": "popformer-trajectories", "version": 1,
                "pair_count": len(records), "cells": cells}
    with open(path, "w", encoding="utf-8") as fh:
        for obj in [manifest] + records:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def write_seeded_checkpoint(path: Path, rng: np.random.Generator) -> None:
    """Default-config checkpoint whose weights are drawn here: weight matrices
    U(-1/sqrt(fan_in), 1/sqrt(fan_in)), norm gains one, biases zero."""
    model = PopulationTransformer(ModelConfig(), seed=0)
    for name, tensor in model.named_parameters():
        shape = tensor.data.shape
        if name.endswith(".gain"):
            tensor.data = np.ones(shape)
        elif name.endswith((".b", ".bias")):
            tensor.data = np.zeros(shape)
        else:
            limit = 1.0 / math.sqrt(shape[0])
            tensor.data = rng.uniform(-limit, limit, size=shape)
    save_checkpoint(model, path)
