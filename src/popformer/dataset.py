"""Recorded population-transition pairs and their line-delimited JSON storage.

Pairs are normalized at construction: decisions into the unit box via the
problem bounds, objectives min-max per generation. A stored dataset is
therefore problem-scale-free; the original bounds live in the manifest.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import Population, ProblemSpec, normalize_decision
from .errors import DataError

DATASET_FORMAT = "popformer-trajectories"
DATASET_VERSION = 1


def minmax_normalize_objectives(objs: np.ndarray) -> np.ndarray:
    """Column-wise min-max to [0, 1]; zero-range columns map to 0.5."""
    lo = objs.min(axis=0)
    hi = objs.max(axis=0)
    span = hi - lo
    out = np.full_like(objs, 0.5, dtype=float)
    ok = span > 0
    out[:, ok] = (objs[:, ok] - lo[ok]) / span[ok]
    return out


@dataclass(frozen=True)
class TrajectoryPair:
    """One (generation g, generation g+1) pair, stored in normalized space."""

    problem_name: str
    d: int
    m: int
    teacher: str
    seed: int
    generation: int
    x_g: Population
    x_g1: Population

    def __post_init__(self):
        if len(self.x_g) != len(self.x_g1) or len(self.x_g) == 0:
            raise DataError("pair populations must be non-empty and equal-sized")
        if not (self.x_g.all_evaluated and self.x_g1.all_evaluated):
            raise DataError("pair populations must be fully evaluated")
        for pop in (self.x_g, self.x_g1):
            if pop.x.shape[1] != self.d or pop.f.shape[1] != self.m:
                raise DataError(
                    f"pair dimensions (d={pop.x.shape[1]}, m={pop.f.shape[1]}) "
                    f"do not match declared (d={self.d}, m={self.m})"
                )

    @classmethod
    def from_populations(cls, spec: ProblemSpec, x_g: Population, x_g1: Population,
                         teacher: str, seed: int, generation: int) -> "TrajectoryPair":
        """Normalize two raw (bound-space) populations into a stored pair."""
        if not (x_g.all_evaluated and x_g1.all_evaluated):
            raise DataError("cannot build a pair from unevaluated populations")
        x_g, x_g1 = (Population(normalize_decision(p.x, spec), minmax_normalize_objectives(p.f),
                                np.zeros(len(p)), p.generation_index) for p in (x_g, x_g1))
        return cls(problem_name=spec.name, d=spec.d, m=spec.m, teacher=teacher,
                   seed=seed, generation=generation, x_g=x_g, x_g1=x_g1)

    @property
    def size(self) -> int:
        return len(self.x_g)

    def unit_spec(self) -> ProblemSpec:
        return ProblemSpec.unit_box(self.problem_name, self.d, self.m)

    def group_key(self) -> tuple:
        return (self.d, self.m, self.size)

    def sort_key(self) -> tuple:
        return (self.problem_name, self.d, self.m, self.teacher, self.seed, self.generation)


def _pair_record(pair: TrajectoryPair) -> dict:
    return {
        "problem": pair.problem_name,
        "d": pair.d,
        "m": pair.m,
        "teacher": pair.teacher,
        "seed": pair.seed,
        "generation": pair.generation,
        "x_g": pair.x_g.x.tolist(),
        "f_g": pair.x_g.f.tolist(),
        "x_g1": pair.x_g1.x.tolist(),
        "f_g1": pair.x_g1.f.tolist(),
    }


class TrajectorySink:
    """Collects pairs from one run; one sink per run."""

    def __init__(self):
        self.pairs: list[TrajectoryPair] = []

    def append(self, pair: TrajectoryPair) -> None:
        self.pairs.append(pair)


@dataclass
class TrajectoryDataset:
    """A set of pairs plus the provenance manifest describing where they came from."""

    pairs: list[TrajectoryPair] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        cells: dict[tuple, int] = {}
        for p in self.pairs:
            key = (p.problem_name, p.d, p.m, p.teacher, p.seed)
            cells[key] = cells.get(key, 0) + 1
        return {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "pair_count": len(self.pairs),
            "cells": [
                {"problem": k[0], "d": k[1], "m": k[2], "teacher": k[3], "seed": k[4], "pairs": v}
                for k, v in sorted(cells.items())
            ],
            **self.extra,
        }

    def save(self, path) -> None:
        records = sorted(self.pairs, key=TrajectoryPair.sort_key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.manifest(), sort_keys=True, separators=(",", ":")) + "\n")
            for pair in records:
                fh.write(json.dumps(_pair_record(pair), sort_keys=True,
                                    separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "TrajectoryDataset":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
        if not lines:
            raise DataError(f"{path}: empty dataset file")
        manifest = json.loads(lines[0][1])
        if manifest.get("format") != DATASET_FORMAT:
            raise DataError(f"{path}: not a trajectory dataset (format={manifest.get('format')!r})")
        if manifest.get("version") != DATASET_VERSION:
            raise DataError(f"{path}: unsupported dataset version {manifest.get('version')!r}")
        pairs = []
        for no, ln in lines[1:]:
            try:
                rec = json.loads(ln)
                gen = int(rec["generation"])
                pairs.append(TrajectoryPair(
                    problem_name=rec["problem"], d=int(rec["d"]), m=int(rec["m"]),
                    teacher=rec["teacher"], seed=int(rec["seed"]), generation=gen,
                    x_g=Population(rec["x_g"], rec["f_g"], np.zeros(len(rec["f_g"])), gen),
                    x_g1=Population(rec["x_g1"], rec["f_g1"], np.zeros(len(rec["f_g1"])),
                                    gen + 1),
                ))
            except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
                raise DataError(f"{path}: line {no}: malformed record: {exc!r}") from exc
        if manifest.get("pair_count") != len(pairs):
            raise DataError(
                f"{path}: manifest declares {manifest.get('pair_count')} pairs, found {len(pairs)}"
            )
        extra = {k: v for k, v in manifest.items()
                 if k not in ("format", "version", "pair_count", "cells")}
        return cls(pairs=pairs, extra=extra)
