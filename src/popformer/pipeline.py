"""Offline training on recorded trajectories, and the learned arm: the one
generational run loop with the model as its offspring generator and an
online update from fresh evaluations after each generation."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Population, Problem
from .dataset import TrajectoryDataset, TrajectoryPair, TrajectorySink
from .errors import CapacityError, ConfigError, ContractViolation, DataError
from .metrics import igd
from .model import PopulationTransformer, teacher_forced_loss
from .moea import TEACHERS, RunResult, run_generational
from .nn import Adam

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 1000
    batch_size: int = 64
    lr: float = 1e-3
    lr_final: float | None = None  # cosine-decay target; None keeps lr constant
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.1
    seed: int = 0
    eval_every: int = 50

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be >= 1")
        if self.lr <= 0 or (self.lr_final is not None and self.lr_final <= 0):
            raise ConfigError("learning rates must be positive")

    def lr_at(self, step: int) -> float:
        if self.lr_final is None:
            return self.lr
        frac = (step - 1) / max(1, self.steps - 1)
        return self.lr_final + 0.5 * (self.lr - self.lr_final) * (1.0 + np.cos(np.pi * frac))


@dataclass(frozen=True)
class FinetuneConfig:
    """Per-generation online update inside the optimization loop.

    Each enabled generation takes ``steps_per_generation`` Adam steps of size
    ``lr`` (no weight decay) toward the offspring that survived selection, or
    toward all survivors when fewer than two offspring did; see
    :func:`finetune_step`.
    """

    steps_per_generation: int = 1
    lr: float = 1e-4
    enabled: bool = True

    def __post_init__(self):
        if self.steps_per_generation < 0:
            raise ConfigError("steps_per_generation must be >= 0")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")


def collect_trajectories(problems: list[Problem], teachers: list[str], seeds: list[int],
                         n_pop: int, evals: int) -> TrajectoryDataset:
    """Run every (problem, teacher, seed) cell and gather its generation pairs.

    A failing cell is logged and skipped; collection continues. Cells run in
    sorted key order, so identical inputs give byte-identical datasets.
    """
    for t in teachers:
        if t not in TEACHERS:
            raise ConfigError(f"unknown teacher {t!r} (known: {sorted(TEACHERS)})")
    dataset = TrajectoryDataset(extra={"population_size": n_pop, "evaluations_per_run": evals})
    cells = sorted(
        ((p, t, s) for p in problems for t in teachers for s in seeds),
        key=lambda c: (c[0].spec.name, c[0].spec.d, c[0].spec.m, c[1], c[2]),
    )
    for problem, teacher, seed in cells:
        sink = TrajectorySink()
        try:
            TEACHERS[teacher](problem, n_pop, evals, seed=seed, sink=sink)
        except Exception:
            log.exception("collection cell failed: %s/%s/seed=%s; skipping",
                          problem.spec.name, teacher, seed)
            continue
        dataset.pairs.extend(sink.pairs)
    return dataset


def _check_pair_capacity(pair: TrajectoryPair, model: PopulationTransformer) -> None:
    cfg = model.config
    if pair.d > cfg.d_hat or pair.m > cfg.m_hat or pair.size > cfg.max_seq:
        raise CapacityError(
            f"pair {pair.problem_name} (d={pair.d}, m={pair.m}, n={pair.size}) exceeds model "
            f"capacity (d_hat={cfg.d_hat}, m_hat={cfg.m_hat}, max_seq={cfg.max_seq})"
        )


def pretrain(dataset: TrajectoryDataset, model: PopulationTransformer,
             cfg: PretrainConfig) -> list[tuple[int, float]]:
    """Shuffled mini-batch teacher forcing for ``cfg.steps`` Adam steps.

    Batches only mix pairs with equal (d, m, population size) so the padding
    pattern is uniform; groups and pairs are reshuffled every pass. Returns
    the logged (step, mean batch loss) curve.
    """
    if not dataset.pairs:
        raise DataError("cannot pretrain on an empty dataset")
    for pair in dataset.pairs:
        _check_pair_capacity(pair, model)
    groups: dict[tuple, list[TrajectoryPair]] = {}
    for pair in sorted(dataset.pairs, key=TrajectoryPair.sort_key):
        groups.setdefault(pair.group_key(), []).append(pair)
    rng = np.random.default_rng(cfg.seed)
    model.optimizer = Adam(model.parameters(), lr=cfg.lr, beta1=cfg.beta1,
                           beta2=cfg.beta2, weight_decay=cfg.weight_decay)
    model.online_optimizer = None

    def batches():
        while True:
            keys = sorted(groups)
            rng.shuffle(keys)
            for key in keys:
                pairs = groups[key][:]
                rng.shuffle(pairs)
                for i in range(0, len(pairs), cfg.batch_size):
                    yield pairs[i:i + cfg.batch_size]

    curve: list[tuple[int, float]] = []
    stream = batches()
    for step in range(1, cfg.steps + 1):
        batch = next(stream)
        model.zero_grad()
        total = 0.0
        for pair in batch:
            total += teacher_forced_loss(model, pair.x_g, pair.x_g1, pair.unit_spec())
        inv = 1.0 / len(batch)
        for p in model.parameters():
            if p.grad is not None:
                p.grad *= inv
        model.optimizer.lr = cfg.lr_at(step)
        model.optimizer.step()
        mean_loss = total * inv
        if not np.isfinite(mean_loss):
            raise DataError(f"non-finite training loss at step {step}")
        if step % cfg.eval_every == 0 or step == cfg.steps or step == 1:
            curve.append((step, mean_loss))
    return curve


def finetune_step(model: PopulationTransformer, x_g: Population, x_g1: Population,
                  problem: Problem, cfg: FinetuneConfig, selected: np.ndarray) -> float | None:
    """One online update: train toward the offspring that selection kept.

    ``selected`` is nsga2_select's choice over (parents u offspring) at the
    parent population size: indices into ``x_g`` followed by ``x_g1``, in
    selection order. The target is the offspring among them, the indices
    from ``len(x_g)`` on, in that order. Training toward the whole survivor
    set instead would teach copying: its displacement from the parents is
    only the surviving share of the model's own step, so every update
    shrinks that step. Only when fewer than two offspring survive, i.e. the
    model's proposals were rejected, is the target the whole survivor set,
    which pulls the model back toward the parents. The loss is taken on the
    raw populations, so the context is normalized in the parents' objective
    frame exactly as in generation.

    The optimizer is the online update's own Adam (``cfg.lr``, no weight
    decay), created on the first update and kept across generations; it
    never reuses pretraining's Adam state. Disabled or zero-step configs
    leave the model untouched. Returns the last observed loss (or None).
    """
    if not cfg.enabled or cfg.steps_per_generation == 0:
        return None
    if not (x_g.all_evaluated and x_g1.all_evaluated):
        raise ContractViolation("online update requires evaluated populations")
    kept = selected[selected >= len(x_g)] - len(x_g)
    target = x_g1.take(kept) if len(kept) >= 2 else x_g.concat(x_g1).take(selected)
    if model.online_optimizer is None or model.online_optimizer.lr != cfg.lr:
        model.online_optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=0.0)
    loss = None
    for _ in range(cfg.steps_per_generation):
        model.zero_grad()
        loss = teacher_forced_loss(model, x_g, target, problem.spec)
        model.online_optimizer.step()
    return loss


def run_nsga2_model(problem: Problem, model: PopulationTransformer, n_pop: int,
                    evals: int, fine_cfg: FinetuneConfig = FinetuneConfig(),
                    seed: int = 0, reference_front: np.ndarray | None = None) -> RunResult:
    """NSGA-II where the model produces each offspring generation.

    The run loop is :func:`moea.run_generational`; the model writes each
    offspring generation (every member evaluated as produced), and after the
    merge the online update runs. Its loss, and the IGD of the selected
    population when ``reference_front`` is given, join the log entry; both
    use the loop's one selection of the generation.
    """
    if n_pop > model.config.max_seq:
        raise CapacityError(f"population size {n_pop} exceeds model capacity "
                            f"{model.config.max_seq}")

    def after_generation(parents: Population, offspring: Population,
                         selected: np.ndarray) -> dict:
        entry = {"loss": finetune_step(model, parents, offspring, problem, fine_cfg, selected)}
        if reference_front is not None:
            survivors = np.concatenate([parents.f, offspring.f])[selected]
            entry["igd"] = igd(reference_front, survivors).value
        return entry

    return run_generational(
        problem, n_pop, evals,
        lambda parents, rng, budget: model.generate(parents, problem, budget, rng,
                                                    n_offspring=n_pop),
        seed=seed, after_generation=after_generation,
    )
