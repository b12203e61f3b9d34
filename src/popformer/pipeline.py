"""Offline training on recorded trajectories, and the learned arm: the one
generational run loop with the model as its offspring generator and an
online update from fresh evaluations after each generation."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Population, Problem, ProblemSpec, require_count
from .dataset import TrajectoryDataset, TrajectoryPair
from .errors import ConfigError, DataError
from .metrics import igd
from .model import PopulationTransformer, teacher_forced_loss
from .moea import TEACHERS, RunResult, check_run_sizes, run_generational
from .nn import Adam

log = logging.getLogger(__name__)


def _require_rate(obj, name: str, zero_ok: bool = False) -> None:
    """Raise ConfigError unless field ``name`` is a finite real, numpy's too
    but not a bool, above 0 (at or above 0 when ``zero_ok``)."""
    value = getattr(obj, name)
    if not (isinstance(value, (int, float, np.integer, np.floating)) and type(value) is not bool
            and np.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise ConfigError(f"{name} must be a finite number "
                          f"{'>= 0' if zero_ok else '> 0'}, got {value!r}")


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 1000
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 0.1
    seed: int = 0
    eval_every: int = 50

    def __post_init__(self):
        for name in ("steps", "batch_size", "eval_every"):
            require_count(getattr(self, name), name)
        require_count(self.seed, "seed", minimum=0)
        _require_rate(self, "lr")
        _require_rate(self, "weight_decay", zero_ok=True)


@dataclass(frozen=True)
class FinetuneConfig:
    """Per-generation online update inside the optimization loop.

    Each generation takes ``steps_per_generation`` Adam steps of size ``lr``
    (no weight decay) toward the offspring that survived selection, or
    toward all survivors when fewer than two offspring did; see
    :func:`finetune_step`. Zero steps freeze the model.
    """

    steps_per_generation: int = 1
    lr: float = 1e-4

    def __post_init__(self):
        require_count(self.steps_per_generation, "steps_per_generation", minimum=0)
        _require_rate(self, "lr")


def collect_trajectories(problems: list[Problem], teachers: list[str], seeds: list[int],
                         n_pop: int, evals: int) -> TrajectoryDataset:
    """Run every (problem, teacher, seed) cell and gather its generation pairs.

    The teacher's run loop hands each generation's parents to a recording
    hook, and consecutive parents pair up: generation g's parents with the
    selection that follows them. The run's final selection is never a
    target, so a run of G generations gives G - 1 pairs. Sizes no cell could
    run with raise ConfigError before any cell runs; a cell that fails
    otherwise, an infeasible member included, is logged and skipped, and
    collection continues. Cells run in sorted key order, so identical
    inputs give byte-identical datasets.
    """
    check_run_sizes(n_pop, evals)
    for what, given in (("problem", problems), ("teacher", teachers), ("seed", seeds)):
        if not given:
            raise ConfigError(f"collection needs at least one {what}, got {given!r}")
    for t in teachers:
        if t not in TEACHERS:
            raise ConfigError(f"unknown teacher {t!r} (known: {sorted(TEACHERS)})")
    dataset = TrajectoryDataset(extra={"population_size": n_pop, "evaluations_per_run": evals})
    cells = sorted(
        ((p, t, s) for p in problems for t in teachers for s in seeds),
        key=lambda c: (c[0].spec.name, c[0].spec.d, c[0].spec.m, c[1], c[2]),
    )
    for problem, teacher, seed in cells:
        generations: list[Population] = []  # each generation's parents, in order
        try:
            TEACHERS[teacher](problem, n_pop, evals, seed=seed,
                              after_generation=lambda x_g, *_: generations.append(x_g) or {})
            pairs = [TrajectoryPair.from_populations(problem.spec, x_g, x_g1, teacher, seed,
                                                     x_g.generation_index)
                     for x_g, x_g1 in zip(generations, generations[1:])]
        except Exception:
            log.exception("collection cell failed: %s/%s/seed=%s; skipping",
                          problem.spec.name, teacher, seed)
            continue
        dataset.pairs.extend(pairs)
    return dataset


def train_step(model: PopulationTransformer, optimizer: Adam,
               pairs: list[tuple[Population, Population]], spec: ProblemSpec) -> float:
    """One teacher-forced optimizer step on same-shape (context, target) pairs.

    The pairs run in stacked passes of at most ``max_seq // N`` pairs (at
    least one), so one pass never holds more rows than one full-capacity
    pair. Gradients are averaged over the pairs. A non-finite mean loss
    raises DataError before the step, leaving the parameters untouched.
    ``optimizer`` holds the model's parameters: its list is the one zeroed
    and scaled, which spares two walks of the parameter tree per step.
    Returns the mean loss.
    """
    params = optimizer.params
    for p in params:
        p.grad = None
    total = 0.0
    per_pass = max(1, model.config.max_seq // len(pairs[0][0]))
    for i in range(0, len(pairs), per_pass):
        total += teacher_forced_loss(model, pairs[i:i + per_pass], spec)
    inv = 1.0 / len(pairs)
    mean_loss = total * inv
    if not np.isfinite(mean_loss):
        raise DataError(f"non-finite training loss on {spec.name}")
    for p in params:
        if p.grad is not None:
            p.grad *= inv
    optimizer.step()
    return mean_loss


def pretrain(dataset: TrajectoryDataset, model: PopulationTransformer,
             cfg: PretrainConfig) -> list[tuple[int, float]]:
    """Shuffled mini-batch teacher forcing for ``cfg.steps`` Adam steps.

    Batches only mix pairs with equal (d, m, population size) so the padding
    pattern is uniform; groups and pairs are reshuffled every pass. Each
    batch is one :func:`train_step`. Returns the logged (step, mean batch
    loss) curve.
    """
    if not dataset.pairs:
        raise DataError("cannot pretrain on an empty dataset")
    for pair in dataset.pairs:
        model.config.check_fits(pair.d, pair.m, pair.size,
                                f"members of a {pair.problem_name} pair")
    groups: dict[tuple, list[TrajectoryPair]] = {}
    for pair in sorted(dataset.pairs, key=TrajectoryPair.sort_key):
        groups.setdefault(pair.group_key(), []).append(pair)
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)

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
        try:
            mean_loss = train_step(model, optimizer, [(p.x_g, p.x_g1) for p in batch],
                                   batch[0].unit_spec())
        except DataError as exc:
            raise DataError(f"{exc} at step {step}") from exc
        if step % cfg.eval_every == 0 or step == cfg.steps or step == 1:
            curve.append((step, mean_loss))
    return curve


def finetune_step(model: PopulationTransformer, optimizer: Adam | None, x_g: Population,
                  x_g1: Population, problem: Problem, steps: int,
                  selected: np.ndarray) -> float | None:
    """One generation's online update: ``steps`` :func:`train_step` calls
    toward the offspring that selection kept.

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

    ``optimizer`` is the run's own online Adam; zero steps leave the model
    untouched and need none. An unevaluated population raises a
    ContractViolation, from ``concat`` or the loss, before any weight
    changes. Returns the last step's loss (None for zero steps).
    """
    if steps == 0:
        return None
    kept = selected[selected >= len(x_g)] - len(x_g)
    target = x_g1.take(kept) if len(kept) >= 2 else x_g.concat(x_g1).take(selected)
    losses = [train_step(model, optimizer, [(x_g, target)], problem.spec)
              for _ in range(steps)]
    return losses[-1]


def run_nsga2_model(problem: Problem, model: PopulationTransformer, n_pop: int,
                    evals: int, fine_cfg: FinetuneConfig = FinetuneConfig(),
                    seed: int = 0, reference_front: np.ndarray | None = None) -> RunResult:
    """NSGA-II where the model produces each offspring generation.

    The run loop is :func:`moea.run_generational`; the model writes each
    offspring generation (every member evaluated as produced), and after the
    merge the online update runs with the run's own Adam (``fine_cfg.lr``,
    no weight decay), so no optimizer state outlives the run. Its loss, and
    the IGD of the selected population when ``reference_front`` is given,
    join the log entry; both use the loop's one selection of the generation.
    A problem or population size the model cannot hold raises CapacityError
    before any evaluation.
    """
    model.config.check_fits(problem.spec.d, problem.spec.m, n_pop, "population members")
    steps = fine_cfg.steps_per_generation
    optimizer = Adam(model.parameters(), lr=fine_cfg.lr) if steps else None

    def after_generation(parents: Population, offspring: Population,
                         selected: np.ndarray) -> dict:
        entry = {"loss": finetune_step(model, optimizer, parents, offspring, problem, steps,
                                       selected)}
        if reference_front is not None:
            survivors = np.concatenate([parents.f, offspring.f])[selected]
            entry["igd"] = igd(reference_front, survivors).value
        return entry

    return run_generational(
        problem, n_pop, evals,
        lambda parents, rank, rng, budget: model.generate(parents, problem, budget, rng,
                                                          n_offspring=n_pop),
        seed=seed, after_generation=after_generation,
    )
