"""Learned population-to-population offspring generation for multi-objective
evolutionary optimization, plus the supporting MOEA, training and metrics
toolkit."""

__version__ = "0.1.0"

from .core import (
    EvaluationBudget,
    Population,
    Problem,
    ProblemSpec,
    constrained_dominates,
    denormalize_decision,
    dominates,
    evaluate,
    normalize_decision,
    random_population,
)
from .dataset import TrajectoryDataset, TrajectoryPair, TrajectorySink
from .metrics import IgdResult, RankSumResult, igd, wilcoxon_rank_sum
from .model import (
    ModelConfig,
    PopulationTransformer,
    load_checkpoint,
    save_checkpoint,
    teacher_forced_loss,
)
from .moea import (
    FrontPartition,
    VariationConfig,
    crowding_distance,
    cso_step,
    fast_nondominated_sort,
    nsga2_select,
    polynomial_mutation,
    run_cso,
    run_nsga2,
    run_random_search,
    sbx_crossover,
)
from .pipeline import (
    FinetuneConfig,
    PretrainConfig,
    collect_trajectories,
    finetune_step,
    pretrain,
    run_nsga2_model,
)
from .problems import LsmopProblem, ShiftClusterProblem, ZdtProblem, make_problem

__all__ = [
    "EvaluationBudget", "FinetuneConfig", "FrontPartition", "IgdResult", "LsmopProblem",
    "ModelConfig", "Population", "PopulationTransformer", "PretrainConfig", "Problem",
    "ProblemSpec", "RankSumResult", "ShiftClusterProblem", "TrajectoryDataset",
    "TrajectoryPair", "TrajectorySink", "VariationConfig", "ZdtProblem",
    "collect_trajectories", "constrained_dominates",
    "crowding_distance", "cso_step", "denormalize_decision", "dominates", "evaluate",
    "fast_nondominated_sort", "finetune_step", "igd", "load_checkpoint", "make_problem",
    "normalize_decision", "nsga2_select", "polynomial_mutation", "pretrain",
    "random_population", "run_cso", "run_nsga2", "run_nsga2_model", "run_random_search",
    "save_checkpoint", "sbx_crossover", "teacher_forced_loss", "wilcoxon_rank_sum",
]
