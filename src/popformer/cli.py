"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Machine-readable
outputs keep full double precision; text tables round to 3 significant digits.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="popformer",
                     description="Learned population generation inside NSGA-II")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="record teacher trajectories into a dataset")
    p.add_argument("--problems", required=True,
                   help="comma-separated problem names, e.g. zdt1,zdt2")
    p.add_argument("--teachers", default="nsga2", help="comma-separated: nsga2,cso")
    p.add_argument("--seeds", type=int, default=1, help="number of seeds per cell")
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--evals", type=int, default=10000)
    p.add_argument("--d", type=int, default=None, help="decision variables per problem")
    p.add_argument("--m", type=int, default=None, help="objectives (LSMOP only)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pretrain", help="train a model on a recorded dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="model config JSON file")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("optimize", help="run NSGA-II with a model generating offspring")
    p.add_argument("--problem", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--evals", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-finetune", action="store_true",
                   help="freeze the model during the run")
    p.add_argument("--log", default=None, help="write per-generation JSONL events here")
    p.add_argument("--solutions-out", default=None,
                   help="write final objective vectors as CSV")

    p = sub.add_parser("benchmark", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("igd", help="inverted generational distance between two CSV files")
    p.add_argument("--front", required=True)
    p.add_argument("--solutions", required=True)

    sub.add_parser("selftest", help="run built-in oracle checks")
    return parser


def _split_names(arg: str) -> list[str]:
    return [tok.strip() for tok in arg.split(",") if tok.strip()]


def _cmd_collect(args) -> int:
    from .pipeline import collect_trajectories
    from .problems import make_problem

    problems = [make_problem(name, d=args.d, m=args.m) for name in _split_names(args.problems)]
    teachers = _split_names(args.teachers)
    dataset = collect_trajectories(problems, teachers, list(range(args.seeds)),
                                   n_pop=args.pop, evals=args.evals)
    dataset.save(args.out)
    print(f"wrote {len(dataset.pairs)} pairs to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    from .dataset import TrajectoryDataset
    from .model import ModelConfig, PopulationTransformer, save_checkpoint
    from .pipeline import PretrainConfig, pretrain

    dataset = TrajectoryDataset.load(args.data)
    if args.config:
        config = ModelConfig.from_json(Path(args.config).read_text())
    else:
        config = ModelConfig()
    model = PopulationTransformer(config, seed=args.seed)
    cfg = PretrainConfig(steps=args.steps, batch_size=args.batch, lr=args.lr, seed=args.seed)
    curve = pretrain(dataset, model, cfg)
    save_checkpoint(model, args.out)
    for step, loss in curve:
        print(f"step {step:6d}  loss {loss:.6e}")
    print(f"saved checkpoint to {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    from .errors import UnsupportedFront
    from .metrics import igd
    from .model import load_checkpoint
    from .pipeline import FinetuneConfig, run_nsga2_model
    from .problems import make_problem

    problem = make_problem(args.problem, d=args.d, m=args.m)
    model = load_checkpoint(args.model)
    fine = FinetuneConfig(enabled=not args.no_finetune)
    try:
        front = problem.reference_front(1000 if problem.spec.m <= 3 else 5000)
    except UnsupportedFront:
        front = None
    result = run_nsga2_model(problem, model, args.pop, args.evals,
                             fine_cfg=fine, seed=args.seed, reference_front=front)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            for entry in result.log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    objs = result.population.f
    if args.solutions_out:
        np.savetxt(args.solutions_out, objs, delimiter=",")
    print(f"evaluations used: {result.evaluations}")
    if front is not None:
        print(f"final IGD: {igd(front, objs).value:.6e}")
    return 0


def _cmd_benchmark(args) -> int:
    from .bench import ExperimentConfig, emit_report, run_benchmark, summarize

    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    records = run_benchmark(cfg, workers=args.workers)
    summary = summarize(records, cfg)
    paths = emit_report(records, summary, args.out)
    print((Path(args.out) / "table.txt").read_text())
    print("reports: " + ", ".join(str(p) for p in paths.values()))
    failed = [r for r in records if r.status == "failed"]
    if failed:
        print(f"warning: {len(failed)} cell(s) failed", file=sys.stderr)
    return 0


def _cmd_igd(args) -> int:
    from .metrics import igd

    front = np.loadtxt(args.front, delimiter=",", ndmin=2)
    sols = np.loadtxt(args.solutions, delimiter=",", ndmin=2)
    result = igd(front, sols)
    print(repr(result.value))
    return 0


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest

    ok = run_selftest()
    return 0 if ok else 2


_COMMANDS = {
    "collect": _cmd_collect,
    "pretrain": _cmd_pretrain,
    "optimize": _cmd_optimize,
    "benchmark": _cmd_benchmark,
    "igd": _cmd_igd,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"popformer: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
