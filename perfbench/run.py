"""Seeded benchmark of popformer's three pipeline steps through its CLI.

    python3 perfbench/run.py --workload classic_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload (see workloads.py) runs ``popformer.cli.main`` in this process,
single-threaded in Python, with ``--workers 1`` where the verb has it. Set-up
times a fresh-interpreter import, writes the inputs from ``--seed`` and runs
one untimed warm-up operation. Then operations repeat until ``--seconds`` have
passed. Every operation's output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` every other operation is traced (see spans.py) and the line
reports the per-layer metrics; the untraced operations in between give the
tracing overhead. The BLAS thread count is read and recorded, never set.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

from spans import Clock, Patcher, Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# workloads.py imports popformer, so argument parsing needs the names here.
WORKLOAD_NAMES = ("classic_grid", "pretrain", "learned_optimize")
IMPORT_REPEATS = 3
INPUT_REPEATS = 3

# (name, unit, better); an iteration is a generation on classic_grid and
# learned_optimize and an optimizer step on pretrain.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
    ("iter_ms_p50", "ms", "lower"),
    ("iter_ms_tail", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("quality", "score", "lower"),
)


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked: no popformer source tree, or a
    BENCHMARK.json that names other metrics than this script produces."""


def load_program():
    """Import popformer from this checkout's ``src``, and nothing else."""
    if not (SRC / "popformer" / "__init__.py").is_file():
        raise BenchmarkError(f"no popformer package under {SRC}")
    sys.path.insert(0, str(SRC))
    import popformer
    import popformer.bench
    import popformer.cli

    if not Path(popformer.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"popformer imported from {popformer.__file__}, not {SRC}")
    return popformer.cli


def check_declared_metrics(per_layer) -> None:
    """Fail fast when BENCHMARK.json and this script disagree on metric names."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = {"end_to_end": [m["name"] for m in spec["end_to_end"]],
                "per_layer": [m["name"] for m in spec["per_layer"]]}
    produced = {"end_to_end": [m[0] for m in END_TO_END],
                "per_layer": [m[0] for m in per_layer]}
    for kind in declared:
        if sorted(declared[kind]) != sorted(produced[kind]):
            raise BenchmarkError(f"BENCHMARK.json {kind} metrics differ from the ones produced")


# -- environment ----------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through its getter; never set."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


# -- set-up ---------------------------------------------------------------------

def fresh_import_s() -> float:
    """Wall time of a new interpreter importing everything the CLI verbs load."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import popformer.cli, popformer.bench")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- operations -----------------------------------------------------------------

class Runner:
    """Runs and checks one workload's operations, timing each CLI call."""

    def __init__(self, cli, workload, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.patcher = Patcher()
        self.clock = Clock()
        self.clock.install(self.patcher, workload.boundaries, workload.delimiter)
        self.tracer = Tracer()
        self.missing: set[str] = set(self.patcher.missing)
        self.fingerprints: dict = {}
        self.failures: list[str] = []

    def run(self, op: int, traced: bool) -> dict:
        from workloads import CheckFailed

        out = self.work / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = self.workload.argv(op, out)
        self.clock.runs = [[]]
        trace_patcher = Patcher()
        if traced:
            self.tracer.begin_op(op)
            self.tracer.install(trace_patcher)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        wall = time.perf_counter() - start
        trace_patcher.restore()
        self.missing |= trace_patcher.missing
        record = {"op": op, "traced": traced, "wall_s": wall,
                  "intervals_ms": self.clock.intervals_ms(), "outcome": None}
        try:
            outcome = self.workload.check(op, code, stdout.getvalue(), out)
            seen = self.fingerprints.setdefault(outcome.key, outcome.fingerprint)
            if seen != outcome.fingerprint:
                raise CheckFailed(f"operation {op} repeated key {outcome.key!r} "
                                  "with a different result")
            record["outcome"] = outcome
        except Exception as exc:  # a failed check is data: count it and go on
            detail = stderr.getvalue().strip().splitlines()[-1:] or [""]
            self.failures.append(f"op {op}: {type(exc).__name__}: {exc} {detail[0]}".strip())
        return record

    def close(self) -> None:
        self.patcher.restore()


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it."""
    pct = max(50, math.floor(100.0 * (len(samples) - 10) / len(samples)))
    return pct, float(numpy.percentile(samples, pct))


def end_to_end(records: list[dict], setup_s: float, ok_frac: float,
               min_ops: int) -> tuple[dict, dict]:
    ok = [r for r in records if r["outcome"] is not None]
    intervals = [x for r in ok for x in r["intervals_ms"]]
    if not ok or len(intervals) < 2:
        return {}, {"error": "no checked operation produced iteration times"}
    pct, tail_ms = tail(intervals)
    # Whole-run totals, not per-operation medians: the host's speed shifts
    # for seconds at a time, and a total weighs every second of the run alike.
    timed_s = sum(r["wall_s"] for r in ok)
    metrics = {
        "setup_s": setup_s,
        "wall_s": timed_s / len(ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": ok_frac,
        "iter_ms_p50": statistics.median(intervals),
        "iter_ms_tail": tail_ms,
        "items_per_s": sum(r["outcome"].items for r in ok) / timed_s,
        "quality": statistics.median(r["outcome"].quality for r in ok[:min_ops]),
    }
    return metrics, {"iter_tail_percentile": pct, "iter_samples": len(intervals)}


def run_workload(args, cli) -> int:
    from workloads import WORKLOADS

    per_layer = per_layer_metrics()
    check_declared_metrics(per_layer)
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = work / "inputs"
    inputs_dir.mkdir(parents=True)
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "environment": environment(), "loadavg_before": os.getloadavg()}

    import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPEATS))
    input_times = []
    for _ in range(INPUT_REPEATS):
        start = time.perf_counter()
        inputs = workload.make_inputs(inputs_dir, args.seed)
        input_times.append(time.perf_counter() - start)
    inputs_s = statistics.median(input_times)
    details["inputs_sha256"] = {name: sha256(path) for name, path in inputs.items()}

    runner = Runner(cli, workload, work)
    try:
        warmup = runner.run(-1, traced=False)
        setup_s = import_s + inputs_s + warmup["wall_s"]
        details["setup"] = {"import_s": import_s, "inputs_s": inputs_s,
                            "warmup_s": warmup["wall_s"]}
        records = []
        min_ops = max(workload.min_ops, 4) if args.trace else workload.min_ops
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(records) < min_ops:
            traced = bool(args.trace) and len(records) % 2 == 0
            records.append(runner.run(len(records), traced))
    finally:
        runner.close()

    attempted = 1 + len(records)
    failed = len(runner.failures)
    details["loadavg_after"] = os.getloadavg()
    details["failures"] = runner.failures
    details["ops"] = [{"op": r["op"], "traced": r["traced"], "wall_s": r["wall_s"],
                       "ok": r["outcome"] is not None} for r in [warmup] + records]
    if args.trace:
        traced_ms = [r["wall_s"] * 1e3 for r in records if r["traced"]]
        untraced_ms = [r["wall_s"] * 1e3 for r in records if not r["traced"]]
        values = runner.tracer.metrics(traced_ms, untraced_ms, runner.missing)
        details["missing"] = sorted(runner.missing)
        with open(work / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": runner.tracer.spans}, fh)
        declared = per_layer
    else:
        ok_frac = (attempted - failed) / attempted
        values, extra = end_to_end(records, setup_s, ok_frac, workload.min_ops)
        details.update(extra)
        declared = END_TO_END

    measured = {name: float(values.get(name, math.nan)) for name, _, _ in declared}
    correct = failed == 0 and all(math.isfinite(v) for v in measured.values())
    metrics = {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
               for (name, unit, _), value in zip(declared, measured.values())}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    details["result"] = result
    (work / "result.json").write_text(json.dumps(details, indent=2, default=str) + "\n")
    for name, unit, _ in declared:
        print(f"{name:40s} {metrics[name]['value']:>16.6g} {unit}")
    for message in runner.failures:
        print(f"FAILED {message}")
    print(json.dumps({"details": {k: details[k] for k in details if k != "result"}},
                     default=str))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own interpreter and print its metrics by name."""
    status = 0
    combined = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-2]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
        combined[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cli = load_program()
        return run_workload(args, cli)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
