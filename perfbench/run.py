"""Seeded, download-free benchmark of sentconv: training, set-up and predict.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-nonstatic-mr --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run makes its inputs from --seed (see gen.py), measures for at least
--seconds seconds with tracing off (--trace 0, end-to-end metrics) or with
untraced and traced samples alternating (--trace 1, per-layer metrics and
the tracing overhead), checks the program's outputs, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload untraced and traced, each in its own
process, and prints every metric of every workload.

Inputs and span traces live under .perfbench/ in the repository root.
BLAS is pinned to one thread before numpy is imported, so runs are steady.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RUN_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpora and model, for the smoke test")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no machine-readable build config
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS)}


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": {name: {"value": float(value), "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def run_one(args) -> int:
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    inputs = os.path.join(WORK, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    run = workloads.Run(workload, args.seed, args.seconds, bool(args.trace), args.tiny, inputs)
    try:
        run.execute()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(f"# env {json.dumps(environment())}")
    print(f"# workload {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in run.report:
        print(f"# {line}")
    if args.trace:
        metrics = workloads.per_layer_metrics(run)
        trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.jsonl")
        run.tracer.write(trace_path)
        problems = run.tracer.check_nesting()
        run.checks.check("trace: spans nest inside their parents", not problems,
                         "; ".join(problems[:3]))
        for line in workloads.trace_report(run, metrics):
            print(f"# {line}")
        print(f"# spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = run.end_to_end()
    for line in run.checks.lines():
        print(f"# {line}")
    print(f"# ops attempted={run.checks.attempted} failed={run.checks.failed} "
          f"failed_share={run.checks.failed / max(run.checks.attempted, 1):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} {value:.6g} {unit}")
    print(_result_line(run.checks.all_passed, run.checks.attempted, run.checks.failed, metrics))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "sentconv")):
        sys.stderr.write(f"perfbench: no sentconv sources under {ROOT}/src\n")
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)} or all\n")
        return 2
    if args.prepare:
        workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, args.tiny,
                          args.prepare)
        return 0
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
