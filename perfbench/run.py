#!/usr/bin/env python3
"""Containment benchmark: times the qcontain CLI end to end on generated instances.

Run from the repository root:

    python3 perfbench/run.py --workload mc-greedy --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
reports per-layer metrics from a traced run. Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Files of the run (instances, call
log, spans, result) go to ``.perfbench/<workload>/`` under the root.
"""
from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy loads and inherited by
# every process the benchmark starts; a fixed string hash seed gives every
# process the same dict layouts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
QAE_MODE_SEEDS = (11, 12)

if str(SRC) not in sys.path:
    sys.path.insert(1, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def setup_seconds(name: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Wall and calibrated times of fresh interpreters that import, generate and parse."""
    import calibrate

    walls, scaled = [], []
    calibrate.sample()  # warm the kernel up
    for _ in range(SETUP_SAMPLES):
        before = calibrate.sample()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), "1" if tiny else "0"],
            env=child_env(), check=True, timeout=60, capture_output=True, text=True,
        )
        probe = {"start": t0, "end": float(proc.stdout.split()[-1])}
        probe["wall"] = probe["end"] - t0
        walls.append(probe["wall"])
        scaled.append(calibrate.calibrated(probe, [before, calibrate.sample()]))
    return walls, scaled


def run_worker(args, run_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(run_dir), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    subprocess.run(cmd, env=child_env(), check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads((run_dir / "worker.json").read_text())


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timing_summary(samples: list[float]) -> dict:
    """Median and sample count, plus each high percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args()

    if not (SRC / "qcontain" / "__init__.py").is_file():
        print(f"perfbench: no qcontain package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import calibrate
    import checks
    from workloads import TINY, WORKLOADS, instances_for

    table = TINY if args.tiny else WORKLOADS
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]

    run_dir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    insts = instances_for(workload, args.seed)
    for k, inst in enumerate(insts):
        (run_dir / f"inst{k}.txt").write_text(inst.to_text())

    try:
        setup_wall, setup = ([], []) if args.trace else setup_seconds(args.workload, args.seed, args.tiny)
        result = run_worker(args, run_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    checker = checks.Checker(insts, args.seed)
    problems = {}
    for k, op in enumerate(ops):
        found = checker.op_problems(op)
        if found:
            problems[k] = found
    other = []
    if workload.epsilon is not None:
        from qcontain.graph import parse_instance

        parsed = [parse_instance(inst.to_text()) for inst in insts]
        other += checks.qae_mode_problems(parsed, workload.epsilon, QAE_MODE_SEEDS)

    def walls(kind, phase):
        return [op["wall"] for op in ops if op["kind"] == kind and op["phase"] == phase]

    def scaled(kind, phase):
        return [calibrate.calibrated(op, result["calibration"])
                for op in ops if op["kind"] == kind and op["phase"] == phase]

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    if args.trace:
        metrics = dict(result["layer_metrics"])
        pairs = [(a["wall"], b["wall"]) for a, b in zip(ops, ops[1:]) if a["phase"] == "untraced"]
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        detail.update(absent=result["absent"], spans=result["spans"])
    else:
        plans = {}
        for k, op in enumerate(ops):
            if op["kind"] == "contain" and op["phase"] == "timed" and k not in problems:
                plans.setdefault(op["inst"], checks.parse_plan(op["stdout"])[0])
        if len(plans) < workload.instances:
            other.append("some instance has no valid plan")
        # Median over instances: a rare miss by a randomized estimator or
        # finder on one instance does not swing the run's figure.
        objective = statistics.median(checker.plan_objective(k, r) for k, r in plans.items()) if plans else 0.0
        metrics = {
            "plan_s": statistics.median(scaled("contain", "timed")),
            "estimate_s": statistics.median(scaled("estimate", "timed")),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "plan_objective": objective,
        }
        detail.update(
            plan_s=timing_summary(scaled("contain", "timed")),
            estimate_s=timing_summary(scaled("estimate", "timed")),
            setup_s=timing_summary(setup),
            wall_plan_s=timing_summary(walls("contain", "timed")),
            wall_estimate_s=timing_summary(walls("estimate", "timed")),
            wall_setup_s=timing_summary(setup_wall),
            calibration_s=timing_summary([s for _, s in result["calibration"]]),
            plan_objective_per_instance=len(plans),
        )
    failed = len(problems)
    detail.update(attempted=len(ops), failed=failed, error_rate=failed / len(ops),
                  problems={str(k): v for k, v in list(problems.items())[:10]}, other_problems=other)

    from layers import METRICS

    units = {"plan_s": "s", "estimate_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "plan_objective": "objective", **{n: u for n, (u, _) in METRICS.items()}}
    report = {
        "correct": failed == 0 and not other,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({"detail": detail, **report}, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} calls, {failed} failed, environment {detail['environment']}")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in other + [p for ps in problems.values() for p in ps][:10]:
        print(f"  problem: {problem}")
    print(json.dumps(detail))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
