#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that the
result line has exactly the expected keys, that every metric named in
BENCHMARK.json is emitted with its unit, and that no call failed. It also
checks that the tracer records a missing package function, or a result of an
unexpected shape, as absent, and that the benchmark refuses to run where
there is no source tree.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"


def run(cwd: Path, workload: str, trace: int, tiny: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", SECONDS, "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(wanted.keys() - got.keys())}, "
                      f"extra {sorted(got.keys() - wanted.keys())}, "
                      f"units {[n for n in wanted.keys() & got.keys() if wanted[n] != got[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
    return errors


def check_absent_layer() -> list[str]:
    """Tracing a package that lost a function records it as absent."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import qcontain.cli  # noqa: F401  (install() wraps the modules already loaded)
    import qcontain.gmf
    from layers import layer_metrics
    from tracing import Tracer

    original = qcontain.gmf.durr_hoyer_min
    del qcontain.gmf.durr_hoyer_min
    tracer = Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        qcontain.gmf.durr_hoyer_min = original
    errors = [] if tracer.absent == {"gmf.durr_hoyer_min"} else [f"absent recorded as {tracer.absent}"]
    # A result without the expected fields loses its work units, not the call.
    probe = tracer.wrap("probe.f", lambda: 7, note=lambda a, k, r: {"n": r.missing})
    if probe() != 7 or "probe.f work units" not in tracer.absent:
        errors.append("a failing work-unit note broke the traced call")
    if any(layer_metrics([], []).values()):
        errors.append("an empty trace gives nonzero layer metrics")
    return errors


def check_refuses_without_source() -> list[str]:
    """With only BENCHMARK.json and perfbench/, the benchmark exits nonzero, printing no result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "mc-greedy", 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran without a source tree"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from layers import METRICS

    errors = []
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != METRICS:
        errors.append("BENCHMARK.json per_layer differs from layers.METRICS")
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_result(spec, w["name"], trace)
    errors += check_absent_layer()
    errors += check_refuses_without_source()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
