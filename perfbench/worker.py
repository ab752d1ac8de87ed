"""The measured process of one benchmark run.

Drives ``qcontain.cli.main`` in-process on instance files that ``run.py``
wrote, one call at a time, and writes every call's wall time, exit code and
captured output to ``worker.json`` in the run directory. With ``--trace 1``
it first times adjacent untraced and traced plans of the first instance, then
traced calls of every instance; the per-layer metrics and spans are written
too. Without it, the calibration sampler runs during the timed calls.

Run by ``run.py``; not meant to be started by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
from pathlib import Path
from time import perf_counter

import calibrate
from workloads import TINY, WORKLOADS, cli_seed, instances_for

PLAN_SHARE = 0.8  # of the measured time, given to contain calls
PAIR_SHARE = 0.15  # of --seconds, spent on untraced/traced plan pairs in a traced run


class Client:
    """Closed-loop client: issues one CLI call, waits, records it."""

    def __init__(self, cli, workload, paths, rng):
        self.cli, self.workload, self.paths, self.rng = cli, workload, paths, rng
        self.ops: list[dict] = []
        self.sampler = None
        self.tracer = None

    def call(self, kind: str, k: int, phase: str) -> None:
        argv = self.workload.argv(kind, str(self.paths[k]), self.rng)
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        paused = self.sampler.paused if self.sampler is not None else 0.0
        if self.tracer is not None:
            self.tracer.plan = len(self.ops)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed call is data, not a crash
            error = repr(exc)
        t1 = perf_counter()
        if self.sampler is not None:
            paused = self.sampler.paused - paused
        if self.tracer is not None:
            self.tracer.plan = None
        self.ops.append({
            "kind": kind, "inst": k, "phase": phase, "start": t0, "end": t1, "wall": t1 - t0 - paused,
            "rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
        })

    def mixed(self, phase: str, seconds: float, n_plan: int, n_est: int) -> None:
        """Interleave contain and estimate calls for ``seconds``.

        The next call is a plan while plans have had at most PLAN_SHARE of
        the time so far, so both kinds are sampled across the whole run.
        Plans cycle through the first ``n_plan`` instances and estimates
        through the first ``n_est``; each instance gets at least one call.
        """
        spent = {"contain": 0.0, "estimate": 0.0}
        done = {"contain": 0, "estimate": 0}
        pool = {"contain": n_plan, "estimate": n_est}
        end = perf_counter() + seconds
        while True:
            short = [kind for kind in done if done[kind] < pool[kind]]
            if perf_counter() >= end:
                if not short:
                    return
                kind = short[0]
            else:
                kind = "contain" if spent["contain"] <= PLAN_SHARE * sum(spent.values()) else "estimate"
            t0 = perf_counter()
            self.call(kind, done[kind] % pool[kind], phase)
            spent[kind] += perf_counter() - t0
            done[kind] += 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    run_dir = Path(args.dir)
    n_plan = workload.instances
    paths = [run_dir / f"inst{k}.txt" for k in range(workload.estimate_pool)]

    from qcontain import cli

    client = Client(cli, workload, paths, cli_seed(args.seed))
    calibrate.sample()
    for k in range(len(paths)):
        client.call("estimate", k, "warmup")
    # The first plan of a process runs up to a quarter slower. The warm-up plan
    # is also the earlier call that a timed plan of instance 0 must repeat.
    client.call("contain", 0, "warmup")

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        # Pairs of untraced and traced plans of the first instance, adjacent so
        # that both sides of trace.overhead_s see the same machine speed.
        start = perf_counter()
        while client.ops[-1]["phase"] != "traced" or perf_counter() < start + PAIR_SHARE * args.seconds:
            client.call("contain", 0, "untraced")
            with tracer.installed():
                client.tracer = tracer
                client.call("contain", 0, "traced")
                client.tracer = None
        with tracer.installed():
            client.tracer = tracer
            rest = max(0.0, start + args.seconds - perf_counter())
            client.mixed("traced", rest, n_plan, len(paths))
    else:
        with calibrate.Sampler() as client.sampler:
            client.mixed("timed", args.seconds, n_plan, len(paths))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    calibration = client.sampler.samples if client.sampler is not None else []
    result = {"ops": client.ops, "calibration": calibration, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result.update(trace_report(tracer, client.ops, workload, args.seed, run_dir))
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


def trace_report(tracer, ops, workload, seed, run_dir: Path) -> dict:
    import layers
    import reference

    insts = instances_for(workload, seed)
    plans = [k for k, op in enumerate(ops) if op["phase"] == "traced" and op["kind"] == "contain"]
    truth: dict = {}

    def true_a(plan, removal):
        key = (ops[plan]["inst"], tuple(sorted(removal)))
        if key not in truth:
            inst = insts[key[0]]
            truth[key] = reference.exact_sigma(inst, key[1]) / inst.nodes
        return truth[key]

    absent = tracer.absent
    metrics = layers.layer_metrics(tracer.spans, plans, true_a, workload.epsilon)
    index = layers.SpanIndex(tracer.spans)
    for plan in plans:
        ops[plan]["traced_accounting"] = layers.accounting_of(index, plan, absent)
    with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, plan, note in tracer.spans:
            fh.write(json.dumps([name, t0, t1, parent, plan]) + "\n")
    return {"layer_metrics": metrics, "absent": sorted(absent), "spans": len(tracer.spans)}


if __name__ == "__main__":
    raise SystemExit(main())
