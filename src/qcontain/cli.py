"""Command-line driver: instance generation, influence estimation, greedy
containment, and the two benchmark sweeps (estimation error vs work, and
minimum finding steps vs list size), emitted as CSV.

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import qsim
from .cascade import exact_influence, mc_influence
from .containment import (
    RunAccounting,
    greedy_contain,
    linear_finder,
    make_exact_estimator,
    make_mc_estimator,
    make_qae_estimator,
)
from .gmf import durr_hoyer_min, make_gmf_finder
from .graph import generate_random_instance, parse_instance, serialize_instance
from .qae import check_evaluation_qubits, qae_estimate, qae_influence


def _load_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _common_flags(sub: argparse.ArgumentParser, instance: bool = True) -> None:
    sub.add_argument("--rng", type=int, default=0, help="random seed")
    sub.add_argument("--out", default=None, help="output file path")
    if instance:
        sub.add_argument("--instance", required=True, help="instance file path")


def cmd_gen(args) -> int:
    inst = generate_random_instance(
        n_nodes=args.nodes,
        edge_prob=args.edge_prob,
        p_range=(args.p_min, args.p_max),
        i_range=(args.i_min, args.i_max),
        n_seeds=args.seeds,
        lam=args.lam,
        rng_seed=args.rng,
    )
    _write_out(args.out, serialize_instance(inst))
    print(
        f"nodes={inst.graph.node_count} edges={len(inst.graph.edges)} "
        f"seeds={len(inst.seeds)}",
        file=sys.stderr,
    )
    return 0


def cmd_estimate(args) -> int:
    inst = _load_instance(args.instance)
    if args.method == "exact":
        est = make_exact_estimator()(inst, (), RunAccounting())
    elif args.method == "mc":
        est = mc_influence(inst, args.trials, args.rng)
    elif args.method == "qae":
        mode = "analytic" if args.analytic else "statevector"
        est = qae_influence(inst, epsilon=args.epsilon, rng_seed=args.rng, mode=mode)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.method)
    sigma, err, work = est.sigma, est.std_error, est.trials_or_calls
    norm = sigma / inst.graph.node_count

    lines = [
        f"method {args.method}",
        f"sigma {sigma!r}",
        f"sigma_normalized {norm!r}",
        f"error {'na' if err is None else repr(err)}",
        f"work_units {work}",
    ]
    print("\n".join(lines))
    if args.out:
        csv = (
            "# columns: method,work_units,sigma,sigma_normalized,error,rng_seed\n"
            f"method,work_units,sigma,sigma_normalized,error,rng_seed\n"
            f"{args.method},{work},{sigma!r},{norm!r},"
            f"{'na' if err is None else repr(err)},{args.rng}\n"
        )
        _write_out(args.out, csv)
    return 0


def _build_estimator(args):
    if args.estimator == "exact":
        return make_exact_estimator()
    if args.estimator == "mc":
        return make_mc_estimator(args.trials, args.rng)
    if args.estimator == "qae":
        mode = "analytic" if args.analytic else "statevector"
        return make_qae_estimator(args.epsilon, args.rng, mode=mode)
    raise ValueError(args.estimator)


def cmd_contain(args) -> int:
    inst = _load_instance(args.instance)
    estimator = _build_estimator(args)
    finder = linear_finder if args.finder == "linear" else make_gmf_finder(args.rng)
    plan = greedy_contain(
        inst,
        estimator,
        finder,
        strategy=args.strategy,
        k_max=args.k_max,
        top_p_cap=args.top_p_cap,
    )
    g = inst.graph
    for k, e, obj in plan.trace:
        edge = g.edges[e]
        print(
            f"k={k} edge={edge.src}->{edge.dst} idx={e} total={obj.total!r} "
            f"influence={obj.influence_term!r} impact={obj.impact_term!r}"
        )
    acc = plan.accounting
    print(
        f"removed={len(plan.removed)} mc_trials={acc.mc_trials} "
        f"a_applications={acc.a_applications} q_applications={acc.q_applications} "
        f"grover_oracle_calls={acc.grover_oracle_calls} linear_steps={acc.linear_steps}"
    )
    if args.out:
        rows = [
            "# columns: k,edge_index,src,dst,total,influence_term,impact_term",
            "k,edge_index,src,dst,total,influence_term,impact_term",
        ]
        for k, e, obj in plan.trace:
            edge = g.edges[e]
            rows.append(
                f"{k},{e},{edge.src},{edge.dst},{obj.total!r},"
                f"{obj.influence_term!r},{obj.impact_term!r}"
            )
        _write_out(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_bench_estimation(args) -> int:
    inst = _load_instance(args.instance)
    mc_grid = [int(t) for t in args.mc_trials.split(",")]
    m_grid = [int(m) for m in args.qae_m.split(",")]
    for m in m_grid:
        check_evaluation_qubits(m)
    truth = exact_influence(inst)
    n = inst.graph.node_count
    a_true = truth.sigma / n
    rows = []
    for rep in range(args.reps):
        seed_seq = np.random.SeedSequence(entropy=args.rng, spawn_key=(rep,))
        seeds = seed_seq.generate_state(2)
        for trials in mc_grid:
            est = mc_influence(inst, trials, np.random.SeedSequence(int(seeds[0]), spawn_key=(trials,)))
            rows.append(("mc", trials, abs(est.sigma / n - a_true), rep))
        for m in m_grid:
            est = qae_estimate(
                inst,
                m=m,
                rng_seed=np.random.default_rng(
                    np.random.SeedSequence(int(seeds[1]), spawn_key=(m,))
                ),
                mode="analytic",
            )
            rows.append(("qae", est.q_applications, abs(est.a_hat - a_true), rep))
    out = [
        "# work_units: mc = Monte Carlo trials; qae = Grover-operator (Q) applications",
        "# error: absolute error in the normalized influence vs the exact live-edge oracle",
        "method,work_units,error,rng_seed",
    ]
    for method, work, err, rep in rows:
        out.append(f"{method},{work},{err!r},{rep}")
    _write_out(args.out, "\n".join(out) + "\n")
    return 0


def cmd_bench_minfind(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    if any(not (1 <= s <= 1 << qsim.MAX_QUBITS) for s in sizes):
        raise ValueError(f"list sizes must be in [1, {1 << qsim.MAX_QUBITS}]")
    out = [
        "# work_units: linear = list length; gmf = Grover oracle calls plus verification evaluations",
        "method,n_items,work_units,found_value,true_min,rng_seed",
    ]
    for n_items in sizes:
        for rep in range(args.reps):
            seq = np.random.SeedSequence(entropy=args.rng, spawn_key=(n_items, rep))
            rng = np.random.default_rng(seq)
            values = rng.random(n_items)
            true_min = float(values.min())
            out.append(f"linear,{n_items},{n_items},{true_min!r},{true_min!r},{rep}")
            result = durr_hoyer_min(values, rng_seed=rng)
            out.append(
                f"gmf,{n_items},{result.total_oracle_calls},"
                f"{result.min_value!r},{true_min!r},{rep}"
            )
    _write_out(args.out, "\n".join(out) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcontain",
        description="Network influence minimisation for malware containment, "
        "with classical and simulated-quantum estimation and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    _common_flags(p, instance=False)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edge-prob", type=float, required=True)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--i-min", type=float, default=0.0)
    p.add_argument("--i-max", type=float, default=1.0)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("estimate", help="estimate expected influence")
    _common_flags(p)
    p.add_argument("--method", choices=["mc", "exact", "qae"], required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--analytic", action="store_true", help="QAE readout from the exact amplitude, no statevector")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("contain", help="greedy edge-removal containment")
    _common_flags(p)
    p.add_argument("--estimator", choices=["mc", "exact", "qae"], default="exact")
    p.add_argument("--finder", choices=["linear", "gmf"], default="linear")
    p.add_argument("--strategy", choices=["all", "frontier", "top_p"], default="all")
    p.add_argument("--top-p-cap", type=int, default=None)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--analytic", action="store_true")
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("bench-estimation", help="MC vs QAE error-vs-work sweep (CSV)")
    _common_flags(p)
    p.add_argument("--mc-trials", default="100,400,1600,6400")
    p.add_argument("--qae-m", default="3,4,5,6,7,8")
    p.add_argument("--reps", type=int, default=50)
    p.set_defaults(func=cmd_bench_estimation)

    p = sub.add_parser("bench-minfind", help="linear vs Grover minimum-finding sweep (CSV)")
    _common_flags(p, instance=False)
    p.add_argument("--sizes", default="4,16,64,256")
    p.add_argument("--reps", type=int, default=50)
    p.set_defaults(func=cmd_bench_minfind)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
