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
from .cascade import check_draw, exact_influence
from .containment import (
    RunAccounting,
    call_seeds,
    greedy_contain,
    linear_finder,
    make_exact_estimator,
    make_mc_estimator,
    make_qae_estimator,
)
from .gmf import durr_hoyer_min, make_gmf_finder
from .graph import generate_random_instance, parse_instance, serialize_instance
from .qae import check_evaluation_qubits, qpe_outcome_distribution, read_estimate


def _load_instance(path: str):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_instance(fh.read())


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_csv(path: str | None, notes: list[str], header: str, rows) -> None:
    """The '# ' note lines, the header, then each row's fields by str (repr for a float)."""
    lines = [f"# {note}" for note in notes] + [header]
    lines += [",".join(map(str, row)) for row in rows]
    _write_out(path, "\n".join(lines) + "\n")


def _common_flags(sub: argparse.ArgumentParser, instance: bool) -> None:
    sub.add_argument("--rng", type=int, default=0, help="random seed")
    sub.add_argument("--out", default=None, help="output file path")
    if instance:
        sub.add_argument("--instance", required=True, help="instance file path")


def _estimator_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trials", type=int, default=10000)
    sub.add_argument("--epsilon", type=float, default=0.05)
    sub.add_argument("--analytic", dest="mode", action="store_const", const="analytic",
                     default="statevector", help="QAE readout from the exact amplitude, no statevector")


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


def _build_estimator(method: str, args, seeds):
    """The estimator ``method`` names; its call k is seeded by the k-th item of ``seeds``."""
    if method == "exact":
        return make_exact_estimator()
    if method == "mc":
        return make_mc_estimator(args.trials, seeds)
    return make_qae_estimator(args.epsilon, seeds, args.mode)


def cmd_estimate(args) -> int:
    inst = _load_instance(args.instance)
    (est,) = _build_estimator(args.method, args, iter([args.rng]))(inst, [()], RunAccounting())
    norm = est.sigma / inst.graph.node_count
    err = "na" if est.std_error is None else est.std_error

    lines = [
        f"method {args.method}",
        f"sigma {est.sigma!r}",
        f"sigma_normalized {norm!r}",
        f"error {err}",
        f"work_units {est.trials_or_calls}",
    ]
    print("\n".join(lines))
    if args.out:
        header = "method,work_units,sigma,sigma_normalized,error,rng_seed"
        row = (args.method, est.trials_or_calls, est.sigma, norm, err, args.rng)
        _write_csv(args.out, [f"columns: {header}"], header, [row])
    return 0


def cmd_contain(args) -> int:
    inst = _load_instance(args.instance)
    # the estimator and the finder draw from one stream, so no two calls share a seed
    seeds = call_seeds(args.rng)
    finder = linear_finder if args.finder == "linear" else make_gmf_finder(seeds)
    plan = greedy_contain(
        inst,
        _build_estimator(args.estimator, args, seeds),
        finder,
        strategy=args.strategy,
        k_max=args.k_max,
    )
    g = inst.graph
    rows = [(k, e, g.edges[e].src, g.edges[e].dst, obj.total, obj.influence_term, obj.impact_term)
            for k, e, obj in plan.trace]
    for k, e, src, dst, total, influence, impact in rows:
        print(
            f"k={k} edge={src}->{dst} idx={e} total={total!r} "
            f"influence={influence!r} impact={impact!r}"
        )
    acc = plan.accounting
    print(
        f"removed={len(plan.removed)} mc_trials={acc.mc_trials} "
        f"a_applications={acc.a_applications} q_applications={acc.q_applications} "
        f"grover_oracle_calls={acc.grover_oracle_calls} linear_steps={acc.linear_steps}"
    )
    if args.out:
        header = "k,edge_index,src,dst,total,influence_term,impact_term"
        _write_csv(args.out, [f"columns: {header}"], header, rows)
    return 0


def _grid(flag: str, text: str) -> list[int]:
    """Comma-separated sweep values, none repeated: a row's stream is seeded by its value."""
    values = []
    for v in text.split(","):
        try:
            values.append(int(v))
        except ValueError:
            raise ValueError(f"{flag} value {v!r} is not an integer") from None
    if len(set(values)) < len(values):
        raise ValueError(f"{flag} repeats a value: {','.join(map(str, values))}")
    return values


def cmd_bench_estimation(args) -> int:
    if args.reps < 1:
        raise ValueError("reps must be >= 1")
    inst = _load_instance(args.instance)
    mc_grid = _grid("--mc-trials", args.mc_trials)
    m_grid = _grid("--qae-m", args.qae_m)
    if min(mc_grid) < 1:
        raise ValueError(f"--mc-trials value {min(mc_grid)} must be >= 1")
    for m in m_grid:
        check_evaluation_qubits(m)
    n = inst.graph.node_count
    for trials in mc_grid:
        check_draw(trials, n)
    a_true = exact_influence(inst, ()).sigma / n
    # QAE rows are read from the exact amplitude's outcome distribution, built once per m
    dists = {m: qpe_outcome_distribution(a_true, m) for m in m_grid}
    rows = []
    for rep, seq in zip(range(args.reps), call_seeds(args.rng)):
        seeds = seq.generate_state(2)
        for trials in mc_grid:
            seed = np.random.SeedSequence(int(seeds[0]), spawn_key=(trials,))
            (est,) = make_mc_estimator(trials, iter([seed]))(inst, [()], RunAccounting())
            rows.append(("mc", trials, abs(est.sigma / n - a_true), rep))
        for m in m_grid:
            rng = np.random.default_rng(np.random.SeedSequence(int(seeds[1]), spawn_key=(m,)))
            est = read_estimate(dists[m], rng, 1)
            rows.append(("qae", est.q_applications, abs(est.a_hat - a_true), rep))
    notes = [
        "work_units: mc = Monte Carlo trials; qae = Grover-operator (Q) applications",
        "error: absolute error in the normalized influence vs the exact live-edge oracle",
    ]
    _write_csv(args.out, notes, "method,work_units,error,rng_seed", rows)
    return 0


def cmd_bench_minfind(args) -> int:
    if args.reps < 1:
        raise ValueError("reps must be >= 1")
    sizes = _grid("--sizes", args.sizes)
    if any(not (1 <= s <= 1 << qsim.MAX_QUBITS) for s in sizes):
        raise ValueError(f"list sizes must be in [1, {1 << qsim.MAX_QUBITS}]")
    rows = []
    for n_items in sizes:
        for rep in range(args.reps):
            seq = np.random.SeedSequence(entropy=args.rng, spawn_key=(n_items, rep))
            rng = np.random.default_rng(seq)
            values = rng.random(n_items)
            true_min = float(values.min())
            rows.append(("linear", n_items, n_items, true_min, true_min, rep))
            result = durr_hoyer_min(values, rng_seed=rng)
            rows.append(("gmf", n_items, result.total_oracle_calls, result.min_value, true_min, rep))
    _write_csv(
        args.out,
        ["work_units: linear = list length; gmf = Grover oracle calls plus verification evaluations"],
        "method,n_items,work_units,found_value,true_min,rng_seed",
        rows,
    )
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
    _common_flags(p, instance=True)
    p.add_argument("--method", choices=["mc", "exact", "qae"], required=True)
    _estimator_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("contain", help="greedy edge-removal containment")
    _common_flags(p, instance=True)
    p.add_argument("--estimator", choices=["mc", "exact", "qae"], default="exact")
    p.add_argument("--finder", choices=["linear", "gmf"], default="linear")
    p.add_argument("--strategy", choices=["all", "frontier", "top_p"], default="all")
    p.add_argument("--k-max", type=int, default=10)
    _estimator_flags(p)
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("bench-estimation", help="MC vs QAE error-vs-work sweep (CSV)")
    _common_flags(p, instance=True)
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


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    if args.rng < 0:
        print(f"error: --rng {args.rng} must be >= 0", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
