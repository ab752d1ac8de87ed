"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Every stochastic criterion is pinned to fixed seeds so the suite is
deterministic. The lines bypass pytest's capture so they always appear on
the terminal.
"""
import math
import sys
import time

import numpy as np
import pytest

from qcontain import qsim
from qcontain.cascade import exact_influence
from qcontain.cli import main as cli_main
from qcontain.containment import (
    call_seeds,
    greedy_contain,
    linear_finder,
    make_exact_estimator,
    objective,
)
from qcontain.gmf import durr_hoyer_min, make_gmf_finder
from qcontain.graph import Edge, Graph, ProblemInstance, generate_random_instance
from qcontain.qae import (
    _statevector_qpe_distribution,
    a_state,
    build_a_operator,
    qpe_outcome_distribution,
    read_estimate,
)

from conftest import mc_estimate
from qpe_reference import grover_distribution, row_loop_qpe_distribution


@pytest.fixture
def report(capfd):
    """Print one pass/fail line per criterion on the real terminal."""

    def _report(name, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[{status}] {name}: {detail}", file=sys.stderr, flush=True)
        assert ok, f"{name}: {detail}"

    return _report


def small_instances(count, seed_base, max_edges, lam=1.0):
    out = []
    probe = 0
    while len(out) < count:
        inst = generate_random_instance(
            4 + len(out) % 5, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0),
            n_seeds=1 + len(out) % 2, lam=lam, rng_seed=seed_base + probe
        )
        probe += 1
        if 1 <= len(inst.graph.edges) <= max_edges:
            out.append(inst)
    return out


def test_criterion_1_live_edge_ic_equivalence(report):
    start = time.time()
    worst = 0.0
    for i, inst in enumerate(small_instances(20, seed_base=3000, max_edges=10)):
        exact = exact_influence(inst, ()).sigma
        mc = mc_estimate(inst, 200_000, 500 + i)
        se = max(mc.std_error, 1e-12)
        worst = max(worst, abs(mc.sigma - exact) / se)
    elapsed = time.time() - start
    report(
        "criterion 1 (MC matches exact within 5 SE)",
        worst <= 5.0 and elapsed <= 60.0,
        f"worst deviation {worst:.2f} SE over 20 instances in {elapsed:.1f}s",
    )


FIXED_8EDGE = generate_random_instance(
    7, 0.25, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=1217
)
assert len(FIXED_8EDGE.graph.edges) == 8


def mc_rmse_curve(inst, sigma, trial_grid, reps=100):
    rmses = []
    for trials in trial_grid:
        errs = [
            mc_estimate(inst, trials, 1000 * trials + r).sigma - sigma
            for r in range(reps)
        ]
        rmses.append(float(np.sqrt(np.mean(np.square(errs)))))
    return rmses


def test_criterion_2_mc_rmse_halves_per_4x_trials(report):
    sigma = exact_influence(FIXED_8EDGE, ()).sigma
    rmses = mc_rmse_curve(FIXED_8EDGE, sigma, (100, 400, 1600, 6400))
    ratios = [rmses[i] / rmses[i + 1] for i in range(3)]
    ok = all(1.6 <= r <= 2.5 for r in ratios)
    report(
        "criterion 2 (MC RMSE halves per 4x trials)",
        ok,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " all in [1.6, 2.5]",
    )


def test_criterion_3_ancilla_encodes_normalized_influence(report):
    worst_p1 = 0.0
    worst_tv = 0.0
    checked = 0
    instances = small_instances(12, seed_base=6000, max_edges=8)
    instances.append(ProblemInstance(Graph(1, []), frozenset({0}), 1.0))
    instances.append(
        ProblemInstance(Graph(2, [Edge(0, 1, 0.5, 0.3)]), frozenset({0}), 1.0)
    )
    for inst in instances:
        a_true = exact_influence(inst, ()).sigma / inst.graph.node_count
        spec = build_a_operator(inst, (), eval_qubits=0)
        state = a_state(spec)
        p1 = qsim.probability_of(state, spec.n_edge_qubits, 1)
        worst_p1 = max(worst_p1, abs(p1 - a_true))
        # analytic mode uses the same exact a; its readout distribution must
        # match the statevector phase-estimation readout, and so must the
        # readout of the full block of Q rows
        an = qpe_outcome_distribution(a_true, 3)
        for sv in (_statevector_qpe_distribution(spec, 3), row_loop_qpe_distribution(spec, 3)):
            worst_tv = max(worst_tv, float(np.abs(sv - an).sum() / 2))
        checked += 1
    report(
        "criterion 3 (ancilla P(1) = sigma/|V|)",
        worst_p1 <= 1e-9 and worst_tv <= 1e-8,
        f"{checked} instances, worst |P(1) - a| = {worst_p1:.2e}, "
        f"worst statevector/analytic TV = {worst_tv:.2e}",
    )


def test_criterion_4_qae_accuracy_and_scaling(report):
    a = exact_influence(FIXED_8EDGE, ()).sigma / 7
    m_grid = (4, 6, 8, 10)
    fracs = []
    mean_errs = []
    q_apps = []
    for m in m_grid:
        bound = math.pi / 2**m + math.pi**2 / 2 ** (2 * m)
        dist = qpe_outcome_distribution(a, m)
        single = []
        voted = []
        for r in range(500):
            triple = [
                read_estimate(dist, np.random.default_rng(70000 + 1000 * m + 3 * r + j), 1).a_hat
                for j in range(3)
            ]
            single.append(abs(triple[0] - a))
            voted.append(abs(float(np.median(triple)) - a))
        fracs.append(float(np.mean(np.array(single) <= bound)))
        mean_errs.append(float(np.mean(voted)))
        q_apps.append(2**m - 1)
    qae_slope = float(np.polyfit(np.log(q_apps), np.log(mean_errs), 1)[0])

    sigma = exact_influence(FIXED_8EDGE, ()).sigma
    trial_grid = (100, 400, 1600, 6400)
    rmses = mc_rmse_curve(FIXED_8EDGE, sigma, trial_grid)
    mc_slope = float(np.polyfit(np.log(trial_grid), np.log(rmses), 1)[0])

    ok = (
        all(f >= 0.80 for f in fracs)
        and -1.15 <= qae_slope <= -0.85
        and -0.6 <= mc_slope <= -0.4
    )
    report(
        "criterion 4 (QAE error bound and 1/eps vs 1/eps^2 scaling)",
        ok,
        "bound hit rate " + ", ".join(f"{f:.2f}" for f in fracs)
        + f" (need >= 0.80); QAE slope {qae_slope:.3f} (need -1 +- 0.15), "
        f"MC slope {mc_slope:.3f} (need -0.5 +- 0.1)",
    )


def test_criterion_5_grover_closed_form(report):
    worst = 0.0
    exact_case = None
    for n in (2, 4, 8, 16):
        for m_marked in (0, 1, 2, 4):
            if m_marked > n:
                continue
            mask = np.zeros(n, dtype=bool)
            mask[:m_marked] = True
            theta = math.asin(math.sqrt(m_marked / n))
            for k in range(6):
                dist = grover_distribution(mask, k)
                success = float(dist[mask].sum())
                closed = math.sin((2 * k + 1) * theta) ** 2
                worst = max(worst, abs(success - closed))
                if (n, m_marked, k) == (4, 1, 1):
                    exact_case = success
    report(
        "criterion 5 (Grover statevector matches closed form)",
        worst <= 1e-9 and abs(exact_case - 1.0) <= 1e-9,
        f"worst deviation {worst:.2e}; N=4, M=1, k=1 success = {exact_case:.12f}",
    )


def test_criterion_6_minimum_finding_statistics(report):
    start = time.time()
    sizes = (4, 16, 64, 256)
    means = []
    ok = True
    details = []
    for n in sizes:
        hits = 0
        calls = []
        for rep in range(200):
            rng = np.random.default_rng(42000 + n * 1000 + rep)
            values = rng.random(n)
            result = durr_hoyer_min(values, rng_seed=rng)
            hits += result.min_value == values.min()
            calls.append(result.total_oracle_calls)
        mean = float(np.mean(calls))
        means.append(mean)
        ok = ok and hits >= 180 and mean <= 4.5 * math.sqrt(n)
        details.append(f"N={n}: {hits / 200:.0%} found, {mean:.1f} calls")
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    elapsed = time.time() - start
    ok = ok and 0.4 <= slope <= 0.65 and elapsed <= 120.0
    report(
        "criterion 6 (min finding >= 90% success at <= 4.5 sqrt(N) calls)",
        ok,
        "; ".join(details) + f"; slope {slope:.2f} in [0.4, 0.65]; {elapsed:.1f}s",
    )


def test_criterion_7_finder_equivalence(report):
    def final_objective(inst, plan):
        if plan.trace:
            return plan.trace[-1][2].total
        return objective(inst, (), sigma=exact_influence(inst, ()).sigma).total

    agree = 0
    total_calls = 0
    made = 0
    probe = 0
    while made < 20:
        inst = generate_random_instance(
            5 + made % 3, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=0.7,
            rng_seed=8800 + probe
        )
        probe += 1
        if not 1 <= len(inst.graph.edges) <= 8:
            continue
        made += 1
        linear = greedy_contain(
            inst, make_exact_estimator(), linear_finder, k_max=3, strategy="all"
        )
        quantum = greedy_contain(
            inst, make_exact_estimator(), make_gmf_finder(call_seeds(900 + made)), k_max=3,
            strategy="all"
        )
        if abs(final_objective(inst, linear) - final_objective(inst, quantum)) <= 1e-9:
            agree += 1
        total_calls += quantum.accounting.grover_oracle_calls
    report(
        "criterion 7 (GMF finder matches linear finder)",
        agree >= 18,
        f"{agree}/20 runs agree within 1e-9 (need >= 18); "
        f"{total_calls} Grover oracle calls across the GMF runs",
    )


def test_criterion_8_greedy_sanity(report):
    # lambda = 0: removing anything only adds impact, so the plan is empty
    empty_ok = True
    for inst in small_instances(5, seed_base=7700, max_edges=10, lam=0.0):
        plan = greedy_contain(inst, make_exact_estimator(), linear_finder, k_max=5, strategy="all")
        empty_ok = empty_ok and plan.removed == ()

    # lambda = 1 on a star with one certain edge: that edge goes first
    star = ProblemInstance(
        Graph(3, [Edge(0, 1, 1.0, 0.1), Edge(0, 2, 0.1, 0.1)]), frozenset({0}), 1.0
    )
    star_plan = greedy_contain(
        star, make_exact_estimator(), linear_finder, k_max=1, strategy="all"
    )
    star_ok = star_plan.removed == (0,)

    # accepted steps strictly decrease the objective
    decrease_ok = True
    for inst in small_instances(5, seed_base=7900, max_edges=10, lam=0.8):
        plan = greedy_contain(inst, make_exact_estimator(), linear_finder, k_max=5, strategy="all")
        totals = [obj.total for _, _, obj in plan.trace]
        decrease_ok = decrease_ok and all(
            b < a - 1e-9 for a, b in zip(totals, totals[1:])
        )

    report(
        "criterion 8 (greedy sanity)",
        empty_ok and star_ok and decrease_ok,
        f"lambda=0 empty plans: {empty_ok}; star removes p=1 edge first: {star_ok}; "
        f"traces strictly decrease: {decrease_ok}",
    )


def test_criterion_9_cli_byte_determinism(tmp_path, report):
    inst_a, inst_b = tmp_path / "ia.txt", tmp_path / "ib.txt"
    gen = ["gen", "--nodes", "6", "--edge-prob", "0.4", "--seeds", "2", "--rng", "11"]
    assert cli_main(gen + ["--out", str(inst_a)]) == 0
    assert cli_main(gen + ["--out", str(inst_b)]) == 0

    pairs = [("gen", inst_a, inst_b)]
    commands = {
        "estimate": ["estimate", "--instance", str(inst_a), "--method", "mc",
                     "--trials", "2000", "--rng", "3"],
        "contain": ["contain", "--instance", str(inst_a), "--estimator", "exact",
                    "--finder", "gmf", "--k-max", "2", "--rng", "3"],
        "bench-estimation": ["bench-estimation", "--instance", str(inst_a),
                             "--reps", "3", "--rng", "3"],
        "bench-minfind": ["bench-minfind", "--sizes", "4,16", "--reps", "5",
                          "--rng", "3"],
    }
    for name, args in commands.items():
        out_a = tmp_path / f"{name}-a.csv"
        out_b = tmp_path / f"{name}-b.csv"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        pairs.append((name, out_a, out_b))

    mismatched = [name for name, a, b in pairs if a.read_bytes() != b.read_bytes()]
    report(
        "criterion 9 (CLI reruns are byte-identical)",
        not mismatched,
        "gen, estimate, contain, bench-estimation, bench-minfind all reproduce"
        if not mismatched
        else f"mismatch in: {', '.join(mismatched)}",
    )
