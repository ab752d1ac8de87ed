import pytest

from qcontain import cascade
from qcontain.cli import main
from qcontain.containment import (
    TOP_P_CAP,
    RunAccounting,
    call_seeds,
    candidate_edges,
    greedy_contain,
    linear_finder,
    make_exact_estimator,
    make_mc_estimator,
    make_qae_estimator,
    objective,
    operational_impact,
)
from qcontain.gmf import make_gmf_finder
from qcontain.graph import Edge, Graph, ProblemInstance, generate_random_instance, parse_instance


class TestOperationalImpact:
    def test_empty(self, chain3):
        assert operational_impact((), chain3.graph) == 0.0

    def test_sums_importances(self):
        g = Graph(3, [Edge(0, 1, 0.5, 0.3), Edge(1, 2, 0.5, 0.4)])
        assert operational_impact([0, 1], g) == pytest.approx(0.7)

    def test_whole_graph(self):
        inst = generate_random_instance(
            5, 0.5, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=1
        )
        g = inst.graph
        total = operational_impact(range(len(g.edges)), g)
        assert total == pytest.approx(sum(e.i for e in g.edges))

    def test_undirected_pair_counts_once(self):
        inst = parse_instance("nodes 2\nundirected\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n")
        assert operational_impact([0], inst.graph) == pytest.approx(0.3)
        assert operational_impact([0, 1], inst.graph) == pytest.approx(0.3)

    def test_invalid_index(self, chain3):
        with pytest.raises(ValueError):
            operational_impact([9], chain3.graph)


class TestObjective:
    def test_lambda_one(self, chain3):
        val = objective(chain3, (0,), sigma=1.25)
        assert val.total == pytest.approx(1.25)
        assert val.impact_term == 0.0

    def test_lambda_zero(self):
        inst = ProblemInstance(Graph(2, [Edge(0, 1, 0.5, 0.3)]), frozenset({0}), 0.0)
        val = objective(inst, (0,), sigma=1.0)
        assert val.total == pytest.approx(0.3)
        assert val.influence_term == 0.0

    def test_balanced(self):
        inst = ProblemInstance(Graph(2, [Edge(0, 1, 0.5, 0.7)]), frozenset({0}), 0.5)
        val = objective(inst, (0,), sigma=1.5)
        assert val.total == pytest.approx(0.5 * 1.5 + 0.5 * 0.7)
        assert val.total == pytest.approx(val.influence_term + val.impact_term)


class TestCandidates:
    def test_all(self, chain3):
        assert candidate_edges(chain3, (), "all") == (0, 1)

    @pytest.mark.parametrize(
        "n_nodes, arcs, removed, expected",
        [
            (3, [(0, 1), (2, 1)], (), (0,)),
            # reach spans several hops, and a removal cuts it
            (5, [(0, 1), (1, 2), (2, 3), (4, 3)], (), (0, 1, 2)),
            (5, [(0, 1), (1, 2), (2, 3), (4, 3)], (1,), (0,)),
        ],
        ids=["one-hop", "multi-hop", "cut-by-removal"],
    )
    def test_frontier_excludes_unreachable_sources(self, n_nodes, arcs, removed, expected):
        g = Graph(n_nodes, [Edge(a, b, 0.5, 0.1) for a, b in arcs])
        inst = ProblemInstance(g, frozenset({0}), 1.0)
        assert candidate_edges(inst, removed=removed, strategy="frontier") == expected

    def test_top_p_truncates(self):
        # 11 arcs; the cap falls inside the tie at p = 0.5, so arc 10 loses to 0, 3, 6 and 9
        ps = [0.5, 0.9, 0.8, 0.5, 0.7, 0.2, 0.5, 0.3, 0.9, 0.5, 0.5]
        g = Graph(12, [Edge(0, k + 1, p, 0.1) for k, p in enumerate(ps)])
        inst = ProblemInstance(g, frozenset({0}), 1.0)
        assert len(candidate_edges(inst, (), "all")) == len(ps) > TOP_P_CAP
        assert candidate_edges(inst, (), "top_p") == (0, 1, 2, 3, 4, 6, 8, 9)

    def test_excludes_removed(self, chain3):
        assert candidate_edges(chain3, removed=(0,), strategy="all") == (1,)

    def test_undirected_one_per_pair(self):
        inst = parse_instance(
            "nodes 3\nundirected\n0 1 0.5 0.3\n1 2 0.4 0.2\nseeds 0\nlambda 1.0\n"
        )
        assert candidate_edges(inst, (), "all") == (0, 2)

    def test_unknown_strategy(self, chain3):
        with pytest.raises(ValueError):
            candidate_edges(chain3, (), "bogus")


class TestGreedy:
    def test_k_max_zero(self, star):
        plan = greedy_contain(star, make_exact_estimator(), linear_finder, k_max=0, strategy="all")
        assert plan.removed == ()
        assert plan.trace == ()
        assert plan.accounting.linear_steps == 0

    def test_star_removes_certain_edge(self, star):
        plan = greedy_contain(star, make_exact_estimator(), linear_finder, k_max=1, strategy="all")
        assert plan.removed == (0,)
        k, edge, obj = plan.trace[0]
        assert (k, edge) == (1, 0)
        assert obj.influence_term == pytest.approx(1.1)

    def test_lambda_zero_yields_empty_plan(self):
        g = Graph(3, [Edge(0, 1, 1.0, 0.1), Edge(0, 2, 0.1, 0.1)])
        inst = ProblemInstance(g, frozenset({0}), 0.0)
        plan = greedy_contain(inst, make_exact_estimator(), linear_finder, k_max=5, strategy="all")
        assert plan.removed == ()

    def test_trace_strictly_decreases(self):
        inst = generate_random_instance(
            5, 0.4, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=6
        )
        assert 0 < len(inst.graph.edges) <= 12
        plan = greedy_contain(inst, make_exact_estimator(), linear_finder, k_max=6, strategy="all")
        totals = [obj.total for _, _, obj in plan.trace]
        assert all(b < a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_linear_steps_accounting(self, chain3):
        plan = greedy_contain(
            chain3, make_exact_estimator(), linear_finder, k_max=2, strategy="all"
        )
        # first iteration scans 2 candidates, second scans 1
        expected = 0
        remaining = 2
        for _ in plan.trace:
            expected += remaining
            remaining -= 1
        if len(plan.trace) < 2 and remaining:
            expected += remaining  # the final, rejected scan
        assert plan.accounting.linear_steps == expected

    def test_finder_equivalence_on_star(self, star):
        linear = greedy_contain(
            star, make_exact_estimator(), linear_finder, k_max=1, strategy="all"
        )
        gmf = greedy_contain(
            star, make_exact_estimator(), make_gmf_finder(call_seeds(3)), k_max=1, strategy="all"
        )
        assert gmf.trace[0][2].total == pytest.approx(linear.trace[0][2].total, abs=1e-9)
        assert gmf.accounting.grover_oracle_calls > 0

    def test_mc_estimator_runs(self, star):
        plan = greedy_contain(
            star, make_mc_estimator(2000, call_seeds(0)), linear_finder, k_max=1, strategy="all"
        )
        assert plan.removed == (0,)
        assert plan.accounting.mc_trials == 2000 * 3  # baseline + 2 candidates

    def test_estimator_failure_carries_context(self, tmp_path, capsys, monkeypatch):
        # removing 0->2 turns node 2 from a sure joiner into a branch: the
        # exact DP needs 4 subset transitions for the base and 8 without arc 0
        path = tmp_path / "inst.txt"
        path.write_text(
            "nodes 5\n0 2 1.0 0.1\n1 2 0.5 0.1\n0 3 1.0 0.1\n2 4 0.5 0.1\n3 4 0.5 0.1\n"
            "seeds 0 1\nlambda 1.0\n"
        )
        monkeypatch.setattr(cascade, "EXACT_WORK_BUDGET", 4)
        assert main(["estimate", "--instance", str(path), "--method", "exact"]) == 0
        capsys.readouterr()
        argv = ["contain", "--instance", str(path), "--estimator", "exact", "--k-max", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: instance too large")
        assert "Traceback" not in err

    def test_each_removal_is_estimated_once(self):
        # the intact graph leads the first call; every later call is one iteration's candidates
        calls, finds = [], []
        exact = make_exact_estimator()

        def estimator(instance, removals, accounting):
            calls.append(list(removals))
            return exact(instance, removals, accounting)

        def finder(scores, accounting):
            finds.append(len(scores))
            return linear_finder(scores, accounting)

        inst = generate_random_instance(
            6, 0.4, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=0
        )
        plan = greedy_contain(inst, estimator, finder, k_max=3, strategy="all")
        assert len(plan.removed) == 2 and len(finds) == 3  # the third iteration is rejected
        assert calls[0] == [(), *((e,) for e in candidate_edges(inst, (), "all"))]
        asked = [removal for call in calls for removal in call]
        assert len(asked) == len(set(asked))
        assert len(calls) == len(finds)
        for k_max, instance in [(0, inst), (2, ProblemInstance(Graph(3, []), frozenset({0}), 1.0))]:
            calls.clear()
            greedy_contain(instance, estimator, finder, k_max=k_max, strategy="all")
            assert calls == [[()]]

    def test_negative_k_max(self, star):
        with pytest.raises(ValueError):
            greedy_contain(star, make_exact_estimator(), linear_finder, k_max=-1, strategy="all")


def test_qae_a_applications_follow_repetitions(monkeypatch, single_edge):
    from qcontain import qae

    monkeypatch.setattr(qae, "QPE_REPETITIONS", 5)
    returned = []

    def recorded(*args, _original=qae.qae_estimate, **kwargs):
        returned.append(_original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(qae, "qae_estimate", recorded)
    acc = RunAccounting()
    (est,) = make_qae_estimator(0.2, call_seeds(0), mode="analytic")(single_edge, [()], acc)
    q = (1 << qae.evaluation_qubits_for(0.2)) - 1
    assert est.trials_or_calls == acc.q_applications == 5 * q
    assert acc.a_applications == 5 * (2 * q + 1)
    # the accounting's A formula and the estimate's own count cannot drift apart
    (amp,) = returned
    assert (acc.q_applications, acc.a_applications) == (amp.q_applications, amp.a_applications)


def test_qae_accounting_adds_a_call_once_over_its_removals(monkeypatch, chain3):
    # on [()] alone, a per-call QPE_REPETITIONS term and a per-estimate one agree
    from qcontain import qae

    monkeypatch.setattr(qae, "QPE_REPETITIONS", 5)
    returned = []

    def recorded(*args, _original=qae.qae_estimate, **kwargs):
        returned.append(_original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(qae, "qae_estimate", recorded)
    acc = RunAccounting()
    removals = [(), (0,), (1,)]
    ests = make_qae_estimator(0.2, call_seeds(0), mode="statevector")(chain3, removals, acc)
    assert len(ests) == len(returned) == 3
    assert acc.q_applications == sum(amp.q_applications for amp in returned)
    assert acc.a_applications == sum(amp.a_applications for amp in returned)


def test_accounting_defaults_zero():
    acc = RunAccounting()
    assert acc.mc_trials == 0
    assert acc.grover_oracle_calls == 0
    assert acc.linear_steps == 0
