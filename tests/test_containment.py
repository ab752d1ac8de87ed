import pytest

from qcontain import cascade
from qcontain.cli import main
from qcontain.containment import (
    RunAccounting,
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
        inst = generate_random_instance(5, 0.5, n_seeds=1, rng_seed=1)
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
        assert candidate_edges(chain3, strategy="all") == (0, 1)

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
        g = Graph(4, [Edge(0, 1, 0.9, 0.1), Edge(1, 2, 0.5, 0.1), Edge(2, 3, 0.1, 0.1)])
        inst = ProblemInstance(g, frozenset({0}), 1.0)
        assert candidate_edges(inst, strategy="top_p", top_p_cap=2) == (0, 1)

    def test_excludes_removed(self, chain3):
        assert candidate_edges(chain3, removed=(0,), strategy="all") == (1,)

    def test_undirected_one_per_pair(self):
        inst = parse_instance(
            "nodes 3\nundirected\n0 1 0.5 0.3\n1 2 0.4 0.2\nseeds 0\nlambda 1.0\n"
        )
        assert candidate_edges(inst, strategy="all") == (0, 2)

    def test_unknown_strategy(self, chain3):
        with pytest.raises(ValueError):
            candidate_edges(chain3, strategy="bogus")


class TestGreedy:
    def test_k_max_zero(self, star):
        plan = greedy_contain(star, make_exact_estimator(), linear_finder, k_max=0)
        assert plan.removed == ()
        assert plan.trace == ()
        assert plan.accounting.linear_steps == 0

    def test_star_removes_certain_edge(self, star):
        plan = greedy_contain(star, make_exact_estimator(), linear_finder, k_max=1)
        assert plan.removed == (0,)
        k, edge, obj = plan.trace[0]
        assert (k, edge) == (1, 0)
        assert obj.influence_term == pytest.approx(1.1)

    def test_lambda_zero_yields_empty_plan(self):
        g = Graph(3, [Edge(0, 1, 1.0, 0.1), Edge(0, 2, 0.1, 0.1)])
        inst = ProblemInstance(g, frozenset({0}), 0.0)
        plan = greedy_contain(inst, make_exact_estimator(), linear_finder, k_max=5)
        assert plan.removed == ()

    def test_trace_strictly_decreases(self):
        inst = generate_random_instance(5, 0.4, n_seeds=1, lam=1.0, rng_seed=6)
        assert 0 < len(inst.graph.edges) <= 12
        plan = greedy_contain(inst, make_exact_estimator(), linear_finder, k_max=6)
        totals = [obj.total for _, _, obj in plan.trace]
        assert all(b < a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_linear_steps_accounting(self, chain3):
        plan = greedy_contain(chain3, make_exact_estimator(), linear_finder, k_max=2)
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
        linear = greedy_contain(star, make_exact_estimator(), linear_finder, k_max=1)
        gmf = greedy_contain(star, make_exact_estimator(), make_gmf_finder(3), k_max=1)
        assert gmf.trace[0][2].total == pytest.approx(linear.trace[0][2].total, abs=1e-9)
        assert gmf.accounting.grover_oracle_calls > 0

    def test_mc_estimator_runs(self, star):
        plan = greedy_contain(star, make_mc_estimator(2000, rng_seed=0), linear_finder, k_max=1)
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

    def test_negative_k_max(self, star):
        with pytest.raises(ValueError):
            greedy_contain(star, make_exact_estimator(), linear_finder, k_max=-1)


def test_qae_a_applications_follow_repetitions(monkeypatch, single_edge):
    from qcontain import qae

    monkeypatch.setattr(qae, "QPE_REPETITIONS", 5)
    acc = RunAccounting()
    est = make_qae_estimator(0.2, rng_seed=0, mode="analytic")(single_edge, (), acc)
    q = (1 << qae.evaluation_qubits_for(0.2)) - 1
    assert est.trials_or_calls == acc.q_applications == 5 * q
    assert acc.a_applications == 5 * (2 * q + 1)


def test_accounting_defaults_zero():
    acc = RunAccounting()
    assert acc.mc_trials == 0
    assert acc.grover_oracle_calls == 0
    assert acc.linear_steps == 0
