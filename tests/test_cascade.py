import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontain import cascade
from qcontain.cascade import (
    _batch_infected_counts,
    exact_influence,
    live_edge_reachability,
    mc_influence,
)
from qcontain.cli import main
from qcontain.graph import (
    Edge,
    Graph,
    ProblemInstance,
    generate_random_instance,
    parse_instance,
    remove_edges,
)


@dataclass(frozen=True)
class CascadeTrial:
    infected: frozenset[int]
    steps: int


def cascade_from_coins(graph: Graph, seeds: frozenset[int], coins: np.ndarray) -> CascadeTrial:
    """Reference IC run, one round at a time; coins[e] < p(e) decides edge e if attempted."""
    active = set(seeds)
    frontier = set(seeds)
    steps = 0
    while frontier:
        new: set[int] = set()
        for k, e in enumerate(graph.edges):
            if e.src in frontier and e.dst not in active and coins[k] < e.p:
                new.add(e.dst)
        if not new:
            break
        active |= new
        frontier = new
        steps += 1
    return CascadeTrial(frozenset(active), steps)


def simulate_ic(instance: ProblemInstance, rng: np.random.Generator) -> CascadeTrial:
    coins = rng.random(len(instance.graph.edges))
    return cascade_from_coins(instance.graph, instance.seeds, coins)


def live_edge_table(graph: Graph, seeds: frozenset[int]) -> np.ndarray:
    """Boolean (2^|E| x |V|) table: node reachable from the seeds in each live-edge configuration.

    Config x has edge k live iff bit k of x is set; |V| passes over the arcs
    cover every path.
    """
    n_edges = len(graph.edges)
    live = ((np.arange(1 << n_edges)[:, None] >> np.arange(n_edges)) & 1).astype(bool)
    reach = np.zeros((len(live), graph.node_count), dtype=bool)
    reach[:, list(seeds)] = True
    for _ in range(graph.node_count):
        for k, e in enumerate(graph.edges):
            reach[:, e.dst] |= reach[:, e.src] & live[:, k]
    return reach


def live_edge_weights(graph: Graph) -> np.ndarray:
    """Probability of each of the 2^|E| live-edge configurations."""
    n_edges = len(graph.edges)
    weights = np.ones(1 << n_edges)
    for k, e in enumerate(graph.edges):
        bit = ((np.arange(1 << n_edges) >> k) & 1).astype(bool)
        weights *= np.where(bit, e.p, 1.0 - e.p)
    return weights


def enumerated_node_probs(inst: ProblemInstance) -> np.ndarray:
    """Reference oracle: P(node infected) summed over all live-edge configurations."""
    return live_edge_weights(inst.graph) @ live_edge_table(inst.graph, inst.seeds)


def test_all_zero_probability_infects_only_seeds():
    inst = ProblemInstance(Graph(3, [Edge(0, 1, 0.0, 0.1), Edge(1, 2, 0.0, 0.1)]), frozenset({0}), 1.0)
    trial = simulate_ic(inst, np.random.default_rng(0))
    assert trial.infected == {0}
    assert trial.steps == 0


def test_all_one_probability_infects_reachable_set():
    edges = [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.1), Edge(3, 4, 1.0, 0.1)]
    inst = ProblemInstance(Graph(5, edges), frozenset({0}), 1.0)
    trial = simulate_ic(inst, np.random.default_rng(0))
    assert trial.infected == {0, 1, 2}
    assert trial.steps == 2


def test_chain_full_infection_frequency(chain3):
    # P(all three infected) = 0.5 * 0.5 = 0.25 by live-edge enumeration
    rng = np.random.default_rng(7)
    hits = sum(len(simulate_ic(chain3, rng).infected) == 3 for _ in range(20000))
    assert abs(hits / 20000 - 0.25) < 0.01


def test_mc_single_node():
    inst = ProblemInstance(Graph(1, []), frozenset({0}), 1.0)
    est = mc_influence(inst, 50, rng_seed=0)
    assert est.sigma == 1.0
    assert est.std_error == 0.0
    assert est.trials_or_calls == 50


def test_mc_single_edge(single_edge):
    est = mc_influence(single_edge, 10000, rng_seed=1)
    # exact value 1.5; per-trial sd 0.5 so 4 standard errors = 0.02
    assert abs(est.sigma - 1.5) < 0.02


def test_mc_chain(chain3):
    est = mc_influence(chain3, 10000, rng_seed=2)
    assert abs(est.sigma - 1.75) < 0.027


def test_mc_zero_trials_rejected(single_edge):
    with pytest.raises(ValueError):
        mc_influence(single_edge, 0, rng_seed=0)


def test_mc_deterministic(chain3):
    assert mc_influence(chain3, 500, rng_seed=9) == mc_influence(chain3, 500, rng_seed=9)


def test_batch_matches_sequential_simulation():
    # the vectorized engine must reproduce per-trial cascades exactly
    inst = generate_random_instance(7, 0.4, n_seeds=2, rng_seed=13)
    g = inst.graph
    rng = np.random.default_rng(21)
    coins = rng.random((64, len(g.edges)))
    batch = _batch_infected_counts(g, inst.seeds, coins)
    for t in range(64):
        trial = cascade_from_coins(g, inst.seeds, coins[t])
        assert len(trial.infected) == batch[t]


class TestExactInfluence:
    def test_single_edge(self, single_edge):
        result = exact_influence(single_edge)
        assert result.sigma == pytest.approx(1.5, abs=1e-12)
        assert result.node_probs == pytest.approx({0: 1.0, 1: 0.5})

    def test_chain(self, chain3):
        assert exact_influence(chain3).sigma == pytest.approx(1.75, abs=1e-12)

    def test_deterministic_graph_counts_reachable(self):
        edges = [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.1), Edge(3, 2, 1.0, 0.1)]
        inst = ProblemInstance(Graph(4, edges), frozenset({0}), 1.0)
        assert exact_influence(inst).sigma == pytest.approx(3.0)

    def test_too_many_edges_rejected(self, monkeypatch):
        inst = generate_random_instance(4, 1.0, n_seeds=1, rng_seed=0)
        assert len(inst.graph.edges) == 12
        exact_influence(inst)
        monkeypatch.setattr(cascade, "EXACT_WORK_BUDGET", 4)
        with pytest.raises(ValueError, match="too large"):
            exact_influence(inst)

    def test_sigma_is_sum_of_node_probs(self, chain3):
        result = exact_influence(chain3)
        assert result.sigma == pytest.approx(sum(result.node_probs.values()))
        for s in chain3.seeds:
            assert result.node_probs[s] == pytest.approx(1.0)


@given(rng_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_influence_bounds(rng_seed):
    inst = generate_random_instance(5, 0.3, n_seeds=2, rng_seed=rng_seed)
    if len(inst.graph.edges) > 10:
        return
    sigma = exact_influence(inst).sigma
    assert len(inst.seeds) - 1e-12 <= sigma <= inst.graph.node_count + 1e-12


@given(rng_seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_removing_an_edge_never_increases_influence(rng_seed, data):
    inst = generate_random_instance(5, 0.35, n_seeds=1, rng_seed=rng_seed)
    n_edges = len(inst.graph.edges)
    if n_edges == 0 or n_edges > 10:
        return
    k = data.draw(st.integers(0, n_edges - 1))
    before = exact_influence(inst).sigma
    after = exact_influence(
        ProblemInstance(remove_edges(inst.graph, [k]), inst.seeds, inst.lam)
    ).sigma
    assert after <= before + 1e-12


def test_mc_agrees_with_exact_oracle():
    # live-edge equivalence on a handful of small instances
    for seed in range(5):
        inst = generate_random_instance(6, 0.3, n_seeds=1, rng_seed=seed)
        if len(inst.graph.edges) > 10:
            continue
        truth = exact_influence(inst).sigma
        est = mc_influence(inst, 50000, rng_seed=seed + 100)
        band = max(5 * est.std_error, 1e-9)
        assert abs(est.sigma - truth) < band


@st.composite
def small_instances(draw, probs=st.floats(0.0, 1.0), max_pairs=None, undirected=st.booleans()):
    n = draw(st.integers(1, 7))
    undirected = draw(undirected)
    pairs = [(a, b) for a in range(n) for b in range(n) if (a < b if undirected else a != b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_pairs)) if pairs else []
    edges = []
    for a, b in chosen:
        p = draw(probs)
        edges += [Edge(a, b, p, 0.1)] + ([Edge(b, a, p, 0.1)] if undirected else [])
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return ProblemInstance(Graph(n, edges, undirected=undirected), frozenset(seeds), 1.0)


@given(
    inst=small_instances(),
    trials=st.sampled_from([1, 63, 65, 130]),
    coin_seed=st.integers(0, 2**32 - 1),
)
@example(
    inst=ProblemInstance(Graph(5, [], undirected=True), frozenset({0, 2, 4}), 1.0),
    trials=65,
    coin_seed=0,
)
@settings(max_examples=60, deadline=None)
def test_bit_parallel_kernel_matches_per_trial_cascades(inst, trials, coin_seed):
    g = inst.graph
    coins = np.random.default_rng(coin_seed).random((trials, len(g.edges)))
    batch = _batch_infected_counts(g, inst.seeds, coins)
    assert batch.dtype == np.int64
    expected = [len(cascade_from_coins(g, inst.seeds, row).infected) for row in coins]
    assert batch.tolist() == expected


@given(
    inst=small_instances(
        probs=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])), max_pairs=7
    )
)
@settings(max_examples=80, deadline=None)
def test_dp_matches_live_edge_enumeration(inst):
    result = exact_influence(inst)
    expected = enumerated_node_probs(inst)
    assert sorted(result.node_probs) == list(range(inst.graph.node_count))
    for v, prob in result.node_probs.items():
        assert abs(prob - expected[v]) <= 1e-12
    assert abs(result.sigma - expected.sum()) <= 1e-12


@given(
    inst=st.one_of(
        small_instances(probs=st.sampled_from([0.0, 0.3, 1.0]), max_pairs=10, undirected=st.just(False)),
        small_instances(probs=st.sampled_from([0.0, 0.3, 1.0]), max_pairs=5, undirected=st.just(True)),
    )
)
@example(inst=ProblemInstance(Graph(3, []), frozenset({1}), 1.0))
@settings(max_examples=60, deadline=None)
def test_enumeration_rows_match_per_trial_cascades(inst):
    # config x as coins: -1 makes arc k live and 2 dead whatever its p
    g = inst.graph
    counts = live_edge_reachability(g, inst.seeds)
    configs = np.arange(1 << len(g.edges))[:, None]
    coins = np.where((configs >> np.arange(len(g.edges))) & 1, -1.0, 2.0)
    assert counts.shape == (len(coins),) and counts.dtype == np.int64
    for x, row in enumerate(coins):
        assert counts[x] == len(cascade_from_coins(g, inst.seeds, row).infected)


def test_mc_counts_only_rows_an_arc_can_reach():
    # 10,000 nodes, one arc: unpacking every node's row to bytes took ~100 MB
    inst = parse_instance("nodes 10000\n0 1 0.5 0.1\nseeds 0\nlambda 1.0\n")
    tracemalloc.start()
    try:
        est = mc_influence(inst, 10000, rng_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.sigma == 1.499
    assert peak < 40 << 20


def test_mc_counts_seeds_without_a_row_each():
    # 9,999 seeds and one arc: a row per seed took ~110 MB at 10,000 trials
    seeds = " ".join(map(str, range(9999)))
    inst = parse_instance(f"nodes 10000\n0 9999 0.5 0.1\nseeds {seeds}\nlambda 1.0\n")
    tracemalloc.start()
    try:
        est = mc_influence(inst, 10000, rng_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.sigma == 9999.499
    assert peak < 4 << 20


@pytest.mark.parametrize("nodes, edge_prob", [(10, 0.3), (10, 0.4), (12, 0.4)])
def test_dp_agrees_with_mc_beyond_enumeration(nodes, edge_prob):
    inst = generate_random_instance(nodes, edge_prob, n_seeds=1, rng_seed=nodes)
    assert len(inst.graph.edges) > 24
    truth = exact_influence(inst).sigma
    est = mc_influence(inst, 20000, rng_seed=nodes + 100)
    assert abs(est.sigma - truth) < 5 * est.std_error


def test_long_chain_needs_no_recursion():
    n = 2000
    edges = [Edge(v, v + 1, 0.5, 0.1) for v in range(n - 1)]
    result = exact_influence(ProblemInstance(Graph(n, edges), frozenset({0}), 1.0))
    assert result.sigma == pytest.approx(sum(0.5**k for k in range(n)), abs=1e-12)
    assert result.node_probs[10] == pytest.approx(0.5**10, abs=1e-15)


def test_chunk_rows_bound_coin_memory():
    for n_edges in (0, 1, 48, 160, 1000):
        rows = cascade._chunk_rows(n_edges)
        assert rows % 64 == 0
        assert rows * 8 * max(n_edges, 1) <= cascade.COIN_CHUNK_BYTES


def test_chunked_coins_give_the_same_estimate(monkeypatch):
    inst = generate_random_instance(7, 0.4, n_seeds=2, rng_seed=13)
    whole = {t: mc_influence(inst, t, rng_seed=3) for t in (1, 63, 64, 65, 1000)}
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 0)
    assert cascade._chunk_rows(len(inst.graph.edges)) == 64
    calls = []

    def counting(graph, seeds, coins):
        calls.append(coins.shape[0])
        return _batch_infected_counts(graph, seeds, coins)

    monkeypatch.setattr(cascade, "_batch_infected_counts", counting)
    for t, est in whole.items():
        calls.clear()
        assert mc_influence(inst, t, rng_seed=3) == est
        assert sum(calls) == t and max(calls) <= 64


PINNED_MC_INSTANCE = """nodes 6
undirected
0 1 0.9 0.1
0 2 0.4 0.3
1 3 0.7 0.05
2 3 0.5 0.2
3 4 0.6 0.1
4 5 0.8 0.15
seeds 0
lambda 0.8
"""


class TestPinnedCliOutput:
    """MC output, byte for byte as the per-arc boolean kernel printed it."""

    @pytest.fixture
    def pinned(self, tmp_path):
        path = tmp_path / "pinned.txt"
        path.write_text(PINNED_MC_INSTANCE)
        return str(path)

    def test_contain(self, pinned, capsys):
        argv = ["contain", "--instance", pinned, "--estimator", "mc", "--trials", "500",
                "--finder", "linear", "--k-max", "3", "--rng", "5"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "k=1 edge=0->1 idx=0 total=1.556 influence=1.536 impact=0.019999999999999997\n"
            "k=2 edge=0->2 idx=2 total=0.88 influence=0.8 impact=0.07999999999999999\n"
            "removed=2 mc_trials=8000 a_applications=0 q_applications=0 "
            "grover_oracle_calls=0 linear_steps=15\n"
        )

    def test_estimate(self, pinned, capsys):
        argv = ["estimate", "--instance", pinned, "--method", "mc", "--trials", "500", "--rng", "5"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "method mc\n"
            "sigma 3.95\n"
            "sigma_normalized 0.6583333333333333\n"
            "error 0.06951737430787588\n"
            "work_units 500\n"
        )
