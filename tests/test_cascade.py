import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontain import cascade, containment
from qcontain.cascade import (
    exact_influence,
    live_edge_reachability,
    mc_influence,
)
from qcontain.cli import main
from qcontain.containment import (
    RunAccounting,
    call_seeds,
    candidate_edges,
    make_exact_estimator,
    make_mc_estimator,
)
from qcontain.graph import (
    Edge,
    Graph,
    ProblemInstance,
    closed_removal,
    generate_random_instance,
    parse_instance,
    serialize_instance,
)

from conftest import mc_estimate


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


def batch_infected_counts(graph: Graph, seeds: frozenset[int], coins: np.ndarray) -> np.ndarray:
    """The propagation kernel's infected count for each row of a (trials x edges) coin matrix."""
    kernel = cascade._Kernel(graph, seeds)
    live = cascade._pack(coins < np.array([e.p for e in graph.edges]))
    return kernel.count(kernel.active(live))[: len(coins)]


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
    est = mc_estimate(inst, 50, 0)
    assert est.sigma == 1.0
    assert est.std_error == 0.0
    assert est.trials_or_calls == 50


def test_mc_single_edge(single_edge):
    est = mc_estimate(single_edge, 10000, 1)
    # exact value 1.5; per-trial sd 0.5 so 4 standard errors = 0.02
    assert abs(est.sigma - 1.5) < 0.02


def test_mc_chain(chain3):
    est = mc_estimate(chain3, 10000, 2)
    assert abs(est.sigma - 1.75) < 0.027


def test_mc_zero_trials_rejected(single_edge):
    with pytest.raises(ValueError):
        mc_estimate(single_edge, 0, 0)


def test_mc_deterministic(chain3):
    assert mc_estimate(chain3, 500, 9) == mc_estimate(chain3, 500, 9)


def test_batch_matches_sequential_simulation():
    # the vectorized engine must reproduce per-trial cascades exactly
    inst = generate_random_instance(
        7, 0.4, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=13
    )
    g = inst.graph
    rng = np.random.default_rng(21)
    coins = rng.random((64, len(g.edges)))
    batch = batch_infected_counts(g, inst.seeds, coins)
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
        inst = generate_random_instance(
            4, 1.0, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=0
        )
        assert len(inst.graph.edges) == 12
        exact_influence(inst)
        monkeypatch.setattr(cascade, "EXACT_WORK_BUDGET", 4)
        with pytest.raises(ValueError, match="too large"):
            exact_influence(inst)

    def test_work_counts_subset_transitions(self, single_edge, chain3):
        # each state expands 2^(uncertain joiners) transitions: 2 + 1 and 2 + 2 + 1
        assert exact_influence(single_edge).work == 3
        assert exact_influence(chain3).work == 5

    def test_sigma_is_sum_of_node_probs(self, chain3):
        result = exact_influence(chain3)
        assert result.sigma == pytest.approx(sum(result.node_probs.values()))
        for s in chain3.seeds:
            assert result.node_probs[s] == pytest.approx(1.0)


@given(rng_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_influence_bounds(rng_seed):
    inst = generate_random_instance(
        5, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=rng_seed
    )
    if len(inst.graph.edges) > 10:
        return
    sigma = exact_influence(inst).sigma
    assert len(inst.seeds) - 1e-12 <= sigma <= inst.graph.node_count + 1e-12


@given(rng_seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=30, deadline=None)
def test_removing_an_edge_never_increases_influence(rng_seed, data):
    inst = generate_random_instance(
        5, 0.35, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=rng_seed
    )
    n_edges = len(inst.graph.edges)
    if n_edges == 0 or n_edges > 10:
        return
    k = data.draw(st.integers(0, n_edges - 1))
    before = exact_influence(inst).sigma
    after = exact_influence(inst.without_edges([k])).sigma
    assert after <= before + 1e-12


def test_mc_agrees_with_exact_oracle():
    # live-edge equivalence on a handful of small instances
    for seed in range(5):
        inst = generate_random_instance(
            6, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=seed
        )
        if len(inst.graph.edges) > 10:
            continue
        truth = exact_influence(inst).sigma
        est = mc_estimate(inst, 50000, seed + 100)
        band = max(5 * est.std_error, 1e-9)
        assert abs(est.sigma - truth) < band


def test_mc_standard_error_matches_exact_variance():
    # Var of the infected count over live-edge configurations, exactly: the
    # counts of every configuration weighted by its probability
    checked = 0
    for s in range(30):
        inst = generate_random_instance(
            6, 0.35, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=s
        )
        if not (1 <= len(inst.graph.edges) <= 12):
            continue
        weights = live_edge_weights(inst.graph)
        counts = live_edge_reachability(inst.graph, inst.seeds)
        mean = weights @ counts
        variance = weights @ (counts - mean) ** 2
        if variance < 1e-12:
            continue
        trials = 20_000
        est = mc_estimate(inst, trials, 1000 + s)
        exact_se = np.sqrt(variance / trials)
        assert 0.9 <= est.std_error / exact_se <= 1.1, s
        assert abs(est.sigma - mean) <= 5 * exact_se, s
        checked += 1
    assert checked >= 20


def test_shared_draw_standard_errors_match_exact_variance():
    # every candidate of one greedy iteration, scored on the iteration's one draw
    trials = 20_000
    checked = 0
    for s in range(30):
        inst = generate_random_instance(
            6, 0.35, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=s
        )
        removals = [(k,) for k in candidate_edges(inst, (), "all")]
        if not (1 <= len(inst.graph.edges) <= 12 and len(removals) > 1):
            continue
        ests = make_mc_estimator(trials, call_seeds(2000 + s))(inst, removals, RunAccounting())
        for removal, est in zip(removals, ests):
            sub = inst.without_edges(removal)
            weights = live_edge_weights(sub.graph)
            counts = live_edge_reachability(sub.graph, sub.seeds)
            mean = weights @ counts
            variance = weights @ (counts - mean) ** 2
            if variance < 1e-12:
                assert est.std_error == 0.0 and est.sigma == pytest.approx(mean), (s, removal)
                continue
            exact_se = np.sqrt(variance / trials)
            assert 0.9 <= est.std_error / exact_se <= 1.1, (s, removal)
            assert abs(est.sigma - mean) <= 5 * exact_se, (s, removal)
            checked += 1
    assert checked >= 100


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
    batch = batch_infected_counts(g, inst.seeds, coins)
    assert batch.dtype == np.int64
    expected = [len(cascade_from_coins(g, inst.seeds, row).infected) for row in coins]
    assert batch.tolist() == expected


@given(data=st.data(), trials=st.sampled_from([1, 63, 65, 130]), coin_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_removal_mask_matches_the_cut_graph(data, trials, coin_seed):
    # one arc of an undirected pair removes both; the cut graph's coins are
    # the same rows without the removed columns
    inst = data.draw(small_instances())
    g = inst.graph
    removal = data.draw(st.lists(st.sampled_from(range(len(g.edges))), max_size=3)) if g.edges else []
    coins = np.random.default_rng(coin_seed).random((trials, len(g.edges)))
    removed = closed_removal(g, removal)
    live = cascade._pack(coins < np.array([e.p for e in g.edges]))
    live[sorted(removed)] = 0
    kernel = cascade._Kernel(g, inst.seeds)
    masked = kernel.count(kernel.active(live))[:trials]
    sub = inst.without_edges(removal)
    kept = np.delete(coins, sorted(removed), axis=1)
    assert masked.tolist() == batch_infected_counts(sub.graph, sub.seeds, kept).tolist()


def skewed_in_degree_graph(seed: int) -> Graph:
    """Targets of in-degree 1, 2, 3, 5, 9 and 17 and a hub of in-degree 200.

    Seed 0 feeds a pool of 200 nodes; each target takes the one before it
    and the rest of its in-arcs from the pool, so a cascade can run from the
    seed through every target to the hub.
    """
    rng = np.random.default_rng(seed)
    edges = [Edge(0, u, float(rng.uniform(0.2, 0.9)), 0.1) for u in range(1, 201)]
    target = 201
    for degree in (1, 2, 3, 5, 9, 17, 200):
        feeders = [int(u) for u in rng.choice(np.arange(1, 201), size=degree, replace=False)]
        if target > 201:
            feeders[0] = target - 1
        edges += [Edge(u, target, float(rng.uniform(0.05, 0.6)), 0.1) for u in feeders]
        target += 1
    return Graph(target, edges)


@pytest.mark.parametrize("trials", [1, 64, 200])  # one word, one full word, four words
def test_kernel_matches_per_trial_cascades_on_skewed_in_degrees(trials):
    g = skewed_in_degree_graph(trials)
    seeds = frozenset({0})
    kernel = cascade._Kernel(g, seeds)
    assert len(kernel.classes) == 4  # widths 200, 17, 5 and 2
    assert sum(src.size for _, src, _ in kernel.classes) <= 2 * len(kernel.source)
    coins = np.random.default_rng(trials).random((trials, len(g.edges)))
    expected = [len(cascade_from_coins(g, seeds, row).infected) for row in coins]
    assert batch_infected_counts(g, seeds, coins).tolist() == expected


def test_padded_slots_are_at_most_twice_the_arcs_of_an_in_star():
    # the hub's 5,000 in-arcs and one arc from the seed into each of its other
    # feeders: one table padded to the hub's width would hold 25M slots
    n = 10_000
    feeders = [Edge(0, v, 0.5, 0.1) for v in range(1, 5000)]
    g = Graph(n, feeders + [Edge(v, n - 1, 0.5, 0.1) for v in range(5000)])
    kernel = cascade._Kernel(g, frozenset({0}))
    assert len(g.edges) == len(kernel.source) == 9999
    assert sum(src.size for _, src, _ in kernel.classes) <= 2 * len(kernel.source)
    coins = np.random.default_rng(0).random((64, len(g.edges)))
    live = coins < 0.5
    reached = live[:, :4999] & live[:, 5000:]  # seed -> v -> hub
    hub = live[:, 4999] | reached.any(axis=1)
    expected = 1 + live[:, :4999].sum(axis=1) + hub
    assert batch_infected_counts(g, frozenset({0}), coins).tolist() == expected.tolist()


@pytest.mark.parametrize("cascades", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("arcs", [1, 7, 8, 9, 65])
def test_pack_matches_packbits_of_the_transpose(cascades, arcs):
    bits = np.random.default_rng(1000 * cascades + arcs).random((cascades, arcs)) < 0.5
    padded = np.zeros((arcs, -(-cascades // 64) * 64), dtype=bool)  # padding cascades dead
    padded[:, :cascades] = bits.T
    expected = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    for table in (bits, bits.view(np.uint8)):
        packed = cascade._pack(table)
        assert packed.dtype == np.uint64 and packed.tolist() == expected.tolist()


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


def exact_scores(inst, removals):
    return [est.sigma for est in make_exact_estimator()(inst, removals, RunAccounting())]


@given(
    inst=small_instances(
        probs=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])), max_pairs=7
    ),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_one_reverse_pass_scores_each_candidate_as_its_own_dp(inst, data):
    # a greedy iteration's candidates after the prefix () or (k,), with the
    # prefix itself, as the first iteration asks for the intact graph
    prefix = ()
    first = candidate_edges(inst, (), "all")
    if first and data.draw(st.booleans()):
        prefix = (data.draw(st.sampled_from(first)),)
    removals = [prefix, *((*prefix, k) for k in candidate_edges(inst, prefix, "all"))]
    scores = exact_scores(inst, removals)
    assert scores[0] == exact_influence(inst.without_edges(prefix)).sigma
    for removal, sigma in zip(removals, scores):
        assert abs(sigma - exact_influence(inst.without_edges(removal)).sigma) <= 1e-12


def test_a_certain_arc_is_scored_by_its_own_dp():
    # 0->1 (p=1), 1->2 (p=0): the forward DP never expands the branch where
    # arc 0 fails, so sigma - p * grad would read 2.0 for removing it
    inst = parse_instance("nodes 3\n0 1 1.0 0.1\n1 2 0.0 0.1\nseeds 0\nlambda 1.0\n")
    assert exact_scores(inst, [(0,), (1,)]) == [1.0, 2.0]


def test_a_removal_of_two_more_edges_is_scored_by_its_own_dp(chain3):
    # sigma - p0 * grad0 - p1 * grad1 would read 0.75: both arcs act on one cascade
    assert exact_scores(chain3, [(), (0, 1)]) == [1.75, 1.0]


def test_the_reverse_pass_keeps_the_forward_result(chain3):
    exact, grad = cascade.exact_gradient(chain3)
    assert exact == exact_influence(chain3)
    # sigma = 1 + p0 + p0 p1 at p = 0.5
    assert grad == pytest.approx([1.5, 0.5], abs=1e-15)


def test_a_lone_removal_runs_the_forward_dp_alone(chain3, monkeypatch):
    def refuse(instance):
        raise AssertionError("a lone removal ran the reverse pass")

    monkeypatch.setattr(containment, "exact_gradient", refuse)
    assert exact_scores(chain3, [()]) == [1.75]
    assert exact_scores(chain3, [(1,)]) == [1.5]


def gen_instance(seeds, lam):
    """``gen --nodes 9 --edge-prob 0.4 --p-min 0.05 --p-max 0.95 --rng 0``: 26 arcs."""
    return generate_random_instance(9, 0.4, (0.05, 0.95), (0.0, 1.0), seeds, lam, 0)


# exact_gradient(gen_instance(1, 0.5))[1]: the builtin sum of Python 3.12 and later
# compensates, and would move some of these in the last digit
PINNED_GRADIENT = [
    "0.11070176722388836", "0.0", "0.21607187266352035", "0.010364253403004859", "0.0",
    "0.00776022319994957", "0.5579610718255293", "0.0", "1.6088573761546978", "0.0", "0.0",
    "0.0", "0.0", "0.01973164430355772", "0.12866736181430855", "0.0", "0.016291129806567824",
    "5.029953972894772", "0.4409721024164478", "1.7157448660745245", "0.36910163354176445",
    "0.0", "0.060642509160676705", "0.6254655737417504", "0.05492102341946459", "0.0",
]


def test_the_gradient_has_pinned_bits():
    assert [repr(x) for x in cascade.exact_gradient(gen_instance(1, 0.5))[1]] == PINNED_GRADIENT


def count_forward_dps(monkeypatch) -> list:
    runs = []
    forward = cascade._forward

    def counted(instance, log):
        runs.append(instance)
        return forward(instance, log)

    monkeypatch.setattr(cascade, "_forward", counted)
    return runs


def test_a_plan_runs_one_forward_dp_per_iteration(monkeypatch, tmp_path, capsys):
    # the intact graph is scored in the first iteration's call, on that call's DP
    path = tmp_path / "gen.txt"
    path.write_text(serialize_instance(gen_instance(2, 1.0)))
    runs = count_forward_dps(monkeypatch)
    assert main(["contain", "--instance", str(path), "--estimator", "exact", "--k-max", "3"]) == 0
    assert "removed=3 " in capsys.readouterr().out
    assert len(runs) == 3


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
        est = mc_estimate(inst, 10000, 0)
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
        est = mc_estimate(inst, 10000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.sigma == 9999.499
    assert peak < 4 << 20


def test_mc_memory_does_not_grow_with_trials():
    # one int64 count per trial (plus the std temporary) peaked at 68 MiB here
    inst = parse_instance("nodes 2\n0 1 0.5 0.3\nseeds 0\nlambda 1.0\n")
    tracemalloc.start()
    try:
        est = mc_estimate(inst, 4_000_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(est.sigma - 1.5) < 5 * est.std_error
    assert peak < 32 << 20


def star_estimator_peak(monkeypatch, removals):
    """Estimates and tracemalloc peak of one 2^20-trial MC estimator call on an
    8-arc star with 64 KiB coin chunks, where a packed draw would hold 1 MiB."""
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 64 << 10)
    arcs = "".join(f"0 {v} 0.5 0.1\n" for v in range(1, 9))
    inst = parse_instance(f"nodes 9\n{arcs}seeds 0\nlambda 1.0\n")
    make_mc_estimator(64, call_seeds(0))(inst, removals, RunAccounting())  # lazy imports
    tracemalloc.start()
    try:
        ests = make_mc_estimator(1 << 20, call_seeds(0))(inst, removals, RunAccounting())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return inst, ests, peak


def test_mc_estimator_streams_a_single_removal(monkeypatch):
    inst, [est], peak = star_estimator_peak(monkeypatch, [()])
    seed = next(call_seeds(0))
    assert est == mc_influence(inst, 1 << 20, cascade.draw_live(inst, 1 << 20, seed, [()])[0])
    assert peak < 512 << 10


def test_mc_estimator_streams_a_draw_too_large_to_hold(monkeypatch):
    # packing the draw once for three removals held 1.4 MiB
    removals = [(0,), (3,), (5, 7)]
    inst, ests, peak = star_estimator_peak(monkeypatch, removals)
    seed = next(call_seeds(0))
    assert ests == [
        mc_influence(inst, 1 << 20, cascade.draw_live(inst, 1 << 20, seed, [removal])[0])
        for removal in removals
    ]
    assert peak < 512 << 10


def test_mc_estimator_holds_one_row_per_candidate_and_one_chunk(monkeypatch):
    # 500 candidates on 10,000 nodes: four int64s each, where a (|V| + 1)-bin
    # histogram each would be 40 MB
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 1 << 20)
    arcs = "".join(f"0 {v} 0.5 0.1\n" for v in range(1, 501))
    inst = parse_instance(f"nodes 10000\n{arcs}seeds 0\nlambda 1.0\n")
    removals = [(k,) for k in range(500)]
    make_mc_estimator(64, call_seeds(0))(inst, removals[:2], RunAccounting())  # lazy imports
    tracemalloc.start()
    try:
        ests = make_mc_estimator(256, call_seeds(0))(inst, removals, RunAccounting())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    seed = next(call_seeds(0))
    assert ests[::50] == [
        mc_influence(inst, 256, cascade.draw_live(inst, 256, seed, [removal])[0])
        for removal in removals[::50]
    ]
    assert peak < 5 << 19  # 2.5 MiB, of which one chunk of coins is 1 MiB


@given(data=st.data(), trials=st.sampled_from([1, 63, 65, 200]), coin_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scored_draw_matches_a_full_propagation_per_removal(data, trials, coin_seed):
    # 64-trial chunks and tiles; the removals need share no arc, and may repeat
    inst = data.draw(small_instances())
    g = inst.graph
    arcs = st.lists(st.sampled_from(range(len(g.edges))), max_size=3) if g.edges else st.just([])
    removals = data.draw(st.lists(arcs, min_size=1, max_size=6))
    removals += data.draw(st.lists(st.sampled_from(removals), max_size=2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cascade, "COIN_CHUNK_BYTES", 64 * 8)
        rows = cascade.draw_live(inst, trials, coin_seed, removals)
    coins = np.random.default_rng(coin_seed).random((trials, len(g.edges)))
    live = cascade._pack(coins < np.array([e.p for e in g.edges]))
    assert len(rows) == len(removals)
    kernel = cascade._Kernel(g, inst.seeds)
    for removal, row in zip(removals, rows):
        cut = live.copy()
        cut[sorted(closed_removal(g, removal))] = 0
        full = kernel.count(kernel.active(cut))[:trials]
        expected = [trials, g.node_count, full.sum(), full @ full]
        assert row.dtype == np.int64 and row.tolist() == expected


@pytest.mark.parametrize("undirected", [False, True])
def test_greedy_shaped_draw_matches_the_cut_graph_per_candidate(monkeypatch, undirected):
    # an accepted 2-arc prefix out of the seeds plus one candidate arc each, as
    # in a greedy iteration; 512 coin bytes make 64-trial chunks and tiles, and
    # the prefix is dead in the base propagation
    inst = generate_random_instance(
        10, 0.3, p_range=(0.2, 0.8), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=3
    )
    if undirected:
        pairs = [(e, Edge(e.dst, e.src, e.p, e.i)) for e in inst.graph.edges if e.src < e.dst]
        graph = Graph(inst.graph.node_count, [e for pair in pairs for e in pair], undirected=True)
        inst = ProblemInstance(graph, inst.seeds, inst.lam)
    g = inst.graph
    prefix = tuple(k for k, e in enumerate(g.edges) if e.src in inst.seeds and g.represents_pair(k))[:2]
    removals = [(*prefix, k) for k in candidate_edges(inst, prefix, "all")]
    assert len(prefix) == 2 and len(removals) > 2 * 5
    trials = 200
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 512)
    rows = cascade.draw_live(inst, trials, 5, removals)
    coins = np.random.default_rng(5).random((trials, len(g.edges)))
    assert len(rows) == len(removals)
    for removal, row in zip(removals, rows):
        sub = inst.without_edges(removal)
        kept = np.delete(coins, sorted(closed_removal(g, removal)), axis=1)
        counts = batch_infected_counts(sub.graph, sub.seeds, kept)
        assert row.tolist() == [trials, g.node_count, counts.sum(), counts @ counts]


def test_draw_live_replays_one_draw_for_a_none_seed(monkeypatch):
    # every removal is scored on one stream of coins, so a None seed takes
    # fresh entropy once per call and equal removals get equal rows
    inst = generate_random_instance(
        7, 0.4, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=13
    )
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 8 * (inst.graph.node_count + 1))
    first, second = cascade.draw_live(inst, 4096, None, [(0,), (0,)])
    assert first.tolist() == second.tolist()


@pytest.mark.parametrize("trials", [64, 4097])  # one chunk, many
def test_draw_live_scores_every_removal_on_one_coin_stream(monkeypatch, chain3, trials):
    # one coin stream scores every removal, whatever the chunk size
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 0)
    # the trials check runs when draw_live is called, before any coin is drawn
    with pytest.raises(ValueError, match="trials must be >= 1"):
        cascade.draw_live(chain3, 0, 7, [(1,)])
    removals = [(0,), (1,), ()]
    for seed in (7, np.random.SeedSequence(7)):
        rows = cascade.draw_live(chain3, trials, seed, removals)
        ests = make_mc_estimator(trials, iter([seed]))(chain3, removals, RunAccounting())
        assert ests == [mc_influence(chain3, trials, row) for row in rows]
        assert ests == [
            mc_influence(chain3, trials, cascade.draw_live(chain3, trials, seed, [removal])[0])
            for removal in removals
        ]


@pytest.mark.parametrize("nodes, edge_prob", [(10, 0.3), (10, 0.4), (12, 0.4)])
def test_dp_agrees_with_mc_beyond_enumeration(nodes, edge_prob):
    inst = generate_random_instance(
        nodes, edge_prob, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0,
        rng_seed=nodes
    )
    assert len(inst.graph.edges) > 24
    truth = exact_influence(inst).sigma
    est = mc_estimate(inst, 20000, nodes + 100)
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
    inst = generate_random_instance(
        7, 0.4, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=13
    )
    whole = {t: mc_estimate(inst, t, 3) for t in (1, 63, 64, 65, 1000, 4096, 4097, 6000)}
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 0)
    assert cascade._chunk_rows(len(inst.graph.edges)) == 64
    calls = []
    score = cascade._score_chunk

    def counting(kernel, live, extra, rows):
        calls.append(len(live))
        return score(kernel, live, extra, rows)

    monkeypatch.setattr(cascade, "_score_chunk", counting)
    removals = [(), (0,), (1, 2), (0,)]
    for t, est in whole.items():
        calls.clear()
        assert mc_estimate(inst, t, 3) == est
        assert sum(calls) == t and max(calls) <= 64
        calls.clear()
        # every removal is scored on one stream of the coins
        rows = cascade.draw_live(inst, t, 3, removals)
        assert sum(calls) == t and max(calls) <= 64
        assert mc_influence(inst, t, rows[0]) == est
        for removal, row in zip(removals[1:], rows[1:]):
            alone = cascade.draw_live(inst, t, 3, [removal])[0]
            assert mc_influence(inst, t, row) == mc_influence(inst, t, alone)


def test_std_error_has_the_bits_of_the_numpy_formula():
    # 1,000 valid rows, (trials, |V|, sum c, sum c^2), many with trials * sum c^2
    # beyond int64; math.sqrt and np.sqrt are both correctly rounded
    rng = np.random.default_rng(0)
    beyond = 0
    for _ in range(1000):
        trials = int(2 ** rng.uniform(1, 40))
        nodes = int(rng.integers(1, min(1 << 15, int(np.sqrt(((1 << 63) - 1) // trials))) + 1))
        total = int(rng.integers(0, trials * nodes, endpoint=True))
        squares = int(rng.integers(-(-(total * total) // trials), total * nodes, endpoint=True))
        beyond += trials * squares >= 1 << 63
        inst = ProblemInstance(Graph(nodes, []), frozenset({0}), 1.0)
        est = mc_influence(inst, trials, np.array([trials, nodes, total, squares], dtype=np.int64))
        spread = (trials * squares - total * total) / trials
        assert est.std_error == float(np.sqrt(spread / (trials - 1)) / np.sqrt(trials))
        assert type(est.std_error) is float and est.sigma == total / trials
    assert beyond >= 100


def test_shared_draw_must_hold_the_trials_asked_for(chain3):
    row, _ = cascade.draw_live(chain3, 200, 0, [(), (0,)])
    with pytest.raises(ValueError, match="draw holds 200 trials, not 100"):
        mc_influence(chain3, 100, row)


def test_a_drawn_row_fits_its_instance(chain3):
    (row,) = cascade.draw_live(chain3, 200, 0, [(0,)])
    five = generate_random_instance(
        5, 0.4, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=1
    )
    with pytest.raises(ValueError, match="row is of 3 nodes, not 5"):
        mc_influence(five, 200, row)


def test_a_generator_seed_gives_the_rows_of_its_int_seed(chain3):
    removals = [(0,), (1,), ()]
    rows = cascade.draw_live(chain3, 4097, 7, removals)
    same = cascade.draw_live(chain3, 4097, np.random.default_rng(7), removals)
    assert rows.tolist() == same.tolist()


def test_sums_that_could_overflow_are_rejected_before_any_coin(
    monkeypatch, chain3, tmp_path, capsys
):
    def no_coins(kernel, live, extra, rows):
        raise AssertionError("a coin was drawn")

    monkeypatch.setattr(cascade, "_score_chunk", no_coins)
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 0)
    trials = -(-(1 << 63) // 9)  # the fewest whose sum of squares could reach 2^63 on 3 nodes
    with pytest.raises(AssertionError, match="a coin was drawn"):
        cascade.draw_live(chain3, trials - 1, 0, [(0,)])
    with pytest.raises(ValueError, match="overflow the int64 sums"):
        cascade.draw_live(chain3, trials, 0, [(0,)])
    path = tmp_path / "chain3.txt"
    path.write_text("nodes 3\n0 1 0.5 0.1\n1 2 0.5 0.1\nseeds 0\nlambda 1.0\n")
    argv = ["estimate", "--instance", str(path), "--method", "mc", "--trials", str(trials)]
    assert main(argv) == 2
    assert "overflow the int64 sums" in capsys.readouterr().err


def test_every_tile_clears_the_arcs_of_its_own_removals(monkeypatch):
    # 512 coin bytes make 64-trial chunks and 64-column tiles, so the affected
    # cascades of the many single-arc removals span tiles that each hold a
    # different range of removals, and one removal may straddle two tiles
    inst = generate_random_instance(
        12, 0.4, p_range=(0.3, 0.9), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=4
    )
    g = inst.graph
    removals = [(k,) for k in candidate_edges(inst, (), "all")]
    assert len(removals) >= 40
    trials = 300
    monkeypatch.setattr(cascade, "COIN_CHUNK_BYTES", 512)
    assert cascade._chunk_rows(len(g.edges)) == 64
    rows = cascade.draw_live(inst, trials, 9, removals)
    coins = np.random.default_rng(9).random((trials, len(g.edges)))
    for removal, row in zip(removals, rows):
        sub = inst.without_edges(removal)
        kept = np.delete(coins, sorted(closed_removal(g, removal)), axis=1)
        counts = batch_infected_counts(sub.graph, sub.seeds, kept)
        assert row.tolist() == [trials, g.node_count, counts.sum(), counts @ counts]


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


# bench-estimation --mc-trials 100,400 --qae-m 3 --reps 3 --rng 5 on PINNED_MC_INSTANCE:
# each MC row is a draw of its own SeedSequence(seed, spawn_key=(trials,)) stream
PINNED_BENCH_CSV = """\
# work_units: mc = Monte Carlo trials; qae = Grover-operator (Q) applications
# error: absolute error in the normalized influence vs the exact live-edge oracle
method,work_units,error,rng_seed
mc,100,0.0037800000000000056,0
mc,400,0.005386666666666651,0
qae,7,0.16121999999999992,0
mc,100,0.016220000000000012,1
mc,400,0.0058633333333333315,1
qae,7,0.16122000000000014,1
mc,100,0.020446666666666613,2
mc,400,0.010386666666666766,2
qae,7,0.16121999999999992,2
"""


class TestPinnedCliOutput:
    """MC output, byte for byte: ``estimate`` as the per-arc boolean kernel
    printed it, ``contain`` as it prints with one shared draw per iteration,
    the intact graph's on the first. ``contain --finder gmf`` as the
    closed-form Grover sampler prints it, and QAE ``contain`` with its seed
    order: the intact graph's seed first, then one per candidate."""

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
            "k=1 edge=0->1 idx=0 total=1.6216 influence=1.6016 impact=0.019999999999999997\n"
            "k=2 edge=0->2 idx=2 total=0.88 influence=0.8 impact=0.07999999999999999\n"
            "removed=2 mc_trials=8000 a_applications=0 q_applications=0 "
            "grover_oracle_calls=0 linear_steps=15\n"
        )

    def test_contain_qae_gmf(self, pinned, capsys):
        argv = ["contain", "--instance", pinned, "--estimator", "qae", "--analytic",
                "--epsilon", "0.1", "--finder", "gmf", "--rng", "5", "--k-max", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "k=1 edge=0->1 idx=0 total=1.6114643518586722 influence=1.5914643518586722 "
            "impact=0.019999999999999997\n"
            "removed=1 mc_trials=0 a_applications=9180 q_applications=4572 "
            "grover_oracle_calls=22 linear_steps=0\n"
        )

    def test_contain_exact_gmf(self, pinned, capsys):
        argv = ["contain", "--instance", pinned, "--estimator", "exact", "--finder", "gmf",
                "--rng", "5", "--k-max", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "k=1 edge=0->1 idx=0 total=1.5848 influence=1.5648 impact=0.019999999999999997\n"
            "k=2 edge=0->2 idx=2 total=0.8799999999999999 influence=0.7999999999999999 "
            "impact=0.07999999999999999\n"
            "removed=2 mc_trials=0 a_applications=0 q_applications=0 "
            "grover_oracle_calls=25 linear_steps=0\n"
        )

    def test_every_mc_estimate_reads_a_drawn_row(self, pinned, tmp_path, monkeypatch, capsys):
        # one MC path: every estimate is read from a row of a draw_live draw
        draws, reads = [], []

        def wrap(name, calls):
            original = getattr(cascade, name)

            def wrapped(*args):
                calls.append(args)
                return original(*args)

            for module in (cascade, containment):
                monkeypatch.setattr(module, name, wrapped)

        wrap("draw_live", draws)
        wrap("mc_influence", reads)
        for argv in (
            ["estimate", "--method", "mc", "--trials", "500"],
            ["contain", "--estimator", "mc", "--trials", "500", "--k-max", "2"],
        ):
            assert main([*argv, "--instance", pinned, "--rng", "5"]) == 0
        assert len(draws) == 3
        assert len(reads) == sum(len(removals) for *_, removals in draws)
        assert all(isinstance(row, np.ndarray) for *_, row in reads)
        draws.clear()
        reads.clear()
        out = tmp_path / "bench.csv"
        argv = ["bench-estimation", "--instance", pinned, "--mc-trials", "100,400", "--qae-m", "3",
                "--reps", "3", "--rng", "5", "--out", str(out)]
        assert main(argv) == 0
        # one draw of the intact graph per (rep, trials) pair
        assert [trials for _, trials, _, _ in draws] == [100, 400] * 3
        assert all(removals == [()] for *_, removals in draws)
        assert len(reads) == 6 and all(isinstance(row, np.ndarray) for *_, row in reads)
        assert out.read_text() == PINNED_BENCH_CSV

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
