import math

import numpy as np
import pytest

from qcontain import gmf
from qcontain.gmf import (
    _padded_size,
    durr_hoyer_min,
    grover_search,
    make_gmf_finder,
)
from qcontain.cli import main
from qcontain.containment import RunAccounting, call_seeds

from qpe_reference import grover_distribution


def mask_of(n_items, marked):
    mask = np.zeros(n_items, dtype=bool)
    mask[marked] = True
    return mask


def statevector_success(n_padded, marked, iterations):
    mask = mask_of(n_padded, marked)
    dist = grover_distribution(mask, iterations)
    return float(dist[mask].sum())


class TestGroverSearch:
    def test_single_marked_in_four_is_certain_after_one_iteration(self):
        p = statevector_success(4, [2], 1)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert grover_search(mask_of(4, [2]), 1, rng_seed=0) == 2

    def test_closed_form_n8(self):
        theta = math.asin(math.sqrt(1 / 8))
        expected = math.sin(5 * theta) ** 2
        assert statevector_success(8, [5], 2) == pytest.approx(expected, abs=1e-12)
        hits = 0
        rng = np.random.default_rng(1)
        for _ in range(2000):
            hits += grover_search(mask_of(8, [5]), 2, rng_seed=rng) is not None
        assert abs(hits / 2000 - expected) < 0.03

    def test_zero_marked_never_found(self):
        assert grover_search(mask_of(8, []), 3, rng_seed=2) is None

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            grover_search(mask_of(4, [0]), -1, rng_seed=0)

    def test_padding_is_never_marked(self):
        # 5 items pad to 8; with every item marked, no padded index is returned
        marked = np.ones(5, dtype=bool)
        found = [grover_search(marked, k, rng_seed=seed) for seed in range(20) for k in (0, 1, 2)]
        assert all(i is None or 0 <= i < 5 for i in found)
        assert any(i is not None for i in found)

    @pytest.mark.parametrize(
        "m, n", [(m, n) for m in (0, 1, 2, 4) for n in (2, 4, 8, 16) if m <= n]
    )
    def test_closed_form_matches_the_circuit(self, m, n):
        # the closed form that grover_search samples, against the circuit
        marked = list(range(m))
        theta = math.asin(math.sqrt(m / n))
        for k in range(6):
            closed = math.sin((2 * k + 1) * theta) ** 2
            assert statevector_success(n, marked, k) == pytest.approx(closed, abs=1e-9)


class TestDurrHoyer:
    def test_single_element(self):
        result = durr_hoyer_min([5.0], rng_seed=0)
        assert result.min_index == 0
        assert result.min_value == 5.0
        assert result.total_oracle_calls == 0

    def test_small_list(self):
        result = durr_hoyer_min([3, 1, 4, 1], rng_seed=7)
        assert result.min_value == 1

    def test_never_worse_than_start(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            values = rng.random(16)
            result = durr_hoyer_min(values, rng_seed=rng)
            assert result.min_value == values[result.min_index]

    def test_statistical_success_and_cost(self):
        found = 0
        calls = []
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            values = rng.random(16)
            result = durr_hoyer_min(values, rng_seed=rng)
            found += result.min_value == values.min()
            calls.append(result.total_oracle_calls)
        assert found >= 90
        assert np.mean(calls) <= 4.5 * math.sqrt(16)


def durr_hoyer_exact(n_items):
    """Exact distribution of ``durr_hoyer_min`` over ``n_items`` >= 2 distinct values.

    Returns finished[rank, calls]: the probability that a run ends with
    ``rank`` items below its best after ``calls`` oracle calls. A DP over
    (rank of the current best, calls, failed calls), one step per round r,
    following ``durr_hoyer_min``'s schedule and constants: a round draws k
    uniformly from [0, cap], clips it to the calls left, finds a marked item
    with probability sin^2((2k + 1) * asin(sqrt(rank / padded))), and a find
    costs one more call and moves to a rank drawn uniformly below.
    """
    root = math.sqrt(n_items)
    budget = math.ceil(gmf.BUDGET_CONSTANT * root)
    fail_budget = max(math.ceil(gmf.FAILURE_CALL_CONSTANT * root), gmf.FAILURE_CALL_FLOOR)
    iteration_cap = math.ceil(gmf.ITERATION_CAP_CONSTANT * root)
    theta = np.arcsin(np.sqrt(np.arange(n_items) / _padded_size(n_items)))
    # a find after the last clipped round costs budget + 1 calls
    running = np.zeros((n_items, budget + 2, fail_budget + iteration_cap))
    running[:, 0, 0] = 1 / n_items  # the start is a uniformly drawn item
    finished = np.zeros((n_items, budget + 2))
    for r in range(gmf._MAX_ROUNDS):
        finished += running[:, :, fail_budget:].sum(axis=2)
        running[:, :, fail_budget:] = 0
        finished[:, budget:] += running[:, budget:].sum(axis=2)
        running[:, budget:] = 0
        cap = min(math.ceil(gmf.GROWTH**r), iteration_cap)
        grown = np.zeros_like(running)
        for k in range(cap + 1):
            for calls in range(budget):
                step = min(k, budget - calls)
                hit = np.sin((2 * step + 1) * theta) ** 2
                mass = running[:, calls, :fail_budget] / (cap + 1)
                grown[:, calls + step, step : step + fail_budget] += mass * (1 - hit)[:, None]
                # rank j moves to each of the ranks 0 .. j - 1 with probability 1/j
                spread = (mass.sum(axis=1) * hit)[1:] / np.arange(1, n_items)
                grown[:-1, calls + step + 1, 0] += np.cumsum(spread[::-1])[::-1]
        running = grown
    return finished + running.sum(axis=2)


@pytest.mark.parametrize("n_items", [2, 4, 8])
def test_durr_hoyer_matches_its_exact_statistics(n_items):
    finished = durr_hoyer_exact(n_items)
    assert finished.sum() == pytest.approx(1.0, abs=1e-12)
    calls = np.arange(finished.shape[1])
    p_min = finished[0].sum()
    mean = finished.sum(axis=0) @ calls
    var = finished.sum(axis=0) @ (calls - mean) ** 2
    if n_items >= 4:  # criterion 6 starts at N = 4; at N = 2, E = 6.45 is above 4.5 * sqrt(2)
        assert p_min >= 0.9 and mean <= 4.5 * math.sqrt(n_items)
    runs = 1000
    found, spent = [], []
    for rep in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(n_items, rep)))
        values = rng.random(n_items)
        result = durr_hoyer_min(values, rng_seed=rng)
        found.append(result.min_value == values.min())
        spent.append(result.total_oracle_calls)
    assert abs(np.mean(found) - p_min) <= 4 * math.sqrt(p_min * (1 - p_min) / runs)
    assert abs(np.mean(spent) - mean) <= 4 * math.sqrt(var / runs)


class TestEdgeFinder:
    def test_picks_minimum(self):
        finder = make_gmf_finder(call_seeds(0))
        acc = RunAccounting()
        idx = finder([0.9, 0.2, 0.5], acc)
        assert idx == 1
        assert acc.grover_oracle_calls > 0

    def test_single_candidate(self):
        finder = make_gmf_finder(call_seeds(0))
        acc = RunAccounting()
        assert finder([0.42], acc) == 0
        assert acc.grover_oracle_calls == 0

    def test_all_equal_scores(self):
        finder = make_gmf_finder(call_seeds(1))
        acc = RunAccounting()
        idx = finder([0.5, 0.5, 0.5], acc)
        assert idx in (0, 1, 2)

    def test_calls_are_deterministic_per_seed(self):
        scores = [0.8, 0.3, 0.6, 0.1, 0.9]
        a1, a2 = RunAccounting(), RunAccounting()
        i1 = make_gmf_finder(call_seeds(4))(scores, a1)
        i2 = make_gmf_finder(call_seeds(4))(scores, a2)
        assert i1 == i2
        assert a1.grover_oracle_calls == a2.grover_oracle_calls


def test_padded_size():
    assert _padded_size(1) == 2
    assert _padded_size(2) == 2
    assert _padded_size(5) == 8
    assert _padded_size(16) == 16


def test_bench_minfind_output_is_pinned(capsys):
    # a miss at N = 2 and padding at N = 5, as the closed-form sampler draws them
    assert main(["bench-minfind", "--sizes", "1,2,5,16", "--reps", "3", "--rng", "7"]) == 0
    assert capsys.readouterr().out == (
        "# work_units: linear = list length; "
        "gmf = Grover oracle calls plus verification evaluations\n"
        "method,n_items,work_units,found_value,true_min,rng_seed\n"
        "linear,1,1,0.5898074907472937,0.5898074907472937,0\n"
        "gmf,1,0,0.5898074907472937,0.5898074907472937,0\n"
        "linear,1,1,0.4815233991748108,0.4815233991748108,1\n"
        "gmf,1,0,0.4815233991748108,0.4815233991748108,1\n"
        "linear,1,1,0.4788951467717453,0.4788951467717453,2\n"
        "gmf,1,0,0.4788951467717453,0.4788951467717453,2\n"
        "linear,2,2,0.11155207687949731,0.11155207687949731,0\n"
        "gmf,2,5,0.25337367588238646,0.11155207687949731,0\n"
        "linear,2,2,0.28080256241067203,0.28080256241067203,1\n"
        "gmf,2,10,0.28080256241067203,0.28080256241067203,1\n"
        "linear,2,2,0.30855762687004984,0.30855762687004984,2\n"
        "gmf,2,6,0.30855762687004984,0.30855762687004984,2\n"
        "linear,5,5,0.0779703193436585,0.0779703193436585,0\n"
        "gmf,5,9,0.0779703193436585,0.0779703193436585,0\n"
        "linear,5,5,0.17582731200835378,0.17582731200835378,1\n"
        "gmf,5,10,0.17582731200835378,0.17582731200835378,1\n"
        "linear,5,5,0.4106747104226586,0.4106747104226586,2\n"
        "gmf,5,6,0.4106747104226586,0.4106747104226586,2\n"
        "linear,16,16,0.11264933621950457,0.11264933621950457,0\n"
        "gmf,16,12,0.11264933621950457,0.11264933621950457,0\n"
        "linear,16,16,0.03006626315721672,0.03006626315721672,1\n"
        "gmf,16,21,0.03006626315721672,0.03006626315721672,1\n"
        "linear,16,16,0.03391917006023015,0.03391917006023015,2\n"
        "gmf,16,20,0.03391917006023015,0.03391917006023015,2\n"
    )
