import math

import numpy as np
import pytest

from qcontain.gmf import (
    _padded_size,
    _statevector_distribution,
    durr_hoyer_min,
    grover_search,
    make_gmf_finder,
)
from qcontain.containment import RunAccounting


def mask_of(n_items, marked):
    mask = np.zeros(n_items, dtype=bool)
    mask[marked] = True
    return mask


def statevector_success(n_padded, marked, iterations):
    mask = mask_of(n_padded, marked)
    dist = _statevector_distribution(mask, iterations)
    return float(dist[mask].sum())


class TestGroverSearch:
    def test_single_marked_in_four_is_certain_after_one_iteration(self):
        p = statevector_success(4, [2], 1)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert grover_search(mask_of(4, [2]), 1, rng_seed=0, backend="statevector") == 2

    def test_closed_form_n8(self):
        theta = math.asin(math.sqrt(1 / 8))
        expected = math.sin(5 * theta) ** 2
        assert statevector_success(8, [5], 2) == pytest.approx(expected, abs=1e-12)
        hits = 0
        rng = np.random.default_rng(1)
        for _ in range(2000):
            hits += grover_search(mask_of(8, [5]), 2, rng_seed=rng, backend="analytic") is not None
        assert abs(hits / 2000 - expected) < 0.03

    def test_zero_marked_never_found(self):
        for backend in ("analytic", "statevector"):
            assert grover_search(mask_of(8, []), 3, rng_seed=2, backend=backend) is None

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            grover_search(mask_of(4, [0]), -1)

    def test_padding_is_never_marked(self):
        # 5 items pad to 8; with every item marked, no padded index is returned
        marked = np.ones(5, dtype=bool)
        for backend in ("analytic", "statevector"):
            found = [
                grover_search(marked, k, rng_seed=seed, backend=backend)
                for seed in range(20)
                for k in (0, 1, 2)
            ]
            assert all(i is None or 0 <= i < 5 for i in found)
            assert any(i is not None for i in found)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_backends_agree(self, n, m):
        if m > n:
            pytest.skip("more marked than items")
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

    def test_round_thresholds_strictly_decrease(self):
        result = durr_hoyer_min(list(range(32, 0, -1)), rng_seed=3)
        thresholds = [t for t, _ in result.rounds]
        assert thresholds == sorted(thresholds, reverse=True)
        assert len(set(thresholds)) == len(thresholds)

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

    def test_statevector_backend(self):
        result = durr_hoyer_min([0.9, 0.1, 0.5, 0.7], rng_seed=5, backend="statevector")
        assert result.min_value == pytest.approx(0.1)


class TestEdgeFinder:
    def test_picks_minimum(self):
        finder = make_gmf_finder(rng_seed=0)
        acc = RunAccounting()
        idx = finder([0.9, 0.2, 0.5], acc)
        assert idx == 1
        assert acc.grover_oracle_calls > 0

    def test_single_candidate(self):
        finder = make_gmf_finder(rng_seed=0)
        acc = RunAccounting()
        assert finder([0.42], acc) == 0
        assert acc.grover_oracle_calls == 0

    def test_all_equal_scores(self):
        finder = make_gmf_finder(rng_seed=1)
        acc = RunAccounting()
        idx = finder([0.5, 0.5, 0.5], acc)
        assert idx in (0, 1, 2)

    def test_calls_are_deterministic_per_seed(self):
        scores = [0.8, 0.3, 0.6, 0.1, 0.9]
        a1, a2 = RunAccounting(), RunAccounting()
        i1 = make_gmf_finder(rng_seed=4)(scores, a1)
        i2 = make_gmf_finder(rng_seed=4)(scores, a2)
        assert i1 == i2
        assert a1.grover_oracle_calls == a2.grover_oracle_calls


def test_padded_size():
    assert _padded_size(1) == 2
    assert _padded_size(2) == 2
    assert _padded_size(5) == 8
    assert _padded_size(16) == 16
