"""Grover search and Durr-Hoyer minimum finding with oracle-call accounting.

The marked set is a boolean mask over the items; Durr-Hoyer marks the values
below its current threshold. A Grover run is sampled from its closed form: the
index space is padded to the next power of two N, padded indices are never
marked, and k iterations find one of the M marked items with probability
sin^2((2k+1) * asin(sqrt(M/N))) (Boyer, Brassard, Hoyer and Tapp 1998).
The tests check that closed form against the simulated circuit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import asin, ceil, sin, sqrt
from typing import Iterator, Sequence

import numpy as np

GROWTH = 8 / 7
BUDGET_CONSTANT = 9.0
# Stop a run once this many oracle calls have been spent without improving the
# candidate (scaled by sqrt(N), floored for tiny lists). A cheap zero- or
# one-iteration round barely dents the budget, so the schedule keeps probing
# while its iteration cap grows; the post-minimum tail stays bounded.
FAILURE_CALL_CONSTANT = 2.0
FAILURE_CALL_FLOOR = 5
ITERATION_CAP_CONSTANT = 0.9
_MAX_ROUNDS = 500


@dataclass(frozen=True)
class MinFindResult:
    min_index: int
    min_value: float
    total_oracle_calls: int
    rounds: tuple[tuple[float, int], ...]


def _padded_size(size: int) -> int:
    return max(2, 1 << (size - 1).bit_length())  # at least one qubit


def grover_search(
    marked: np.ndarray, iterations: int, rng_seed: int | np.random.Generator
) -> int | None:
    """One Grover run over the items of the boolean mask ``marked``, padded to
    N items: with the run's success probability it returns a marked index,
    drawn uniformly, else None."""
    if len(marked) < 1:
        raise ValueError("marked must cover at least one item")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    rng = np.random.default_rng(rng_seed)
    marked_items = np.flatnonzero(marked)
    theta = asin(sqrt(len(marked_items) / _padded_size(len(marked))))
    p_success = sin((2 * iterations + 1) * theta) ** 2
    if len(marked_items) and rng.random() < p_success:
        return int(marked_items[rng.integers(len(marked_items))])
    return None


def durr_hoyer_min(
    values: Sequence[float] | np.ndarray, rng_seed: int | np.random.Generator
) -> MinFindResult:
    """Quantum minimum finding via repeated Grover searches below a threshold.

    Each round marks the items whose value is below the current best. The
    iteration count per round is drawn uniformly from [0, cap] where the
    cap follows the exponential schedule ceil(GROWTH^r) over the rounds r
    run so far, improving or not, never reset (for the unknown marked
    count), clipped at ~0.9*sqrt(N). Accounting
    charges one oracle call per Grover iteration plus one classical
    evaluation per candidate verification. A run ends when the overall call
    budget, ceil(BUDGET_CONSTANT * sqrt(N)), is spent or the failure call
    budget passes without an improvement.
    """
    values = np.asarray(values, dtype=float)
    n_items = len(values)
    if n_items < 1:
        raise ValueError("values must hold at least one item")
    rng = np.random.default_rng(rng_seed)
    budget = ceil(BUDGET_CONSTANT * sqrt(n_items))
    fail_budget = max(ceil(FAILURE_CALL_CONSTANT * sqrt(n_items)), FAILURE_CALL_FLOOR)
    iteration_cap = ceil(ITERATION_CAP_CONSTANT * sqrt(n_items))

    best = int(rng.integers(n_items))
    best_val = float(values[best])
    if n_items == 1:
        return MinFindResult(best, best_val, 0, ())
    calls = 0
    rounds: list[tuple[float, int]] = []
    r = 0
    fail_calls = 0
    while calls < budget and fail_calls < fail_budget and r < _MAX_ROUNDS:
        cap = min(ceil(GROWTH**r), iteration_cap)
        k = int(rng.integers(0, cap + 1))
        k = min(k, budget - calls)
        threshold = best_val
        found = grover_search(values < threshold, k, rng_seed=rng)
        calls += k
        if found is not None:
            calls += 1  # classical verification of the returned candidate
            rounds.append((threshold, found))
            best = found
            best_val = float(values[best])
            fail_calls = 0
        else:
            fail_calls += k
        r += 1
    return MinFindResult(
        min_index=best,
        min_value=best_val,
        total_oracle_calls=calls,
        rounds=tuple(rounds),
    )


def make_gmf_finder(seeds: Iterator):
    """Minimum-finder callback for the greedy containment loop.

    Invocation k is seeded by the k-th item of ``seeds``; each adds its
    oracle calls to ``accounting.grover_oracle_calls``.
    """

    def finder(scores: Sequence[float], accounting) -> int:
        result = durr_hoyer_min(scores, rng_seed=next(seeds))
        accounting.grover_oracle_calls += result.total_oracle_calls
        return result.min_index

    return finder
