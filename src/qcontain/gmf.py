"""Grover search and Durr-Hoyer minimum finding with oracle-call accounting.

The marked set is a boolean mask over the items; Durr-Hoyer marks the values
below its current threshold. Index spaces are padded to the next power of
two; padded indices are never marked, so a measurement landing there counts
as an ordinary miss and both backends share the same success probability
sin^2((2k+1) * asin(sqrt(M/N))).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import asin, ceil, sin, sqrt
from typing import Sequence

import numpy as np

from . import qsim
from .containment import call_seeds

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
    n = 2  # at least one qubit
    while n < size:
        n <<= 1
    return n


def _statevector_distribution(marked: np.ndarray, iterations: int) -> np.ndarray:
    n_qubits = len(marked).bit_length() - 1
    state = qsim.init_state(n_qubits)
    for q in range(n_qubits):
        state = qsim.apply_h(state, q)
    for _ in range(iterations):
        state = qsim.phase_flip_if(state, marked)
        state = qsim.diffusion(state)
    return qsim.register_distribution(state)


def grover_search(
    marked: np.ndarray,
    iterations: int,
    rng_seed: int | np.random.Generator = 0,
    backend: str = "analytic",
) -> int | None:
    """One Grover run over the items of the boolean mask ``marked``; returns
    the sampled index only if it is marked."""
    if len(marked) < 1:
        raise ValueError("marked must cover at least one item")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    rng = np.random.default_rng(rng_seed)
    mask = np.zeros(_padded_size(len(marked)), dtype=bool)
    mask[: len(marked)] = marked

    if backend == "analytic":
        marked_items = np.flatnonzero(mask)
        theta = asin(sqrt(len(marked_items) / len(mask)))
        p_success = sin((2 * iterations + 1) * theta) ** 2
        found = None
        if len(marked_items) and rng.random() < p_success:
            found = int(marked_items[rng.integers(len(marked_items))])
    elif backend == "statevector":
        dist = _statevector_distribution(mask, iterations)
        outcome = int(rng.choice(len(mask), p=dist / dist.sum()))
        found = outcome if mask[outcome] else None
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return found


def durr_hoyer_min(
    values: Sequence[float] | np.ndarray,
    rng_seed: int | np.random.Generator = 0,
    backend: str = "analytic",
) -> MinFindResult:
    """Quantum minimum finding via repeated Grover searches below a threshold.

    Each round marks the items whose value is below the current best. The
    iteration count per round is drawn uniformly from [0, cap] where the
    cap follows the exponential schedule ceil(GROWTH^r) over failed rounds r
    (for the unknown marked count), clipped at ~0.9*sqrt(N). Accounting
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
        found = grover_search(values < threshold, k, rng_seed=rng, backend=backend)
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


def make_gmf_finder(rng_seed: int):
    """Minimum-finder callback for the greedy containment loop.

    Successive invocations use independent substreams of ``rng_seed`` and
    add their oracle calls to ``accounting.grover_oracle_calls``.
    """
    seeds = call_seeds(rng_seed)

    def finder(scores: Sequence[float], accounting) -> int:
        result = durr_hoyer_min(scores, rng_seed=next(seeds))
        accounting.grover_oracle_calls += result.total_oracle_calls
        return result.min_index

    return finder
