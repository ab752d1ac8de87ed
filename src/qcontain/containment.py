"""Objective evaluation and the greedy edge-removal loop.

The loop is parameterized over an influence estimator and a minimum finder:

* estimator(instance, removal, accounting) -> InfluenceEstimate for the
  graph with those edges removed;
* finder(scores, accounting) -> index of the minimizing candidate.

Removal indices always refer to the original instance graph; the current
subgraph is recomputed from the cumulative removal set each iteration.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import qae
from .cascade import InfluenceEstimate, exact_influence, mc_influence
from .graph import Graph, ProblemInstance, closed_removal, remove_edges

EXACT_TOLERANCE = 1e-9

Estimator = Callable[[ProblemInstance, tuple[int, ...], "RunAccounting"], InfluenceEstimate]
Finder = Callable[[Sequence[float], "RunAccounting"], int]


@dataclass
class RunAccounting:
    mc_trials: int = 0
    a_applications: int = 0
    q_applications: int = 0
    grover_oracle_calls: int = 0
    linear_steps: int = 0


@dataclass(frozen=True)
class ObjectiveValue:
    total: float
    influence_term: float
    impact_term: float


@dataclass(frozen=True)
class ContainmentPlan:
    removed: tuple[int, ...]
    trace: tuple[tuple[int, int, ObjectiveValue], ...]
    accounting: RunAccounting


def operational_impact(edges: Iterable[int], graph: Graph) -> float:
    """Sum of importances, counting each undirected pair once."""
    chosen = closed_removal(graph, edges)
    total = 0.0
    for k in sorted(chosen):
        if graph.represents_pair(k):
            total += graph.edges[k].i
    return total


def objective(
    instance: ProblemInstance, removal: Iterable[int], sigma: float
) -> ObjectiveValue:
    influence_term = instance.lam * sigma
    impact_term = (1.0 - instance.lam) * operational_impact(removal, instance.graph)
    return ObjectiveValue(
        total=influence_term + impact_term,
        influence_term=influence_term,
        impact_term=impact_term,
    )


def _reachable_nodes(graph: Graph, seeds: frozenset[int]) -> set[int]:
    reached = set(seeds)
    size = 0
    while size < len(reached):
        size = len(reached)
        reached.update([e.dst for e in graph.edges if e.src in reached])
    return reached


def candidate_edges(
    instance: ProblemInstance,
    removed: tuple[int, ...] = (),
    strategy: str = "all",
    top_p_cap: int | None = None,
) -> tuple[int, ...]:
    """Edge indices (into the original graph) eligible for removal.

    For undirected graphs one arc per logical pair is returned; removing it
    drops both arcs.
    """
    g = instance.graph
    gone = closed_removal(g, removed)
    base = [k for k in range(len(g.edges)) if k not in gone and g.represents_pair(k)]
    if strategy == "all":
        return tuple(base)
    if strategy == "frontier":
        current = remove_edges(g, removed)
        reachable = _reachable_nodes(current, instance.seeds)
        return tuple(k for k in base if g.edges[k].src in reachable)
    if strategy == "top_p":
        cap = top_p_cap if top_p_cap is not None else 8
        if cap < 1:
            raise ValueError("top_p_cap must be >= 1")
        ranked = sorted(base, key=lambda k: (-g.edges[k].p, k))
        return tuple(sorted(ranked[:cap]))
    raise ValueError(f"unknown candidate strategy {strategy!r}")


def linear_finder(scores: Sequence[float], accounting: RunAccounting) -> int:
    """Exhaustive scan; ties break to the lowest index."""
    accounting.linear_steps += len(scores)
    best = 0
    for k in range(1, len(scores)):
        if scores[k] < scores[best]:
            best = k
    return best


def greedy_contain(
    instance: ProblemInstance,
    estimator: Estimator,
    finder: Finder = linear_finder,
    strategy: str = "all",
    k_max: int = 0,
    top_p_cap: int | None = None,
) -> ContainmentPlan:
    """Greedy removal of up to k_max edges, stopping when no candidate
    strictly improves the combined objective."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    acc = RunAccounting()
    removed: list[int] = []
    trace: list[tuple[int, int, ObjectiveValue]] = []
    if k_max == 0:
        return ContainmentPlan((), (), acc)

    base_est = estimator(instance, (), acc)
    current = objective(instance, (), base_est.sigma)

    for k in range(1, k_max + 1):
        cands = candidate_edges(instance, tuple(removed), strategy, top_p_cap)
        if not cands:
            break
        scored: list[ObjectiveValue] = []
        errors: list[float | None] = []
        for e in cands:
            trial_removal = tuple(removed) + (e,)
            est = estimator(instance, trial_removal, acc)
            scored.append(objective(instance, trial_removal, est.sigma))
            errors.append(est.std_error)
        idx = finder([v.total for v in scored], acc)
        chosen = scored[idx]
        tau = EXACT_TOLERANCE
        if errors[idx]:
            tau = max(tau, 2.0 * errors[idx])
        if chosen.total < current.total - tau:
            removed.append(cands[idx])
            trace.append((k, cands[idx], chosen))
            current = chosen
        else:
            break
    return ContainmentPlan(tuple(removed), tuple(trace), acc)


def make_exact_estimator() -> Estimator:
    def estimator(instance, removal, accounting):
        sub = instance.without_edges(removal)
        return InfluenceEstimate(
            sigma=exact_influence(sub).sigma,
            std_error=None,
            # work units: the live-edge configurations whose probability sigma sums
            trials_or_calls=1 << len(sub.graph.edges),
        )

    return estimator


def call_seeds(rng_seed: int) -> Iterator[np.random.SeedSequence]:
    """Seeds of successive calls: independent substreams of ``rng_seed``."""
    return (np.random.SeedSequence(entropy=rng_seed, spawn_key=(k,)) for k in count())


def make_mc_estimator(trials: int, rng_seed: int) -> Estimator:
    seeds = call_seeds(rng_seed)

    def estimator(instance, removal, accounting):
        seq = next(seeds)
        sub = instance.without_edges(removal)
        est = mc_influence(sub, trials, seq)
        accounting.mc_trials += trials
        return est

    return estimator


def make_qae_estimator(epsilon: float, rng_seed: int, mode: str = "statevector") -> Estimator:
    seeds = call_seeds(rng_seed)

    def estimator(instance, removal, accounting):
        est = qae.qae_influence(
            instance, removal, epsilon=epsilon, rng_seed=next(seeds), mode=mode
        )
        accounting.q_applications += est.trials_or_calls
        # each repetition applies A 2q + 1 times for its q applications of Q
        accounting.a_applications += 2 * est.trials_or_calls + qae.QPE_REPETITIONS
        return est

    return estimator
