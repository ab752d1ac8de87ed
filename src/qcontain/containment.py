"""Objective evaluation and the greedy edge-removal loop.

The loop is parameterized over an influence estimator and a minimum finder:

* estimator(instance, removals, accounting) -> one InfluenceEstimate per
  removal, for the graph with those edges removed; a greedy iteration asks
  for all of its candidates at once;
* finder(scores, accounting) -> index of the minimizing candidate.

Removal indices always refer to the original instance graph. Each removal is
estimated once: the intact graph ``()`` is scored in the first greedy
iteration's call, ahead of its candidates, and alone only when no iteration
runs. The QAE estimator scores each removal with one ``qae_estimate`` on a
seed of its own, adds each estimate's own Q and A applications and converts
the estimates to influences; in statevector mode every removal's A operator
is cut from the instance's one count table. The exact estimator scores a
call's removals with one forward DP and one reverse pass with the arcs they
all remove dead, so a plan of k iterations runs k forward DPs. Every Monte
Carlo estimate comes from the Monte Carlo estimator, which takes one seed
per call and scores every removal on that call's live-edge draw (Kimura,
Saito and Motoda 2009); ``cascade.draw_live`` streams the coins once and
gives each removal four exact integers, (trials, |V|, sum c, sum c^2) over
its infected counts c, read by its ``mc_influence`` call. Every estimator,
and the candidate walk, reads the original arcs with a removal's arcs and
partners dead; none builds a subgraph.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import qae
from .cascade import InfluenceEstimate, draw_live, exact_gradient, exact_influence, mc_influence
from .graph import Graph, ProblemInstance, closed_removal

EXACT_TOLERANCE = 1e-9
# Candidates the "top_p" strategy keeps: the arcs of highest infection probability.
TOP_P_CAP = 8

Estimator = Callable[
    [ProblemInstance, Sequence[tuple[int, ...]], "RunAccounting"], list[InfluenceEstimate]
]
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


def _reachable_nodes(graph: Graph, seeds: frozenset[int], gone: frozenset[int]) -> set[int]:
    """Nodes reachable from ``seeds`` over the arcs of ``graph`` not in ``gone``."""
    arcs = [e for k, e in enumerate(graph.edges) if k not in gone]
    reached = set(seeds)
    size = 0
    while size < len(reached):
        size = len(reached)
        reached.update([e.dst for e in arcs if e.src in reached])
    return reached


def candidate_edges(
    instance: ProblemInstance, removed: tuple[int, ...], strategy: str
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
        reachable = _reachable_nodes(g, instance.seeds, gone)
        return tuple(k for k in base if g.edges[k].src in reachable)
    if strategy == "top_p":
        ranked = sorted(base, key=lambda k: (-g.edges[k].p, k))
        return tuple(sorted(ranked[:TOP_P_CAP]))
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
    instance: ProblemInstance, estimator: Estimator, finder: Finder, k_max: int, strategy: str
) -> ContainmentPlan:
    """Greedy removal of up to k_max edges, stopping when no candidate
    strictly improves the combined objective. The intact graph is estimated
    in the first iteration's call, ahead of its candidates, or alone when no
    iteration runs, at k_max 0 or with no candidates."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    acc = RunAccounting()
    removed: list[int] = []
    trace: list[tuple[int, int, ObjectiveValue]] = []
    current = None  # the objective of the plan so far, from the first call on

    for k in range(1, k_max + 1):
        cands = candidate_edges(instance, tuple(removed), strategy)
        if not cands:
            break
        removals = [(*removed, e) for e in cands]
        if current is None:
            base_est, *ests = estimator(instance, [(), *removals], acc)
            current = objective(instance, (), base_est.sigma)
        else:
            ests = estimator(instance, removals, acc)
        scored = [objective(instance, r, est.sigma) for r, est in zip(removals, ests)]
        idx = finder([v.total for v in scored], acc)
        chosen = scored[idx]
        tau = EXACT_TOLERANCE
        if ests[idx].std_error:
            tau = max(tau, 2.0 * ests[idx].std_error)
        if chosen.total < current.total - tau:
            removed.append(cands[idx])
            trace.append((k, cands[idx], chosen))
            current = chosen
        else:
            break
    if current is None:
        estimator(instance, [()], acc)
    return ContainmentPlan(tuple(removed), tuple(trace), acc)


def make_exact_estimator() -> Estimator:
    """Exact sigma per removal, from one forward DP and at most one reverse pass per call.

    The base is the arcs all of a call's removals remove. If every removal
    removes just the base, as a lone removal such as the intact graph
    ``[()]`` does, the forward DP with the base dead scores them all.
    Otherwise its gradient, a forward DP and a reverse pass indexed by
    original arc, scores every removal whose other arcs are one logical edge
    as sigma_base - sum p_a * grad_a. The two arcs of an undirected pair need
    no cross term, since no cascade uses both. A removal of more than one
    logical edge beyond the base, or of an arc with p = 1, where the
    gradient is not exact, runs its own DP. Nothing is kept between calls.
    """

    def estimator(instance, removals, accounting):
        if not removals:
            return []
        g = instance.graph
        closed = [closed_removal(g, r) for r in removals]
        base = frozenset.intersection(*closed)
        if any(c != base for c in closed):
            exact, grad = exact_gradient(instance, base)
        else:
            exact, grad = exact_influence(instance, base), []
        out = []
        for removal, extra in zip(removals, (c - base for c in closed)):
            if extra and (
                extra != closed_removal(g, [min(extra)]) or any(g.edges[k].p == 1.0 for k in extra)
            ):
                alone = exact_influence(instance, removal)
                sigma, work = alone.sigma, alone.work
            else:
                sigma = exact.sigma - sum(g.edges[k].p * grad[k] for k in sorted(extra))
                work = exact.work
            # work units: the DP's subset transitions
            out.append(InfluenceEstimate(sigma=sigma, std_error=None, trials_or_calls=work))
        return out

    return estimator


def call_seeds(rng_seed: int) -> Iterator[np.random.SeedSequence]:
    """Seeds of successive calls: independent substreams of ``rng_seed``."""
    return (np.random.SeedSequence(entropy=rng_seed, spawn_key=(k,)) for k in count())


def make_mc_estimator(trials: int, seeds: Iterator) -> Estimator:
    def estimator(instance, removals, accounting):
        accounting.mc_trials += trials * len(removals)
        rows = draw_live(instance, trials, next(seeds), removals)
        return [mc_influence(instance, trials, row) for row in rows]

    return estimator


def make_qae_estimator(epsilon: float, seeds: Iterator, mode: str) -> Estimator:
    def estimator(instance, removals, accounting):
        m = qae.evaluation_qubits_for(epsilon)
        amps = [qae.qae_estimate(instance, r, m=m, rng_seed=next(seeds), mode=mode) for r in removals]
        accounting.q_applications += sum(amp.q_applications for amp in amps)
        accounting.a_applications += sum(amp.a_applications for amp in amps)
        return [qae.qae_influence(instance, amp, epsilon) for amp in amps]

    return estimator
