"""Independent Cascade simulation and influence estimation.

Two routes to the expected influence sigma:

* ``mc_influence`` -- Monte Carlo average over cascade trials.
* ``exact_influence`` -- exhaustive live-edge enumeration, the trusted oracle.

Each edge is attempted at most once per run, so a run can pre-draw one uniform
coin per edge: edge k is live in trial t iff coins[t, k] < p(k). A trial's
final infected set is the set of nodes reachable from the seeds over its live
edges (Kempe, Kleinberg, Tardos 2003), so the order of rounds does not matter.
The batch kernel packs 64 trials per machine word; each round gathers the
frontier bits of every arc's source, ANDs them with the arc's live bits and
OR-reduces them by destination. Its counts equal per-trial simulation
exactly. ``mc_influence`` draws the coins in chunks of at most
``COIN_CHUNK_BYTES``; the generator fills its stream in C order, so the
estimate is the same as from one draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, ProblemInstance

EXACT_ORACLE_MAX_EDGES = 24
# Coin memory per chunk in mc_influence; a chunk is a multiple of 64 trials, at least 64.
COIN_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class CascadeTrial:
    infected: frozenset[int]
    steps: int


@dataclass(frozen=True)
class InfluenceEstimate:
    sigma: float
    sigma_normalized: float
    std_error: float | None
    trials_or_calls: int
    method: str


@dataclass(frozen=True)
class ExactInfluence:
    sigma: float
    node_probs: dict[int, float]


def _cascade_from_coins(graph: Graph, seeds: frozenset[int], coins: np.ndarray) -> CascadeTrial:
    """Run one IC realization; coins[e] < p(e) decides edge e if attempted."""
    active = set(seeds)
    frontier = set(seeds)
    steps = 0
    while frontier:
        new: set[int] = set()
        for v in frontier:
            for k in graph.out_edges(v):
                e = graph.edges[k]
                if e.dst not in active and coins[k] < e.p:
                    new.add(e.dst)
        if not new:
            break
        active |= new
        frontier = new
        steps += 1
    return CascadeTrial(frozenset(active), steps)


def simulate_ic(instance: ProblemInstance, rng: np.random.Generator) -> CascadeTrial:
    coins = rng.random(len(instance.graph.edges))
    return _cascade_from_coins(instance.graph, instance.seeds, coins)


def _batch_infected_counts(graph: Graph, seeds: frozenset[int], coins: np.ndarray) -> np.ndarray:
    """Final infected-set sizes for each row of a (trials x edges) coin matrix.

    Bit t of word w in a node's row is trial 64*w + t. Arcs are sorted by
    destination, so one OR-reduce per round merges all arcs into a node.
    """
    trials = coins.shape[0]
    if not graph.edges:
        return np.full(trials, len(seeds), dtype=np.int64)
    dst = np.array([e.dst for e in graph.edges])
    order = np.argsort(dst, kind="stable")
    src = np.array([e.src for e in graph.edges])[order]
    dst = dst[order]
    p = np.array([e.p for e in graph.edges])
    words = -(-trials // 64)
    # arc-major live bits; the padding trials are dead on every arc
    live = np.zeros((len(order), 64 * words), dtype=bool)
    live[:, :trials] = (coins < p).T[order]
    live = np.packbits(live, axis=1, bitorder="little").view(np.uint64)
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    heads = dst[starts]
    active = np.zeros((graph.node_count, words), dtype=np.uint64)
    active[list(seeds)] = ~np.uint64(0)
    frontier = active.copy()
    while True:
        new = np.bitwise_or.reduceat(frontier[src] & live, starts, axis=0)
        new &= ~active[heads]
        if not new.any():
            break
        active[heads] |= new
        frontier = np.zeros_like(active)
        frontier[heads] = new
    infected = np.unpackbits(active.view(np.uint8), axis=1, count=trials, bitorder="little")
    return infected.sum(axis=0, dtype=np.int64)


def _chunk_rows(n_edges: int) -> int:
    return max(64, COIN_CHUNK_BYTES // (8 * max(n_edges, 1)) // 64 * 64)


def mc_influence(instance: ProblemInstance, trials: int, rng_seed: int) -> InfluenceEstimate:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    g = instance.graph
    rng = np.random.default_rng(rng_seed)
    rows = _chunk_rows(len(g.edges))
    counts = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, rows):
        coins = rng.random((min(rows, trials - start), len(g.edges)))
        counts[start : start + len(coins)] = _batch_infected_counts(g, instance.seeds, coins)
    sigma = float(counts.mean())
    std_error = float(counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return InfluenceEstimate(
        sigma=sigma,
        sigma_normalized=sigma / g.node_count,
        std_error=std_error,
        trials_or_calls=trials,
        method="monte_carlo",
    )


def live_edge_reachability(graph: Graph, seeds: frozenset[int]) -> np.ndarray:
    """Boolean (2^|E| x |V|) matrix: node reachable from seeds per live-edge config.

    Config x has edge k live iff bit k of x is set.
    """
    n_edges = len(graph.edges)
    n = graph.node_count
    configs = 1 << n_edges
    if n_edges:
        cfg = np.arange(configs, dtype=np.int64)
        live = ((cfg[:, None] >> np.arange(n_edges)[None, :]) & 1).astype(bool)
    else:
        live = np.zeros((1, 0), bool)
    active = np.zeros((configs, n), dtype=bool)
    active[:, list(seeds)] = True
    pairs = [(e.src, e.dst) for e in graph.edges]
    while True:
        new = active.copy()
        for k, (src, dst) in enumerate(pairs):
            new[:, dst] |= live[:, k] & active[:, src]
        if (new == active).all():
            return active
        active = new


def live_edge_weights(graph: Graph) -> np.ndarray:
    """Probability of each of the 2^|E| live-edge configurations."""
    n_edges = len(graph.edges)
    weights = np.ones(1 << n_edges)
    for k, e in enumerate(graph.edges):
        bit = ((np.arange(1 << n_edges) >> k) & 1).astype(bool)
        weights *= np.where(bit, e.p, 1.0 - e.p)
    return weights


def exact_influence(
    instance: ProblemInstance, max_edges: int = EXACT_ORACLE_MAX_EDGES
) -> ExactInfluence:
    g = instance.graph
    if len(g.edges) > max_edges:
        raise ValueError(
            f"instance too large for exact oracle: {len(g.edges)} edges > cap {max_edges}"
        )
    reach = live_edge_reachability(g, instance.seeds)
    weights = live_edge_weights(g)
    node_probs = weights @ reach
    return ExactInfluence(
        sigma=float(node_probs.sum()),
        node_probs={v: float(node_probs[v]) for v in range(g.node_count)},
    )
