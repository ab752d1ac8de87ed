"""Independent Cascade simulation and influence estimation.

Two routes to the expected influence sigma:

* ``mc_influence`` -- Monte Carlo average over cascade trials.
* ``exact_influence`` -- the trusted oracle: a forward DP over (active set,
  frontier) states, whose cost grows with |V| rather than |E|. Exact
  influence is #P-hard, so it has a work budget, ``EXACT_WORK_BUDGET``.

``live_edge_reachability`` keeps the 2^|E| per-configuration table, which the
QAE A operator needs as its definition.

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
from math import fsum

import numpy as np

from .graph import Graph, ProblemInstance

# Subset transitions exact_influence may expand: the sum of 2^|uncertain joiners| over states.
EXACT_WORK_BUDGET = 1 << 19
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


def exact_influence(instance: ProblemInstance) -> ExactInfluence:
    """Exact expected influence by a forward DP over (active set, frontier) states.

    Both sets are int bit masks. A frontier node tries each out-arc once, so
    from (A, F) each node u outside A joins the next frontier independently,
    with probability 1 - prod(1 - p_vu) over the arcs (v, u) with v in F.
    Every transition adds a node, so states are expanded in order of
    increasing |A| and each is complete when reached; one with no new nodes
    is terminal. A node joins a frontier exactly once on every run that
    activates it, so its probability is the summed mass of the states whose
    frontier holds it.
    """
    g = instance.graph
    arcs: dict[int, list[tuple[int, float]]] = {}
    for e in g.edges:
        arcs.setdefault(e.src, []).append((e.dst, 1.0 - e.p))
    node_probs = [0.0] * g.node_count
    seeds = sum(1 << s for s in instance.seeds)
    pending = {len(instance.seeds): {(seeds, seeds): 1.0}}
    work = 0
    while pending:
        for (active, frontier), mass in pending.pop(min(pending)).items():
            miss: dict[int, float] = {}  # u -> P(no frontier arc into u is live)
            rest = frontier
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                node_probs[v] += mass
                for u, q in arcs.get(v, ()):
                    if not active >> u & 1:
                        miss[u] = miss.get(u, 1.0) * q
            sure = sum(1 << u for u, q in miss.items() if q == 0.0)
            maybe = [(1 << u, 1.0 - q, q) for u, q in miss.items() if 0.0 < q < 1.0]
            work += 1 << len(maybe)
            if work > EXACT_WORK_BUDGET:
                raise ValueError(
                    "instance too large for exact oracle: more than "
                    f"{EXACT_WORK_BUDGET} subset transitions"
                )
            outcomes = [(sure, mass)]
            for bit, join, q in maybe:
                outcomes = [o for new, w in outcomes for o in ((new | bit, w * join), (new, w * q))]
            for new, w in outcomes:
                if new:
                    grown = active | new
                    level = pending.setdefault(grown.bit_count(), {})
                    level[grown, new] = level.get((grown, new), 0.0) + w
    return ExactInfluence(
        sigma=fsum(node_probs),
        node_probs=dict(enumerate(node_probs)),
    )
