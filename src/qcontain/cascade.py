"""Independent Cascade simulation and influence estimation.

Two routes to the expected influence sigma:

* ``mc_influence`` -- Monte Carlo average over cascade trials.
* ``exact_influence`` -- the trusted oracle: a forward DP over (active set,
  frontier) states, whose cost grows with |V| rather than |E|. Exact
  influence is #P-hard, so it has a work budget, ``EXACT_WORK_BUDGET``.

Each edge is attempted at most once per run, so a run can pre-draw one uniform
coin per edge: edge k is live in trial t iff coins[t, k] < p(k). A trial's
final infected set is the set of nodes reachable from the seeds over its live
edges (Kempe, Kleinberg, Tardos 2003), so the order of rounds does not matter.

One propagation kernel, ``_propagate``, runs every such cascade. It packs 64
cascades per machine word and keeps rows of active bits only for the seeds
that are arc sources and the other arc heads, the only nodes whose bits can
matter; each round gathers the active bits of every arc's source, ANDs them
with the arc's live bits and ORs them into the arc's destination, until a
round adds nothing. It returns each cascade's infected count. It can leave
a removal's arcs out, so a removal is scored on the live bits of the whole
graph. Two callers feed it live bits:

* ``mc_influence`` -- packed ``coins < p`` for Monte Carlo trials; its counts
  equal per-trial simulation exactly. Coins are drawn in chunks of at most
  ``COIN_CHUNK_BYTES``; the generator fills its stream in C order, so the
  estimate is the same as from one draw. Given a seed, it streams the
  chunks; given a ``LiveDraw``, it scores a removal on live bits packed
  once for several calls. ``draw_live`` alone decides which one several
  calls share, by the draw's packed size: a draw is held only if its packed
  bits take no more memory than one chunk of its coins, so no draw holds
  more than that, whatever the trial count. It keeps a histogram of the
  counts, |V| + 1 bins, not one count per trial.
* ``live_edge_reachability`` -- all 2^|E| live-edge configurations as fixed
  bit patterns, E * 2^E / 8 bytes, for the per-configuration counts that the
  QAE A operator rotates its ancilla by; the bit table takes at most
  2E * 2^E / 8 bytes, and unpacking its non-seed rows to count takes at most
  E * 2^E bytes, whatever |V| and the seed set.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Iterable, Iterator

import numpy as np

from .graph import Graph, ProblemInstance, closed_removal

# Subset transitions exact_influence may expand: the sum of 2^|uncertain joiners| over states.
EXACT_WORK_BUDGET = 1 << 19
# Coin memory per chunk of a Monte Carlo draw; a chunk is a multiple of 64 trials, at least 64.
COIN_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class InfluenceEstimate:
    sigma: float
    std_error: float | None
    trials_or_calls: int


@dataclass(frozen=True)
class ExactInfluence:
    sigma: float
    node_probs: dict[int, float]


@dataclass(frozen=True)
class LiveDraw:
    """Packed live bits of ``trials`` Monte Carlo cascades over every arc of a graph.

    Each chunk is arc-major, like ``_propagate``'s ``live``; the chunks hold
    the cascades in draw order, and the padding cascades of the last word
    are dead on every arc.
    """

    trials: int
    chunks: tuple[np.ndarray, ...]


def _propagate(
    graph: Graph, seeds: frozenset[int], live: np.ndarray, removed: frozenset[int] = frozenset()
) -> np.ndarray:
    """Infected count (int64) of each of the 64 * words cascades over the live arcs ``live``.

    ``live`` is arc-major, one row per arc in graph order: bit t of
    live[k, w] is set iff arc k is live in cascade 64*w + t. Seeds are
    active in every cascade, and a node that is neither a seed nor an arc
    head never is, so the active bit table has rows only for the seeds that
    are arc sources and the other arc heads; the table depends on the graph
    and the seeds alone. Only arcs from a row into a non-seed head can
    change it, and the arcs in ``removed`` are left out, as if dead in
    every cascade. Arcs are sorted by destination, so one OR-reduce per
    round merges all arcs into a node. Round r activates the nodes r live
    hops from the seeds.
    """
    edges = graph.edges
    heads = {e.dst for e in edges} - seeds
    nodes = [*seeds.intersection(e.src for e in edges), *heads]
    row = {v: r for r, v in enumerate(nodes)}
    lit = len(nodes) - len(heads)
    active = np.zeros((len(nodes), live.shape[1]), dtype=np.uint64)
    active[:lit] = ~np.uint64(0)
    arcs = sorted(
        (k for k, e in enumerate(edges) if k not in removed and e.src in row and e.dst in heads),
        key=lambda k: edges[k].dst,
    )
    if arcs:
        dst = [row[edges[k].dst] for k in arcs]
        starts = [i for i in range(len(arcs)) if i == 0 or dst[i] != dst[i - 1]]
        targets = np.array([dst[i] for i in starts])
        src = np.array([row[edges[k].src] for k in arcs])
        starts = np.array(starts)
        live = live[arcs]
        reached = active[targets]
        while True:
            grown = np.bitwise_or.reduceat(active[src] & live, starts, axis=0) | reached
            if (grown == reached).all():
                break
            active[targets] = reached = grown
    infected = np.unpackbits(active[lit:].view(np.uint8), axis=1, bitorder="little")
    return len(seeds) + infected.sum(axis=0, dtype=np.int64)


def _pack_live(graph: Graph, coins: np.ndarray) -> np.ndarray:
    """Arc-major packed ``coins < p`` of a (trials x edges) coin matrix, for ``_propagate``.

    The padding trials of the last word are dead on every arc.
    """
    trials = coins.shape[0]
    p = np.array([e.p for e in graph.edges])
    live = np.zeros((len(graph.edges), -(-trials // 64) * 64), dtype=bool)
    live[:, :trials] = (coins < p).T
    return np.packbits(live, axis=1, bitorder="little").view(np.uint64)


def _chunk_rows(n_edges: int) -> int:
    return max(64, COIN_CHUNK_BYTES // (8 * max(n_edges, 1)) // 64 * 64)


def _live_chunks(graph: Graph, trials: int, rng_seed) -> Iterator[np.ndarray]:
    """Packed live bits of ``trials`` cascades from ``rng_seed``'s coins, chunk by chunk."""
    rng = np.random.default_rng(rng_seed)
    rows = _chunk_rows(len(graph.edges))
    for start in range(0, trials, rows):
        yield _pack_live(graph, rng.random((min(rows, trials - start), len(graph.edges))))


def draw_live(graph: Graph, trials: int, rng_seed):
    """One Monte Carlo draw over every arc of ``graph``, for many ``mc_influence`` calls.

    The draw is packed once and held in a ``LiveDraw`` if its packed bits,
    |E| * ceil(trials / 64) words, take no more memory than one chunk of
    its coins (``COIN_CHUNK_BYTES``, or 64 trials' coins if that is more).
    A larger draw is returned as ``rng_seed``, so each call streams the same
    coins again, one chunk at a time; the counts are the same either way.
    ``rng_seed`` is an int or a ``SeedSequence``, which replays its coins;
    a ``Generator`` or bit generator would go on drawing new ones in each
    call, so it is a TypeError whatever the draw's size.
    """
    if isinstance(rng_seed, (np.random.Generator, np.random.BitGenerator)):
        raise TypeError("draw_live needs an int or SeedSequence seed, not a generator")
    if -(-trials // 64) > _chunk_rows(len(graph.edges)):
        return rng_seed
    return LiveDraw(trials, tuple(_live_chunks(graph, trials, rng_seed)))


def mc_influence(
    instance: ProblemInstance, trials: int, rng_seed, removal: Iterable[int] = ()
) -> InfluenceEstimate:
    """Monte Carlo estimate of sigma for ``instance`` without the arcs of ``removal``.

    ``rng_seed`` seeds a fresh draw, or is a ``LiveDraw`` of ``trials``
    cascades over ``instance.graph`` that several removals share. The
    removal's arcs and their undirected partners are left out of the
    kernel, so each count is the one ``instance.without_edges(removal)``
    gives on the same coins without the removed columns.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    g = instance.graph
    if isinstance(rng_seed, LiveDraw):
        if rng_seed.trials != trials:
            raise ValueError(f"draw holds {rng_seed.trials} trials, not {trials}")
        chunks: Iterable[np.ndarray] = rng_seed.chunks
    else:
        chunks = _live_chunks(g, trials, rng_seed)
    removed = closed_removal(g, removal)
    hist = np.zeros(g.node_count + 1, dtype=np.int64)  # trials per infected count
    done = 0
    for live in chunks:
        counts = _propagate(g, instance.seeds, live, removed)[: trials - done]
        done += len(counts)
        hist += np.bincount(counts, minlength=len(hist))
    sizes = np.arange(len(hist))
    sigma = int(hist @ sizes) / trials
    squares = hist @ (sizes - sigma) ** 2
    std_error = float(np.sqrt(squares / (trials - 1)) / np.sqrt(trials)) if trials > 1 else 0.0
    return InfluenceEstimate(sigma=sigma, std_error=std_error, trials_or_calls=trials)


def live_edge_reachability(graph: Graph, seeds: frozenset[int]) -> np.ndarray:
    """Infected count (int64, length 2^|E|) of each live-edge configuration.

    Config x has edge k live iff bit k of x is set. Config x is cascade x of
    the propagation kernel, bit x % 64 of word x // 64, so arc k < 6 has the
    same 64-bit pattern in every word, and arc k >= 6 is live in all or none
    of word w's configs, by bit k - 6 of w. Below 6 arcs the one word holds
    repeats of the 2^|E| configs, which are cut off.
    """
    n_edges = len(graph.edges)
    configs = 1 << n_edges
    word = np.arange(-(-configs // 64), dtype=np.uint64)
    live = np.empty((n_edges, len(word)), dtype=np.uint64)
    # (2^64 - 1) // (2^(2^k) + 1) sets the low half of every 2^(k+1)-bit block;
    # shifted up by 2^k, bit t is bit k of t: 0xAAAA..., 0xCCCC..., 0xF0F0...
    low = [(2**64 - 1) // (2 ** (1 << k) + 1) << (1 << k) for k in range(min(n_edges, 6))]
    live[:6] = np.array(low, dtype=np.uint64)[:, None]
    high = np.arange(6, n_edges, dtype=np.uint64)[:, None]
    live[6:] = np.uint64(0) - ((word >> (high - 6)) & 1)
    return _propagate(graph, seeds, live)[:configs]


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
