"""Independent Cascade simulation and influence estimation.

Two routes to the expected influence sigma:

* ``mc_influence`` -- the Monte Carlo average over the cascade trials of
  the row ``draw_live`` gave a removal on a call's one draw.
* ``exact_influence`` -- the trusted oracle: a forward DP over (active set,
  frontier) states, whose cost grows with |V| rather than |E|. Exact
  influence is #P-hard, so it has a work budget, ``EXACT_WORK_BUDGET``.
  ``exact_gradient`` runs the same DP with a log of its states and walks
  the log back once for d sigma / d p of every arc, from which sigma with
  any one arc dead follows exactly. Its floats are added left to right, so
  the bits do not depend on the Python version.

Each edge is attempted at most once per run, so a run can pre-draw one uniform
coin per edge: edge k is live in trial t iff coins[t, k] < p(k). A trial's
final infected set is the set of nodes reachable from the seeds over its live
edges (Kempe, Kleinberg, Tardos 2003), so the order of rounds does not matter.

One propagation kernel, ``_Kernel``, runs every such cascade. It packs 64
cascades per machine word and keeps rows of active bits only for the seeds
that are arc sources and the other arc heads, the only nodes whose bits can
matter. Each non-seed arc head gets a row of in-arc slots, padded to the
width of its class with repeats of its first slot, and each round gathers
the active bits of every slot's source, ANDs them with the slot arc's live
bits and ORs each head's slots together, until a round adds nothing. It
returns each cascade's infected count. An arc is left out of a cascade in
one way: its live bit is zero, so a removal is scored on the live bits of
the whole graph with its arcs dead. Two callers feed it live bits:

* ``draw_live`` -- Monte Carlo trials, each chunk's ``coins < p`` kept as
  one trial-major table of live bytes; its counts equal per-trial
  simulation exactly. Coins are drawn once per draw, in chunks of at most
  ``COIN_CHUNK_BYTES``; the generator fills its stream in C order, so the
  estimate is the same as from one draw. Each chunk scores every removal:
  one propagation of the packed table with the arcs they all remove dead,
  then tiles of only the cascades each removal can change (Kimura, Saito
  and Motoda 2009), gathered as rows of the same table and packed. Each
  removal keeps four exact integers, (trials, |V|, sum c, sum c^2) over its
  infected counts c, and ``mc_influence`` reads sigma and its standard error.
* ``live_edge_reachability`` -- all 2^|E| live-edge configurations as fixed
  bit patterns, E * 2^E / 8 bytes, for the per-configuration counts that the
  QAE A operator rotates its ancilla by; the bit table takes at most
  2E * 2^E / 8 bytes, the live bits of the at most 2E in-arc slots as much
  again, and unpacking its non-seed rows to count takes at most
  E * 2^E bytes, whatever |V| and the seed set.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt
from typing import Iterable

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
    work: int  # subset transitions the DP expanded


class _Kernel:
    """The propagation kernel for one graph and seed set, set up once for many live tables.

    ``live`` is arc-major, one row per arc in graph order: bit t of
    live[k, w] is set iff arc k is live in cascade 64*w + t; an arc whose
    bit is zero is dead in that cascade, as if removed. Seeds are active in
    every cascade, and a node that is neither a seed nor an arc head never
    is, so the active bit table has rows only for the seeds that are arc
    sources and the other arc heads: ``row`` maps each to its row, and the
    ``lit`` seed rows come first. Only arcs from a row into a non-seed head
    can change the table: ``source`` maps each of them to its source row.
    Each such head, a target, gets in-arc slots, padded to the width of its
    class. Targets are taken by falling in-degree, and one joins the widest
    open class while its in-degree is at least half that width, so there
    are at most twice as many slots as arcs; near-uniform in-degrees make
    one class. A class's targets have consecutive rows, and ``classes``
    holds (first target row, source rows, arcs) for each, the last two
    (width x targets) slot tables. A dead slot repeats its target's first
    slot, which ORs in nothing new. A round gathers every slot's source
    bits, ANDs them with its arc's live bits and ORs each target's slots,
    one word at a time, and writes each class's targets before the next
    class reads them; so by round r the nodes r live hops from the seeds
    are active.
    """

    def __init__(self, graph: Graph, seeds: frozenset[int]):
        edges = graph.edges
        heads = {e.dst for e in edges} - seeds
        lit = seeds.intersection(e.src for e in edges)
        into: dict[int, list[int]] = {}  # target -> its in-arcs from a row
        for k, e in enumerate(edges):
            if e.dst in heads and (e.src in lit or e.src in heads):
                into.setdefault(e.dst, []).append(k)
        widths: list[list[int]] = []  # targets by falling in-degree, one list per class
        for v in sorted(into, key=lambda v: -len(into[v])):
            if not widths or 2 * len(into[v]) < len(into[widths[-1][0]]):
                widths.append([])
            widths[-1].append(v)
        targets = [v for members in widths for v in members]
        nodes = [*lit, *targets, *(heads - into.keys())]
        self.row = {v: r for r, v in enumerate(nodes)}
        self.lit = len(lit)
        self.n_seeds = len(seeds)
        self.source = {k: self.row[edges[k].src] for v in targets for k in into[v]}
        self.classes = []  # (first target row, source rows, arcs), both (width x targets)
        for members in widths:
            width = len(into[members[0]])
            arcs = [into[v] + into[v][:1] * (width - len(into[v])) for v in members]
            src = [[self.source[k] for k in ks] for ks in arcs]
            slots = np.array([src, arcs], dtype=np.intp).transpose(0, 2, 1)
            self.classes.append((self.row[members[0]], *slots))

    def active(self, live: np.ndarray) -> np.ndarray:
        """The active bit table of the cascades of ``live``, one row per node of ``row``."""
        active = np.zeros((len(self.row), live.shape[1]), dtype=np.uint64)
        active[: self.lit] = ~np.uint64(0)
        gates = [(active[r : r + src.shape[1]], src, live[arcs]) for r, src, arcs in self.classes]
        grew = True
        while grew:
            grew = False
            for reached, src, gate in gates:
                slots = active[src]
                slots &= gate
                grown = np.bitwise_or.reduce(slots, axis=0)
                if not (grown == reached).all():
                    reached[...] = grown
                    grew = True
        return active

    def count(self, active: np.ndarray) -> np.ndarray:
        """Infected count (int64) of each cascade of an active bit table.

        The unpacked 0/1 bytes are added 8 to a word, at most 255 rows at a
        time, so no byte carries into the next.
        """
        infected = np.unpackbits(active[self.lit :].view(np.uint8), axis=1, bitorder="little")
        counts = np.full(infected.shape[1], self.n_seeds, dtype=np.int64)
        for start in range(0, len(infected), 255):
            counts += np.add.reduce(infected[start : start + 255].view(np.uint64)).view(np.uint8)
        return counts


def _pack(bits: np.ndarray) -> np.ndarray:
    """``_Kernel``'s packed ``live`` words of a (cascades x arcs) table of 0s and 1s.

    Each group of 8 cascades is shifted into one byte per arc, 8 arcs to a
    word, and the bytes are then laid out arc-major. A table of a multiple
    of 64 cascades and of 8 arcs is packed as it is; any other is padded
    first, and the padding cascades of the last word are dead on every arc.
    """
    n, m = bits.shape
    if n % 64 or m % 8:
        padded = np.zeros((-(-n // 64) * 64, -(-m // 8) * 8), dtype=np.uint8)
        padded[:n, :m] = bits
        bits = padded
    groups = bits.view(np.uint64).reshape(len(bits) // 8, 8, bits.shape[1] // 8)
    packed = groups[:, 0].copy()
    for i in range(1, 8):
        packed |= groups[:, i] << np.uint64(i)
    return np.ascontiguousarray(packed.view(np.uint8)[:, :m].T).view(np.uint64)


def _chunk_rows(n_edges: int) -> int:
    return max(64, COIN_CHUNK_BYTES // (8 * max(n_edges, 1)) // 64 * 64)


def _score_chunk(kernel: _Kernel, live: np.ndarray, extra: np.ndarray, rows: np.ndarray) -> None:
    """Add the cascades of ``live``, one 0/1 byte per cascade and arc, to ``rows``.

    ``live`` is trial-major, padded with dead arcs to a multiple of 8, and
    the arcs every removal removes are zero in it; so one propagation of its
    packed words gives every cascade's base count c, and every row gains
    (cascades, 0, sum c, sum c^2). ``extra`` holds the (removal, arc, source
    row) of each other arc of a removal that can change a cascade, sorted by
    removal; an arc does so only where it is live from an active source. So
    a removal's sums are the base ones with its affected cascades' base
    counts swapped for new ones. Those cascades of all removals are gathered
    as rows of ``live``, in tiles of at most one coin chunk's rows, each row
    with its removal's extra arcs cleared, and packed and run again.
    """
    n = len(live)
    packed = _pack(live)
    active = kernel.active(packed)
    counts = kernel.count(active)[:n]
    rows += (n, 0, counts.sum(), counts @ counts)
    cand, arcs, srcs = extra
    if not len(cand):
        return
    first = np.flatnonzero(np.diff(cand, prepend=-1))
    hit = np.bitwise_or.reduceat(packed[arcs] & active[srcs], first, axis=0)
    hit = np.unpackbits(hit.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
    per = np.count_nonzero(hit, axis=1)
    who, cols = np.repeat(cand[first], per), np.flatnonzero(hit)  # sorted by removal
    cols -= np.repeat(np.arange(0, len(hit) * n, n), per)
    step = _chunk_rows(live.shape[1])
    for start in range(0, len(cols), step):
        c, t = who[start : start + step], cols[start : start + step]
        tile = live[t]
        i, j = np.searchsorted(cand, (c[0], c[-1] + 1))  # the tile's removals' extra arcs
        mine = cand[i:j]
        lo, hi = np.searchsorted(c, mine).tolist(), np.searchsorted(c, mine, "right").tolist()
        for k, a, b in zip(arcs[i:j].tolist(), lo, hi):
            tile[a:b, k] = 0
        old, new = counts[t], kernel.count(kernel.active(_pack(tile)))[: len(t)]
        np.add.at(rows, (c, 2), new - old)
        np.add.at(rows, (c, 3), new * new - old * old)


def check_draw(trials: int, node_count: int) -> None:
    """Refuse ``trials`` < 1, or a sum of squares, at most trials * |V|^2, that could reach 2^63."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials * node_count**2 >= 1 << 63:
        raise ValueError(f"{trials} trials of {node_count} nodes overflow the int64 sums")


def draw_live(
    instance: ProblemInstance, trials: int, rng_seed, removals: Iterable[Iterable[int]]
) -> np.ndarray:
    """Each removal's row, in order, on one Monte Carlo draw of ``trials`` cascades.

    A row is four int64s, (trials, |V|, sum c, sum c^2) over the removal's
    infected counts c. The coins stream once from
    ``np.random.default_rng(rng_seed)``, so any seed numpy takes works,
    whatever the number of removals. Each chunk of ``_chunk_rows`` trials is
    one live table, its ``coins < p`` with the arcs every removal removes
    cleared. ``check_draw`` runs before any coin is drawn.
    """
    g = instance.graph
    check_draw(trials, g.node_count)
    kernel = _Kernel(g, instance.seeds)
    closed = [closed_removal(g, r) for r in removals]
    base = frozenset.intersection(*closed) if closed else frozenset()
    extra = np.array(
        [
            (c, k, kernel.source[k])
            for c, removed in enumerate(closed)
            for k in sorted(removed - base)
            if k in kernel.source
        ],
        dtype=np.intp,
    ).reshape(-1, 3).T
    rows = np.zeros((len(closed), 4), dtype=np.int64)
    rows[:, 1] = g.node_count
    p = np.array([e.p for e in g.edges])
    rng = np.random.default_rng(rng_seed)
    step = _chunk_rows(len(p))
    for start in range(0, trials, step):
        live = np.zeros((min(step, trials - start), -(-len(p) // 8) * 8), dtype=np.uint8)
        np.less(rng.random((len(live), len(p))), p, out=live[:, : len(p)])
        live[:, list(base)] = 0
        _score_chunk(kernel, live, extra, rows)
    return rows


def mc_influence(instance: ProblemInstance, trials: int, row: np.ndarray) -> InfluenceEstimate:
    """Monte Carlo estimate of sigma for a removal of ``instance``, from its ``draw_live`` row.

    The removal's arcs and undirected partners are dead in every cascade, so
    each count is the one ``instance.without_edges`` gives on the same coins
    without the removed columns. sigma is sum c / trials; the standard error
    comes from the exact integer spread trials * sum c^2 - (sum c)^2. A row
    of another node count, or of another number of trials, is refused.
    """
    drawn, nodes, total, squares = row.tolist()
    if nodes != instance.graph.node_count:
        raise ValueError(f"row is of {nodes} nodes, not {instance.graph.node_count}")
    if drawn != trials:
        raise ValueError(f"draw holds {drawn} trials, not {trials}")
    sigma = total / trials
    spread = (trials * squares - total * total) / trials  # sum (c - sigma)^2, rounded once
    std_error = sqrt(spread / (trials - 1)) / sqrt(trials) if trials > 1 else 0.0
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
    kernel = _Kernel(graph, seeds)
    return kernel.count(kernel.active(live))[:configs]


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
    return _forward(instance, None)


def exact_gradient(instance: ProblemInstance) -> tuple[ExactInfluence, list[float]]:
    """``exact_influence`` and d sigma / d p_k of each arc k, by a forward and a reverse pass.

    sigma is multilinear in the arc probabilities (Kempe, Kleinberg, Tardos
    2003), so sigma with arc k dead is exactly sigma - p_k * grad[k]
    (Griewank and Walther 2008). The forward DP logs the (A, F, mass, sure,
    maybe) of each state it expands; the reverse pass walks the log back,
    so each state's successors are done first, and forms the value-to-go
    V(A, F) = |F| + sum_o P(o) V(next_o). For each uncertain joiner u, with
    q_u = P(u stays out), S_in and S_out sum P(o) V(next_o) over the outcomes
    with and without u, and each frontier arc e into u gains
    mass * q_u / (1 - p_e) * (S_in / (1 - q_u) - S_out / q_u). The forward
    pass never expands the zero-mass branch where an arc with p = 1 fails,
    so grad[k] is exact for 0 < p_k < 1, and p_k * grad[k] for p_k = 0 too.
    Every sum adds its terms left to right from int 0, as the builtin
    ``sum`` does up to Python 3.11. From 3.12 on, ``sum`` compensates float
    sums, which would move the gradient's last bits.
    """
    log: list[tuple] = []
    exact = _forward(instance, log)
    g = instance.graph
    feeds: list[list[tuple[int, int, float]]] = [[] for _ in range(g.node_count)]
    for k, e in enumerate(g.edges):
        feeds[e.dst].append((e.src, k, 1.0 - e.p))  # (source, arc, 1 - p) per arc into u
    grad = [0.0] * len(g.edges)
    value: dict[tuple[int, int], float] = {}
    for active, frontier, mass, sure, maybe in reversed(log):
        if not maybe:  # one outcome, certain
            onward = value[active | sure, sure] if sure else 0
            value[active, frontier] = frontier.bit_count() + onward
            continue
        outcomes = [(sure, 1.0)]
        for bit, join, q in maybe:
            outcomes = [o for new, w in outcomes for o in ((new | bit, w * join), (new, w * q))]
        bits = [bit for bit, _, _ in maybe]
        total = 0
        s_in = [0] * len(bits)
        s_out = [0] * len(bits)
        for new, w in outcomes:
            if new:
                x = w * value[active | new, new]
                total += x
                for i, bit in enumerate(bits):
                    if new & bit:
                        s_in[i] += x
                    else:
                        s_out[i] += x
        value[active, frontier] = frontier.bit_count() + total
        for (bit, join, q), sum_in, sum_out in zip(maybe, s_in, s_out):
            for src, k, miss in feeds[bit.bit_length() - 1]:
                if frontier >> src & 1:
                    grad[k] += mass * q / miss * (sum_in / join - sum_out / q)
    return exact, grad


def _forward(instance: ProblemInstance, log: list | None) -> ExactInfluence:
    """``exact_influence``'s DP. Unless ``log`` is None, each expanded state's
    (A, F, mass, sure, maybe) is appended to it once its work is within the budget."""
    g = instance.graph
    arcs: list[list[tuple[int, float]]] = [[] for _ in range(g.node_count)]
    for e in g.edges:
        arcs[e.src].append((e.dst, 1.0 - e.p))
    node_probs = [0.0] * g.node_count
    seeds = sum(1 << s for s in instance.seeds)
    pending = {len(instance.seeds): {(seeds, seeds): 1.0}}
    work = 0
    while pending:
        size = min(pending)
        for (active, frontier), mass in pending.pop(size).items():
            miss: dict[int, float] = {}  # u -> P(no frontier arc into u is live)
            rest = frontier
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                node_probs[v] += mass
                for u, q in arcs[v]:
                    if not active >> u & 1:
                        miss[u] = miss[u] * q if u in miss else q
            sure = 0
            maybe = []
            for u, q in miss.items():
                if q == 0.0:
                    sure |= 1 << u
                elif q < 1.0:
                    maybe.append((1 << u, 1.0 - q, q))
            work += 1 << len(maybe)
            if work > EXACT_WORK_BUDGET:
                raise ValueError(
                    "instance too large for exact oracle: more than "
                    f"{EXACT_WORK_BUDGET} subset transitions"
                )
            if log is not None:
                log.append((active, frontier, mass, sure, maybe))
            outcomes = [(sure, mass)]
            for bit, join, q in maybe:
                outcomes = [o for new, w in outcomes for o in ((new | bit, w * join), (new, w * q))]
            for new, w in outcomes:
                if new:
                    # new holds only nodes outside active
                    level = pending.setdefault(size + new.bit_count(), {})
                    level[active | new, new] = level.get((active | new, new), 0.0) + w
    return ExactInfluence(
        sigma=fsum(node_probs),
        node_probs=dict(enumerate(node_probs)),
        work=work,
    )
