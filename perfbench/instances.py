"""Seeded instance families for the benchmark workloads.

Each family fixes |V|, |E| and the number of seed nodes, so the amount of work
stays the same when a workload is re-run on a new seed; the seed only picks the
topology, the activation probabilities p and the importances i.

Arc indices follow the instance-file parser: arcs are numbered in line order,
and an undirected line ``a b`` yields arc (a, b) followed by arc (b, a).
"""
from __future__ import annotations

from dataclasses import dataclass

SWAPS_PER_EDGE = 10  # double-edge swap attempts per edge when randomizing a regular graph


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    p: float
    i: float
    line: int  # index of the edge line that declared this arc


@dataclass(frozen=True)
class Instance:
    nodes: int
    arcs: tuple[Arc, ...]
    seeds: tuple[int, ...]
    lam: float
    undirected: bool

    def candidates(self, removed: frozenset[int]) -> frozenset[int]:
        """Arc indices the CLI may report as a removal: one arc per line."""
        gone = {a.line for k, a in enumerate(self.arcs) if k in removed}
        first = {}
        for k, a in enumerate(self.arcs):
            first.setdefault(a.line, k)
        return frozenset(k for line, k in first.items() if line not in gone)

    def to_text(self) -> str:
        out = [f"nodes {self.nodes}"]
        if self.undirected:
            out.append("undirected")
        seen = set()
        for a in self.arcs:
            if a.line in seen:
                continue
            seen.add(a.line)
            out.append(f"{a.src} {a.dst} {a.p!r} {a.i!r}")
        out.append("seeds " + " ".join(str(s) for s in self.seeds))
        out.append(f"lambda {self.lam!r}")
        return "\n".join(out) + "\n"


def _build(nodes, pairs, seeds, lam, undirected, p_range, i_range, rng) -> Instance:
    arcs = []
    for line, (a, b) in enumerate(pairs):
        p = float(rng.uniform(*p_range))
        i = float(rng.uniform(*i_range))
        arcs.append(Arc(a, b, p, i, line))
        if undirected:
            arcs.append(Arc(b, a, p, i, line))
    return Instance(nodes, tuple(arcs), tuple(sorted(seeds)), lam, undirected)


def _regular_pairs(rng, nodes: list[int], degree: int) -> list[tuple[int, int]]:
    """Edges of a random simple ``degree``-regular graph on ``nodes`` (even degree).

    Starts from the circulant graph joining each node to the ``degree/2``
    next ones around a cycle, then applies random degree-preserving double
    edge swaps that keep the graph simple, so the cost is fixed per instance.
    """
    n = len(nodes)
    edges = [(nodes[i], nodes[(i + j) % n]) for i in range(n) for j in range(1, degree // 2 + 1)]
    present = {frozenset(e) for e in edges}
    tries = SWAPS_PER_EDGE * len(edges)
    picks = rng.integers(len(edges), size=(tries, 2)).tolist()
    flips = (rng.random(tries) < 0.5).tolist()
    for (x, y), flip in zip(picks, flips):
        (a, b), (c, d) = edges[x], edges[y]
        if flip:
            c, d = d, c
        new1, new2 = frozenset((a, c)), frozenset((b, d))
        if len({a, b, c, d}) < 4 or new1 in present or new2 in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, d))}
        present |= {new1, new2}
        edges[x], edges[y] = (a, c), (b, d)
    return edges


def uplinked_core(rng, nodes, degree, uplinks, lam, p_range, i_range) -> Instance:
    """Undirected graph: two adjacent seed nodes joined to a regular core.

    The core is a random ``degree``-regular graph on the other |V|-2 nodes;
    ``uplinks`` edges join the seeds (alternately) to distinct core nodes.
    Edge count: (|V|-2)*degree/2 + 1 + uplinks. Cutting the uplinks contains
    the outbreak to the two seeds, so a plan of that many removals reaches
    the least possible influence, 2.
    """
    a, b, *core = (int(v) for v in rng.permutation(nodes))
    pairs = _regular_pairs(rng, core, degree)
    heads = rng.choice(core, size=uplinks, replace=False)
    pairs += [(a, b)] + [((a, b)[k % 2], int(v)) for k, v in enumerate(heads)]
    order = rng.permutation(len(pairs))
    pairs = [pairs[int(k)] for k in order]
    return _build(nodes, pairs, [a, b], lam, True, p_range, i_range, rng)


def seeded_path_digraph(rng, nodes, arcs, seed_out, lam, p_range, i_range) -> Instance:
    """Directed graph with one seed node.

    A path from the seed visits every node, the seed has exactly ``seed_out``
    out-arcs, and the remaining arcs join random pairs of other nodes. The
    longest cascade is therefore |V|-1 hops on every seed, and a plan of
    ``seed_out`` removals can isolate the seed.
    """
    seed = int(rng.integers(nodes))
    others = [int(v) for v in rng.permutation([v for v in range(nodes) if v != seed])]
    chosen = [(seed, others[0])] + list(zip(others, others[1:]))
    taken = set(chosen)
    for v in rng.choice(others[1:], size=seed_out - 1, replace=False):
        chosen.append((seed, int(v)))
        taken.add((seed, int(v)))
    pool = [(a, b) for a in others for b in others if a != b and (a, b) not in taken]
    for k in rng.choice(len(pool), size=arcs - len(chosen), replace=False):
        chosen.append(pool[int(k)])
    order = rng.permutation(len(chosen))
    pairs = [chosen[int(k)] for k in order]
    return _build(nodes, pairs, [seed], lam, False, p_range, i_range, rng)


def gateway_digraph(rng, nodes, arcs, lam, p_range, i_range) -> Instance:
    """Directed graph where the only seed reaches a hub through one arc.

    The hub has an arc to every other node and the remaining arcs join random
    pairs of non-seed nodes. With p close to 1 and lambda close to 1, cutting
    the gateway arc is the one removal whose gain clears the QAE acceptance
    threshold 2*epsilon*|V|, so every plan accepts one step and then stops.
    """
    seed, hub, *leaves = (int(v) for v in rng.permutation(nodes))
    chosen = [(seed, hub)] + [(hub, v) for v in leaves]
    taken = set(chosen)
    pool = [(a, b) for a in [hub, *leaves] for b in leaves if a != b and (a, b) not in taken]
    for k in rng.choice(len(pool), size=arcs - len(chosen), replace=False):
        chosen.append(pool[int(k)])
    order = rng.permutation(len(chosen))
    pairs = [chosen[int(k)] for k in order]
    return _build(nodes, pairs, [seed], lam, False, p_range, i_range, rng)
