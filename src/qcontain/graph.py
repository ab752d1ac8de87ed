"""Directed graphs with per-edge activation probability and operational importance.

Node ids are dense integers in [0, node_count). An "undirected" instance is
stored as two arcs per listed edge; the arcs share p and i, and removing one
arc of a pair removes both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

# Largest node count an instance file may declare. Estimators allocate per-node
# tables (MC bit rows, exact node probabilities), so the header is checked first.
MAX_NODES = 10_000
# Largest arc count of an instance, checked before the arc past it is built: the
# most arcs for which a 64-trial chunk of Monte Carlo coins fits in 8 MiB.
MAX_EDGES = 16_384


class ParseError(ValueError):
    """Raised for malformed instance files; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    p: float
    i: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"probability out of range: {self.p}")
        if not (0.0 <= self.i <= 1.0):
            raise ValueError(f"importance out of range: {self.i}")
        if self.src == self.dst:
            raise ValueError(f"self-loop at node {self.src}")
        if self.src < 0 or self.dst < 0:
            raise ValueError("negative node id")


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph over dense integer node ids.

    For undirected graphs each logical edge appears as two arcs; ``partner[k]``
    gives the index of the reverse arc (None for purely directed arcs).
    """

    node_count: int
    edges: tuple[Edge, ...]
    undirected: bool = False
    partner: tuple[int | None, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        edges = tuple(self.edges)
        seen: dict[tuple[int, int], int] = {}
        for k, e in enumerate(edges):
            if e.src >= self.node_count or e.dst >= self.node_count:
                raise ValueError(f"edge {e.src}->{e.dst} references unknown node")
            if (e.src, e.dst) in seen:
                raise ValueError(f"duplicate edge {e.src}->{e.dst}")
            seen[(e.src, e.dst)] = k
        partner = tuple(seen.get((e.dst, e.src)) if self.undirected else None for e in edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "partner", partner)

    def represents_pair(self, k: int) -> bool:
        """Whether arc k stands for its logical edge: it is directed, or the
        lower-indexed arc of an undirected pair."""
        mate = self.partner[k]
        return mate is None or k < mate


@dataclass(frozen=True)
class ProblemInstance:
    graph: Graph
    seeds: frozenset[int]
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "seeds", frozenset(self.seeds))
        if not self.seeds:
            raise ValueError("empty seed set")
        for s in self.seeds:
            if not (0 <= s < self.graph.node_count):
                raise ValueError(f"seed {s} is not a node")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda out of range: {self.lam}")

    @cached_property
    def live_counts(self) -> np.ndarray:
        """``cascade.live_edge_reachability`` of the graph, built on first use and
        kept for the instance's lifetime; its entries with an arc's bit clear are
        the counts without that arc."""
        from .cascade import live_edge_reachability  # cascade imports this module

        return live_edge_reachability(self.graph, self.seeds)

    def without_edges(self, removal: Iterable[int]) -> "ProblemInstance":
        """Without the given arcs and their undirected partners, itself if none; the tests' reference."""
        g = self.graph
        drop = closed_removal(g, removal)
        if not drop:
            return self
        kept = [e for k, e in enumerate(g.edges) if k not in drop]
        return ProblemInstance(Graph(g.node_count, kept, g.undirected), self.seeds, self.lam)


def closed_removal(graph: Graph, removal: Iterable[int]) -> frozenset[int]:
    """Removal set closed under undirected partners, with indices validated."""
    out = set()
    for k in removal:
        if not (0 <= k < len(graph.edges)):
            raise ValueError(f"invalid edge index {k}")
        out.add(k)
        mate = graph.partner[k]
        if mate is not None:
            out.add(mate)
    return frozenset(out)


def parse_instance(text: str) -> ProblemInstance:
    node_count: int | None = None
    undirected = False
    edge_lines: list[tuple[int, str, str, float, float]] = []
    seeds_tokens: list[tuple[int, str]] = []
    lam: float | None = None
    names: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "nodes":
            if node_count is not None:
                raise ParseError(lineno, "repeated 'nodes' line")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected 'nodes <N>'")
            try:
                node_count = int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"bad node count {tokens[1]!r}") from None
            if node_count < 1:
                raise ParseError(lineno, "node count must be positive")
            if node_count > MAX_NODES:
                raise ParseError(lineno, f"node count {node_count} exceeds the limit {MAX_NODES}")
        elif key == "undirected":
            if len(tokens) != 1:
                raise ParseError(lineno, "expected 'undirected' with no value")
            undirected = True
        elif key == "seeds":
            if len(tokens) < 2:
                raise ParseError(lineno, "empty seed set")
            seeds_tokens.extend((lineno, t) for t in tokens[1:])
        elif key == "lambda":
            if lam is not None:
                raise ParseError(lineno, "repeated 'lambda' line")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected 'lambda <x>'")
            try:
                lam = float(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"bad lambda {tokens[1]!r}") from None
            if not (0.0 <= lam <= 1.0):
                raise ParseError(lineno, f"lambda out of range: {lam}")
        else:
            if len(tokens) != 4:
                raise ParseError(lineno, f"malformed line {line!r}")
            try:
                p = float(tokens[2])
                i = float(tokens[3])
            except ValueError:
                raise ParseError(lineno, f"malformed line {line!r}") from None
            edge_lines.append((lineno, tokens[0], tokens[1], p, i))

    if node_count is None:
        raise ParseError(1, "missing 'nodes' header")
    if lam is None:
        raise ParseError(1, "missing 'lambda' line")
    if not seeds_tokens:
        raise ParseError(1, "empty seed set")

    kinds: set[bool] = set()  # whether a token was an integer id

    def resolve(lineno: int, token: str) -> int:
        try:
            idx = int(token)
        except ValueError:
            idx = None
        kinds.add(idx is not None)
        if len(kinds) > 1:
            raise ParseError(
                lineno, f"node {token!r} mixes integer ids with symbolic names; use one or the other"
            )
        if idx is None:
            if token not in names:
                if len(names) == node_count:
                    raise ParseError(
                        lineno, f"node name {token!r} exceeds 'nodes {node_count}'"
                    )
                names[token] = len(names)
            return names[token]
        if not (0 <= idx < node_count):
            raise ParseError(lineno, f"unknown node {token}")
        return idx

    # Edge checks p, i and self-loops; resolve, the header and this loop leave
    # Graph and ProblemInstance nothing to reject.
    edges = []
    seen_arcs: set[tuple[int, int]] = set()
    for lineno, s_tok, d_tok, p, i in edge_lines:
        if len(edges) + (2 if undirected else 1) > MAX_EDGES:
            raise ParseError(lineno, f"more than {MAX_EDGES} arcs")
        src = resolve(lineno, s_tok)
        dst = resolve(lineno, d_tok)
        try:
            arcs = [Edge(src, dst, p, i)] + ([Edge(dst, src, p, i)] if undirected else [])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        for e in arcs:
            if (e.src, e.dst) in seen_arcs:
                raise ParseError(lineno, f"duplicate edge {s_tok} {d_tok}")
            seen_arcs.add((e.src, e.dst))
        edges += arcs

    seeds = frozenset(resolve(ln, t) for ln, t in seeds_tokens)
    return ProblemInstance(Graph(node_count, edges, undirected=undirected), seeds, lam)


def serialize_instance(inst: ProblemInstance) -> str:
    g = inst.graph
    lines = [f"nodes {g.node_count}"]
    if g.undirected:
        lines.append("undirected")
    for k, e in enumerate(g.edges):
        if g.represents_pair(k):
            lines.append(f"{e.src} {e.dst} {e.p!r} {e.i!r}")
    lines.append("seeds " + " ".join(str(s) for s in sorted(inst.seeds)))
    lines.append(f"lambda {inst.lam!r}")
    return "\n".join(lines) + "\n"


def generate_random_instance(
    n_nodes: int,
    edge_prob: float,
    p_range: tuple[float, float],
    i_range: tuple[float, float],
    n_seeds: int,
    lam: float,
    rng_seed: int,
) -> ProblemInstance:
    """Directed Erdos-Renyi instance with uniform p and i, deterministic per seed."""
    if not (1 <= n_nodes <= MAX_NODES):
        raise ValueError(f"n_nodes must be in [1, {MAX_NODES}]")
    if not (1 <= n_seeds <= n_nodes):
        raise ValueError("n_seeds > n_nodes" if n_seeds > n_nodes else "n_seeds must be >= 1")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob out of range")
    for name, (lo, hi) in (("p_range", p_range), ("i_range", i_range)):
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"{name} ({lo}, {hi}) must satisfy 0 <= min <= max <= 1")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda out of range: {lam}")
    rng = np.random.default_rng(rng_seed)
    edges = []
    for src in range(n_nodes):
        for dst in range(n_nodes):
            if src == dst:
                continue
            if rng.random() < edge_prob:
                if len(edges) == MAX_EDGES:
                    raise ValueError(f"more than {MAX_EDGES} edges; lower the node count or edge_prob")
                p = float(rng.uniform(*p_range))
                i = float(rng.uniform(*i_range))
                edges.append(Edge(src, dst, p, i))
    seeds = frozenset(int(s) for s in rng.choice(n_nodes, size=n_seeds, replace=False))
    return ProblemInstance(Graph(n_nodes, edges), seeds, lam)
