"""Reference influence estimators, independent of the package under test.

Both work on the live-edge view of Independent Cascade (Kempe, Kleinberg,
Tardos 2003): an arc is live with probability p, and the infected set is
everything reachable from the seeds over live arcs. A node set is a uint64
bit mask, so instances are limited to 64 nodes.
"""
from __future__ import annotations

import numpy as np

from instances import Instance

MC_CHUNK = 10_000
EXACT_MAX_ARCS = 20


def kept(inst: Instance, removed) -> list:
    """Arcs left after removing ``removed`` and, for undirected lines, their mates."""
    gone = {inst.arcs[k].line for k in removed}
    return [a for a in inst.arcs if a.line not in gone]


def _bfs_order(arcs, seeds) -> list[int]:
    """Arc positions sorted by the hop distance of their source from the seeds.

    One sweep in this order settles every cascade that follows shortest
    paths, so the fixed point below needs few sweeps.
    """
    depth = {s: 0 for s in seeds}
    frontier = list(seeds)
    while frontier:
        nxt = []
        for a in arcs:
            if a.src in frontier and a.dst not in depth:
                depth[a.dst] = depth[a.src] + 1
                nxt.append(a.dst)
        frontier = nxt
    return sorted(range(len(arcs)), key=lambda k: (depth.get(arcs[k].src, len(depth)), k))


def _reach(arcs, seeds, live: np.ndarray) -> np.ndarray:
    """Reachable-set bit masks, one per column of the (arcs x rows) ``live`` matrix."""
    mask = 0
    for s in seeds:
        mask |= 1 << s
    reach = np.full(live.shape[1], mask, dtype=np.uint64)
    order = [(k, np.uint64(arcs[k].src), np.uint64(arcs[k].dst)) for k in _bfs_order(arcs, seeds)]
    while True:
        before = reach.copy()
        for k, src, dst in order:
            reach |= ((reach >> src) & live[k]) << dst
        if np.array_equal(before, reach):
            return reach


def exact_sigma(inst: Instance, removed=()) -> float:
    """Expected infected count by enumerating every live-edge configuration."""
    arcs = kept(inst, removed)
    if len(arcs) > EXACT_MAX_ARCS:
        raise ValueError(f"exact reference limited to {EXACT_MAX_ARCS} arcs, got {len(arcs)}")
    cfg = np.arange(1 << len(arcs), dtype=np.uint64)
    live = np.array([(cfg >> np.uint64(k)) & np.uint64(1) for k in range(len(arcs))])
    weights = np.ones(len(cfg))
    for k, a in enumerate(arcs):
        weights *= np.where(live[k] == 1, a.p, 1.0 - a.p)
    reach = _reach(arcs, inst.seeds, live.reshape(len(arcs), len(cfg)))
    return float(weights @ np.bitwise_count(reach).astype(float))


def mc_sigma(inst: Instance, removed, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean infected count and its standard error."""
    arcs = kept(inst, removed)
    p = np.array([a.p for a in arcs])
    rng = np.random.default_rng(seed)
    counts = []
    left = trials
    while left:
        n = min(left, MC_CHUNK)
        live = (rng.random((n, len(arcs))) < p).T.astype(np.uint64)
        counts.append(np.bitwise_count(_reach(arcs, inst.seeds, live)))
        left -= n
    c = np.concatenate(counts).astype(float)
    return float(c.mean()), float(c.std(ddof=1) / np.sqrt(trials))


def impact(inst: Instance, removed) -> float:
    """Operational impact: summed importance, one term per removed line."""
    lines = {inst.arcs[k].line: inst.arcs[k].i for k in removed}
    return float(sum(lines.values()))


def objective(inst: Instance, removed, sigma: float) -> float:
    return inst.lam * sigma + (1.0 - inst.lam) * impact(inst, removed)
