"""Per-layer metrics derived from the spans of a traced run.

Scopes: a count or a number of seconds is summed over one plan (one traced
``contain`` call) and reported as the median over the run's traced plans.
Percentiles, rates, ratios and maxima pool every traced call, plans and
estimates alike. A ratio or percentile with nothing to pool reads 0.
"""
from __future__ import annotations

import statistics

import numpy as np

# name -> (unit, better); the benchmark's per-layer metrics, in report order.
METRICS = {
    "graph.parse_s": ("s", "lower"),
    "graph.without_edges_calls": ("count", "lower"),
    "graph.without_edges_s": ("s", "lower"),
    "cascade.mc_calls": ("count", "lower"),
    "cascade.mc_s": ("s", "lower"),
    "cascade.mc_call_ms_p50": ("ms", "lower"),
    "cascade.mc_call_ms_p90": ("ms", "lower"),
    "cascade.mc_trials": ("count", "lower"),
    "cascade.mc_trial_arcs_per_s": ("1/s", "higher"),
    "cascade.mc_coin_bytes": ("B", "lower"),
    "cascade.exact_calls": ("count", "lower"),
    "cascade.exact_s": ("s", "lower"),
    "cascade.exact_call_ms_p50": ("ms", "lower"),
    "cascade.exact_call_ms_p90": ("ms", "lower"),
    "cascade.exact_configs": ("count", "lower"),
    "cascade.exact_bytes": ("B", "lower"),
    "cascade.reachability_s": ("s", "lower"),
    "qsim.gate_calls": ("count", "lower"),
    "qsim.s": ("s", "lower"),
    "qsim.amplitudes_touched": ("count", "lower"),
    "qae.estimate_calls": ("count", "lower"),
    "qae.estimate_s": ("s", "lower"),
    "qae.build_a_s": ("s", "lower"),
    "qae.q_applications": ("count", "lower"),
    "qae.a_applications": ("count", "lower"),
    "qae.qubits": ("count", "lower"),
    "qae.within_eps_ratio": ("ratio", "higher"),
    "gmf.calls": ("count", "lower"),
    "gmf.s": ("s", "lower"),
    "gmf.oracle_calls": ("count", "lower"),
    "gmf.true_min_ratio": ("ratio", "higher"),
    "containment.iterations": ("count", "lower"),
    "containment.candidates_scored": ("count", "lower"),
    "containment.accept_ratio": ("ratio", "higher"),
    "containment.linear_steps": ("count", "lower"),
    "containment.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

FINDERS = ("containment.linear_finder", "gmf.finder")

# Printed accounting field -> (span whose notes sum to it, note key).
ACCOUNTING = {
    "mc_trials": ("cascade.mc_influence", "trials"),
    "q_applications": ("qae.qae_estimate", "q"),
    "grover_oracle_calls": ("gmf.durr_hoyer_min", "oracle"),
    "linear_steps": ("containment.linear_finder", "n"),
}


def exact_bytes(arcs: int, nodes: int) -> int:
    """Computed size of the live-edge enumeration's arrays at 2^arcs rows.

    An int64 (rows x arcs) shift temporary and its bool table, the int64
    configuration index and float64 weights, and three bool node-state tables.
    """
    return (1 << arcs) * (9 * arcs + 16 + 3 * nodes)


class SpanIndex:
    """Spans grouped by plan id, with direct children per span."""

    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        self.by_plan: dict[int, list[int]] = {}
        for k, (name, t0, t1, parent, plan, note) in enumerate(spans):
            if parent is not None:
                self.children.setdefault(parent, []).append(k)
            self.by_plan.setdefault(plan, []).append(k)

    def dur(self, k: int) -> float:
        return self.spans[k][2] - self.spans[k][1]

    def named(self, name: str, plans=None) -> list[int]:
        if plans is None:
            return [k for k, s in enumerate(self.spans) if s[0] == name]
        return [k for p in plans for k in self.by_plan.get(p, ()) if self.spans[k][0] == name]

    def has_ancestor(self, k: int, name: str) -> bool:
        parent = self.spans[k][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def note(self, k: int, key: str, default=0):
        """A work unit of span k; ``default`` where the span has none."""
        note = self.spans[k][5]
        return note[key] if note is not None else default

    def note_sum(self, ks, key) -> float:
        return sum(self.note(k, key) for k in ks)


def accounting_of(index: SpanIndex, plan: int, absent) -> dict[str, int | None]:
    """Traced counterparts of the CLI's accounting line for one plan."""
    out = {}
    for field, (span, key) in ACCOUNTING.items():
        missing = span in absent or f"{span} work units" in absent
        out[field] = None if missing else int(index.note_sum(index.named(span, [plan]), key))
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pct_ms(index: SpanIndex, ks, q: float) -> float:
    return float(np.percentile([index.dur(k) * 1e3 for k in ks], q)) if ks else 0.0


def layer_metrics(spans, plans, true_a=None, epsilon=None) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``plans`` are the plan ids of traced ``contain`` calls. ``true_a(plan,
    removal)`` gives the exact normalized influence for a QAE estimate made
    in that plan; ``epsilon`` is the workload's stated QAE accuracy.
    """
    ix = SpanIndex(spans)
    s = ix.spans

    def per_plan(fn) -> float:
        return _median([fn(p) for p in plans])

    def count(name):
        return per_plan(lambda p: len(ix.named(name, [p])))

    def seconds(name, where=None):
        return per_plan(lambda p: sum(ix.dur(k) for k in ix.named(name, [p]) if where is None or where(k)))

    def total(name, key):
        return per_plan(lambda p: ix.note_sum(ix.named(name, [p]), key))

    def self_time(name, minus=None):
        def one(p):
            t = 0.0
            for k in ix.named(name, [p]):
                kids = [c for c in ix.children.get(k, ()) if minus is None or s[c][0] in minus]
                t += ix.dur(k) - sum(ix.dur(c) for c in kids)
            return t
        return per_plan(one)

    def outer_qsim(p):
        return [k for k in ix.by_plan.get(p, ())
                if s[k][0].startswith("qsim.") and (s[k][3] is None or not s[s[k][3]][0].startswith("qsim."))]

    def noted(name):
        return [k for k in ix.named(name) if s[k][5] is not None]

    mc = noted("cascade.mc_influence")
    mc_work = sum(ix.note(k, "trials") * ix.note(k, "arcs") for k in mc)
    mc_time = sum(ix.dur(k) for k in mc)
    exact = noted("cascade.exact_influence")
    qae = noted("qae.qae_estimate")
    within = [abs(ix.note(k, "a_hat") - true_a(s[k][4], ix.note(k, "removal"))) <= epsilon
              for k in qae] if true_a else []
    dh = [k for k in noted("gmf.durr_hoyer_min") if ix.note(k, "true_min") is not None]
    accepted = ix.note_sum(ix.named("containment.greedy_contain", plans), "removed")
    iterations = sum(len(ix.named(f, plans)) for f in FINDERS)
    qubits = [ix.note(k, "qubits") for k in noted("qsim.init_state") if ix.has_ancestor(k, "qae.qae_estimate")]

    return {
        "graph.parse_s": _median([ix.dur(k) for k in ix.named("graph.parse_instance")]),
        "graph.without_edges_calls": count("graph.without_edges"),
        "graph.without_edges_s": seconds("graph.without_edges"),
        "cascade.mc_calls": count("cascade.mc_influence"),
        "cascade.mc_s": seconds("cascade.mc_influence"),
        "cascade.mc_call_ms_p50": _pct_ms(ix, mc, 50),
        "cascade.mc_call_ms_p90": _pct_ms(ix, mc, 90),
        "cascade.mc_trials": total("cascade.mc_influence", "trials"),
        "cascade.mc_trial_arcs_per_s": mc_work / mc_time if mc_time else 0.0,
        "cascade.mc_coin_bytes": max((8 * ix.note(k, "trials") * ix.note(k, "arcs") for k in mc), default=0),
        "cascade.exact_calls": count("cascade.exact_influence"),
        "cascade.exact_s": seconds("cascade.exact_influence"),
        "cascade.exact_call_ms_p50": _pct_ms(ix, exact, 50),
        "cascade.exact_call_ms_p90": _pct_ms(ix, exact, 90),
        "cascade.exact_configs": per_plan(lambda p: sum(1 << ix.note(k, "arcs") for k in ix.named("cascade.exact_influence", [p]) if s[k][5])),
        "cascade.exact_bytes": max((exact_bytes(ix.note(k, "arcs"), ix.note(k, "nodes")) for k in exact), default=0),
        "cascade.reachability_s": seconds("cascade.live_edge_reachability",
                                          lambda k: ix.has_ancestor(k, "qae.build_a_operator")),
        "qsim.gate_calls": per_plan(lambda p: len(outer_qsim(p))),
        "qsim.s": per_plan(lambda p: sum(ix.dur(k) for k in outer_qsim(p))),
        "qsim.amplitudes_touched": per_plan(lambda p: ix.note_sum(outer_qsim(p), "amps")),
        "qae.estimate_calls": count("qae.qae_estimate"),
        "qae.estimate_s": seconds("qae.qae_estimate"),
        "qae.build_a_s": seconds("qae.build_a_operator"),
        "qae.q_applications": total("qae.qae_estimate", "q"),
        "qae.a_applications": total("qae.qae_estimate", "a"),
        "qae.qubits": max(qubits, default=0),
        "qae.within_eps_ratio": sum(within) / len(within) if within else 0.0,
        "gmf.calls": count("gmf.durr_hoyer_min"),
        "gmf.s": seconds("gmf.durr_hoyer_min"),
        "gmf.oracle_calls": total("gmf.durr_hoyer_min", "oracle"),
        "gmf.true_min_ratio": sum(ix.note(k, "true_min") for k in dh) / len(dh) if dh else 0.0,
        "containment.iterations": per_plan(lambda p: sum(len(ix.named(f, [p])) for f in FINDERS)),
        "containment.candidates_scored": total("containment.candidate_edges", "n"),
        "containment.accept_ratio": accepted / iterations if iterations else 0.0,
        "containment.linear_steps": total("containment.linear_finder", "n"),
        "containment.self_s": self_time("containment.greedy_contain",
                                        ("containment.estimator",) + FINDERS),
        "cli.self_s": self_time("cli.main"),
    }
