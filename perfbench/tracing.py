"""Span tracing of the package's public functions, installed from outside.

``WRAPPED`` lists the public functions that bound a layer or that a per-layer
metric reads. ``Tracer.install`` replaces each with a wrapper
that records a span: name, start, end, parent span and plan id, plus a few
work units read from the call's arguments and result. The wrapper is bound
under every name that refers to the original, in every loaded ``qcontain``
module, because modules import one another's functions by name.

A function that no longer exists is recorded in ``Tracer.absent`` and left
out, and so are the work units of a function whose arguments or result no
longer have the expected shape; the metrics that need them read as absent
instead of failing the run.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter


def _n_arcs(inst) -> int:
    return len(inst.graph.edges)


def _amplitudes(args, kwargs, result) -> dict:
    return {"amps": len(args[0])}


# (module, qualified name) -> note(args, kwargs, result) giving the span's work units.
# The qsim entries are its whole gate set, so qsim.gate_calls counts every gate.
WRAPPED = {
    ("graph", "parse_instance"): None,
    ("graph", "ProblemInstance.without_edges"): None,
    ("cascade", "mc_influence"): lambda a, k, r: {
        "trials": a[1] if len(a) > 1 else k["trials"], "arcs": _n_arcs(a[0]),
    },
    ("cascade", "exact_influence"): lambda a, k, r: {
        "arcs": _n_arcs(a[0]), "nodes": a[0].graph.node_count,
    },
    ("cascade", "live_edge_reachability"): lambda a, k, r: {"arcs": len(a[0].edges)},
    ("qsim", "init_state"): lambda a, k, r: {"qubits": a[0], "amps": len(r)},
    ("qsim", "apply_h"): _amplitudes,
    ("qsim", "apply_x"): _amplitudes,
    ("qsim", "apply_ry"): _amplitudes,
    ("qsim", "apply_ry_indexed"): _amplitudes,
    ("qsim", "phase_flip_if"): _amplitudes,
    ("qsim", "diffusion"): _amplitudes,
    ("qsim", "qft"): _amplitudes,
    ("qsim", "inverse_qft"): _amplitudes,
    ("qsim", "register_distribution"): _amplitudes,
    ("qsim", "probability_of"): _amplitudes,
    ("qae", "build_a_operator"): None,
    ("qae", "qae_estimate"): lambda a, k, r: {
        "removal": tuple(a[1] if len(a) > 1 else k.get("removal", ())),
        "a_hat": r.a_hat, "q": r.q_applications, "a": r.a_applications,
    },
    ("qae", "qae_influence"): None,
    ("gmf", "durr_hoyer_min"): lambda a, k, r: {
        "oracle": r.total_oracle_calls,
        "true_min": r.min_value == min(a[0]) if not callable(a[0]) else None,
    },
    ("gmf", "make_gmf_finder"): None,
    ("containment", "greedy_contain"): lambda a, k, r: {"removed": len(r.removed)},
    ("containment", "candidate_edges"): lambda a, k, r: {"n": len(r)},
    ("containment", "linear_finder"): lambda a, k, r: {"n": len(a[0])},
    ("containment", "make_exact_estimator"): None,
    ("containment", "make_mc_estimator"): None,
    ("containment", "make_qae_estimator"): None,
    ("cli", "main"): None,
}

# Factories whose returned callable is traced as a span of its own.
RETURNS_CALLABLE = {
    ("containment", "make_exact_estimator"): "containment.estimator",
    ("containment", "make_mc_estimator"): "containment.estimator",
    ("containment", "make_qae_estimator"): "containment.estimator",
    ("gmf", "make_gmf_finder"): "gmf.finder",
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        # span: [name, start, end, parent index or None, plan id, note]
        self.spans: list[list] = []
        self.plan: int | None = None
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, note=None, returns=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.plan, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                try:
                    rec[5] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.absent.add(f"{name} work units")
            if returns is not None:
                result = self.wrap(returns, result)
            return result

        return traced

    def install(self) -> None:
        self.absent = set()
        modules = [m for n, m in sys.modules.items() if n == "qcontain" or n.startswith("qcontain.")]
        for (mod_name, qual), note in WRAPPED.items():
            name = f"{mod_name}.{qual.rsplit('.', 1)[-1]}"
            owner = sys.modules.get(f"qcontain.{mod_name}")
            *outer, attr = qual.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.add(name)
                continue
            wrapper = self.wrap(name, original, note, RETURNS_CALLABLE.get((mod_name, qual)))
            targets = [owner] if outer else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
