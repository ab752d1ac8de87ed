"""Output checks: each CLI call either passes every check or counts as failed.

A ``contain`` call must print a well-formed plan whose step totals strictly
decrease, whose removals are valid candidates of the generated instance, and
whose impact terms match the instance's importances; a rerun with identical
flags must print the same bytes. An ``estimate`` call must repeat byte for
byte too and agree with the benchmark's own reference estimator.
"""
from __future__ import annotations

import math
import re

import reference

STEP = re.compile(
    r"k=(\d+) edge=(\d+)->(\d+) idx=(\d+) total=(\S+) influence=(\S+) impact=(\S+)$"
)
ACCOUNT = re.compile(
    r"removed=(\d+) mc_trials=(\d+) a_applications=(\d+) q_applications=(\d+) "
    r"grover_oracle_calls=(\d+) linear_steps=(\d+)$"
)
ACCOUNT_FIELDS = ("removed", "mc_trials", "a_applications", "q_applications",
                  "grover_oracle_calls", "linear_steps")
MC_REFERENCE_TRIALS = 100_000
MC_CHECK_TRIALS = 10_000  # reference for 2000-trial estimates: 5x their trials
SE_TOLERANCE = 5.0


def parse_plan(stdout: str):
    """(removed arc indices, steps, accounting) from ``contain`` output."""
    lines = stdout.strip().splitlines()
    if not lines or not ACCOUNT.match(lines[-1]):
        raise ValueError("missing accounting line")
    accounting = dict(zip(ACCOUNT_FIELDS, map(int, ACCOUNT.match(lines[-1]).groups())))
    steps = []
    for line in lines[:-1]:
        m = STEP.match(line)
        if not m:
            raise ValueError(f"malformed step line {line!r}")
        k, src, dst, idx = map(int, m.groups()[:4])
        steps.append((k, src, dst, idx, *map(float, m.groups()[4:])))
    return [s[3] for s in steps], steps, accounting


def plan_problems(inst, stdout: str) -> list[str]:
    try:
        removed, steps, accounting = parse_plan(stdout)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if accounting["removed"] != len(steps):
        problems.append("removed count differs from the number of steps")
    done: list[int] = []
    last = math.inf
    for n, (k, src, dst, idx, total, influence, impact) in enumerate(steps, start=1):
        if k != n:
            problems.append(f"step {n} is numbered k={k}")
        if idx not in inst.candidates(frozenset(done)):
            problems.append(f"step {k}: arc {idx} is not a removal candidate")
            break
        arc = inst.arcs[idx]
        if (arc.src, arc.dst) != (src, dst):
            problems.append(f"step {k}: arc {idx} printed as {src}->{dst}")
        done.append(idx)
        want = (1.0 - inst.lam) * reference.impact(inst, done)
        if abs(impact - want) > 1e-9 or abs(total - influence - impact) > 1e-9 * max(1.0, abs(total)):
            problems.append(f"step {k}: objective terms do not add up")
        if not total < last:
            problems.append(f"step {k}: total {total!r} does not decrease")
        last = total
    return problems


def parse_estimate(stdout: str) -> dict[str, str]:
    fields = dict(line.split(" ", 1) for line in stdout.strip().splitlines() if " " in line)
    if not {"method", "sigma", "error", "work_units"} <= fields.keys():
        raise ValueError("estimate output lacks a field")
    return fields


class Checker:
    """Checks CLI calls of one run against the generated instances."""

    def __init__(self, insts, seed: int):
        self.insts = insts
        self.seed = seed
        self.first: dict[tuple[str, int], str] = {}
        self._mc: dict[tuple, tuple[float, float]] = {}
        self._exact: dict[tuple, float] = {}

    def exact_reference(self, k: int, removed=()) -> float:
        key = (k, tuple(sorted(removed)))
        if key not in self._exact:
            self._exact[key] = reference.exact_sigma(self.insts[k], key[1])
        return self._exact[key]

    def mc_reference(self, k: int, removed=(), trials: int = MC_REFERENCE_TRIALS):
        """(mean, standard error) of a fixed-seed reference MC run."""
        key = (k, tuple(sorted(removed)), trials)
        if key not in self._mc:
            self._mc[key] = reference.mc_sigma(
                self.insts[k], key[1], trials, seed=self.seed + 7919 * (k + 1)
            )
        return self._mc[key]

    def op_problems(self, op: dict) -> list[str]:
        if op["error"] is not None or op["rc"] != 0:
            return [f"exit {op['rc']} {op['error'] or ''} {op['stderr'].strip()[-200:]}".strip()]
        key = (op["kind"], op["inst"])
        first = self.first.setdefault(key, op["stdout"])
        problems = [] if op["stdout"] == first else ["stdout differs from an identical earlier call"]
        inst = self.insts[op["inst"]]
        if op["kind"] == "contain":
            problems += plan_problems(inst, op["stdout"])
            traced = op.get("traced_accounting")
            if traced and not problems:
                printed = parse_plan(op["stdout"])[2]
                problems += [
                    f"traced {f}={v} but printed {printed[f]}"
                    for f, v in traced.items() if v is not None and v != printed[f]
                ]
            return problems
        try:
            est = parse_estimate(op["stdout"])
            sigma = float(est["sigma"])
        except ValueError as exc:
            return problems + [str(exc)]
        return problems + self.estimate_problems(op["inst"], est["method"], sigma, est["error"])

    def estimate_problems(self, k: int, method: str, sigma: float, error: str) -> list[str]:
        inst = self.insts[k]
        if method == "mc":
            ref, ref_se = self.mc_reference(k, trials=MC_CHECK_TRIALS)
            se = math.hypot(float(error), ref_se)
            if abs(sigma - ref) > SE_TOLERANCE * se:
                return [f"MC sigma {sigma} is more than 5 SE from reference {ref}"]
        elif method == "exact":
            ref, ref_se = self.mc_reference(k)
            if abs(sigma - ref) > SE_TOLERANCE * ref_se:
                return [f"exact sigma {sigma} is more than 5 SE from MC reference {ref}"]
            if abs(sigma - self.exact_reference(k)) > 1e-9 * inst.nodes:
                return [f"exact sigma {sigma} differs from the reference enumeration"]
        elif method == "qae":
            if not len(inst.seeds) <= sigma <= inst.nodes:
                return [f"QAE sigma {sigma} outside [seeds, nodes]"]
        else:
            return [f"unexpected method {method!r}"]
        return []

    def plan_objective(self, k: int, removed) -> float:
        """Objective of a plan, re-evaluated by the reference estimator."""
        inst = self.insts[k]
        if len(reference.kept(inst, removed)) <= reference.EXACT_MAX_ARCS:
            sigma = self.exact_reference(k, removed)
        else:
            sigma = self.mc_reference(k, removed)[0]
        return reference.objective(inst, removed, sigma)


def qae_mode_problems(parsed, epsilon: float, seeds) -> list[str]:
    """``qae_estimate`` must return the same a_hat in statevector and analytic mode."""
    try:
        from qcontain.qae import qae_estimate
    except ImportError:
        return []  # recorded as absent by the traced run
    m = math.ceil(math.log2(math.pi / epsilon)) + 2
    problems = []
    for k, inst in enumerate(parsed):
        for s in seeds:
            try:
                sv = qae_estimate(inst, (), m=m, rng_seed=s, mode="statevector").a_hat
                an = qae_estimate(inst, (), m=m, rng_seed=s, mode="analytic").a_hat
            except Exception as exc:  # a failed check is reported, not a crash
                problems.append(f"instance {k} seed {s}: qae_estimate raised {exc!r}")
                continue
            if sv != an:
                problems.append(f"instance {k} seed {s}: statevector a_hat {sv} != analytic {an}")
    return problems
