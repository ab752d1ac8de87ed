"""The benchmark's workloads: instance family and CLI flags for each.

Every workload is a closed loop with one client: one ``contain`` or
``estimate`` call at a time, in one process. Why each exists is recorded in
BENCHMARK.json and README.md.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

import instances as gen


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[np.random.Generator], gen.Instance]
    instances: int  # distinct instances planned per run, in turn
    estimate_pool: int  # distinct instances estimated per run; the first ones are planned too
    contain: tuple[str, ...]
    estimate: tuple[str, ...]

    @property
    def epsilon(self) -> float | None:
        """The stated QAE accuracy, if the workload runs QAE."""
        flags = self.estimate
        return float(flags[flags.index("--epsilon") + 1]) if "--epsilon" in flags else None

    def argv(self, command: str, path: str, rng: int) -> list[str]:
        flags = self.contain if command == "contain" else self.estimate
        return [command, "--instance", path, *flags, "--rng", str(rng)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-greedy",
            make=partial(gen.uplinked_core, nodes=40, degree=4, uplinks=3, lam=0.7,
                         p_range=(0.1, 0.6), i_range=(0.0, 0.2)),
            instances=3,
            estimate_pool=12,
            contain=("--estimator", "mc", "--trials", "2000", "--finder", "linear", "--k-max", "3"),
            estimate=("--method", "mc", "--trials", "2000"),
        ),
        Workload(
            name="exact-gmf",
            make=partial(gen.seeded_path_digraph, nodes=9, arcs=18, seed_out=2, lam=0.7,
                         p_range=(0.1, 0.6), i_range=(0.0, 0.2)),
            instances=8,
            estimate_pool=8,
            contain=("--estimator", "exact", "--finder", "gmf", "--k-max", "3"),
            estimate=("--method", "exact"),
        ),
        Workload(
            name="qae-statevector",
            make=partial(gen.gateway_digraph, nodes=6, arcs=6, lam=0.9,
                         p_range=(0.9, 1.0), i_range=(0.0, 0.2)),
            instances=4,
            estimate_pool=4,
            contain=("--estimator", "qae", "--epsilon", "0.2", "--finder", "linear", "--k-max", "3"),
            estimate=("--method", "qae", "--epsilon", "0.2"),
        ),
    )
}

# Tiny variants for the self-test: the same code paths at a fraction of the cost.
TINY = {
    "mc-greedy": replace(
        WORKLOADS["mc-greedy"],
        make=partial(gen.uplinked_core, nodes=8, degree=2, uplinks=2, lam=0.7,
                     p_range=(0.1, 0.6), i_range=(0.0, 0.2)),
        instances=2,
        estimate_pool=3,
        contain=("--estimator", "mc", "--trials", "200", "--finder", "linear", "--k-max", "2"),
        estimate=("--method", "mc", "--trials", "200"),
    ),
    "exact-gmf": replace(
        WORKLOADS["exact-gmf"],
        make=partial(gen.seeded_path_digraph, nodes=5, arcs=8, seed_out=2, lam=0.7,
                     p_range=(0.1, 0.6), i_range=(0.0, 0.2)),
        instances=2,
        estimate_pool=2,
    ),
    "qae-statevector": replace(
        WORKLOADS["qae-statevector"],
        make=partial(gen.gateway_digraph, nodes=4, arcs=4, lam=0.7,
                     p_range=(0.9, 1.0), i_range=(0.0, 0.2)),
        instances=2,
        estimate_pool=2,
        contain=("--estimator", "qae", "--epsilon", "0.4", "--finder", "linear", "--k-max", "2"),
        estimate=("--method", "qae", "--epsilon", "0.4"),
    ),
}


def instances_for(workload: Workload, seed: int) -> list[gen.Instance]:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return [workload.make(rng) for _ in range(workload.estimate_pool)]


def cli_seed(seed: int) -> int:
    """The ``--rng`` value handed to the CLI, derived from the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(1)[0] >> 1)
