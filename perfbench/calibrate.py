"""Machine-speed calibration for the end-to-end timings.

The benchmark's host is a shared 2-vCPU machine whose speed drifts by up to
half between runs, and by a fifth within seconds, as other tenants load it.
CPU time drifts with wall time, so the cause is slower execution, not time
stolen from the process. A fixed kernel of the benchmark's own code, run
every ``PERIOD_S`` during the measured calls, tracks that drift: dividing
each call's wall time by the kernel times around it cut the spread of
2.5-second medians from 14-19% to 2-4% on all three workloads, and that of
repeated 6-second plans from 12% to 4%.

The kernel is the reference Monte Carlo estimator on a fixed 18-arc
instance. It is numpy work on small arrays driven by a Python loop, like
the package's own kernels, and it never changes with the package.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

import instances
import reference

KERNEL_INSTANCE = instances.seeded_path_digraph(
    np.random.default_rng(0), nodes=9, arcs=18, seed_out=2, lam=0.7,
    p_range=(0.1, 0.6), i_range=(0.0, 0.2),
)
KERNEL_TRIALS = 3000
# Seconds one kernel run takes at the reference speed. Calibrated times are
# wall times rescaled to that speed; on the VM above, at its faster times,
# they read close to wall seconds.
REFERENCE_S = 1.0e-3
PERIOD_S = 0.1
WINDOW_S = 0.5


def sample() -> tuple[float, float]:
    """(time at the end of the run, seconds) of one kernel run."""
    t0 = perf_counter()
    reference.mc_sigma(KERNEL_INSTANCE, (), KERNEL_TRIALS, seed=0)
    t1 = perf_counter()
    return t1, t1 - t0


class Sampler:
    """Runs the kernel from a SIGALRM handler every PERIOD_S while active.

    The handler runs between bytecodes of whatever call is being measured;
    ``paused`` adds up the seconds it took, so callers subtract them.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(sample())
        self.paused += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def calibrated(op: dict, samples) -> float:
    """A call's own seconds rescaled by the kernel runs within WINDOW_S of it."""
    near = [s for t, s in samples if op["start"] - WINDOW_S <= t <= op["end"] + WINDOW_S]
    if not near:
        raise ValueError("no calibration sample near a measured call")
    return op["wall"] * REFERENCE_S / statistics.median(near)
