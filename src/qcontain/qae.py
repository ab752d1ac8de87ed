"""Quantum Amplitude Estimation of expected influence.

The A operator prepares a superposition over live-edge configurations (one
qubit per remaining edge, rotated so P(1) = p_e) and rotates a success
ancilla so its P(1) equals the normalized influence a = sigma / |V|. The
Grover operator Q rotates by 2*theta (a = sin^2 theta) in the invariant
plane, and canonical phase estimation on Q reads theta off the m-qubit grid.

Two interchangeable modes:

* ``statevector`` -- writes A|0> on the edge+ancilla register as the product
  state its rotations make, bit for bit the state the Ry gates give, and
  reads phase estimation on Q from the angle between its good (ancilla 1)
  and bad parts, the plane Q keeps it in. The evaluation qubits still count
  toward the qubit cap, as they would in the full s+m qubit register.
* ``analytic`` -- computes a with the exact oracle, on the instance's arcs
  with the removal dead, and runs the same readout; no statevector, so it
  is bound by the exact oracle's work budget and the evaluation cap.

One estimate builds its outcome distribution once, draws every repetition
from it in one call and counts its own Q and A applications;
``qae_influence`` only converts it. ``build_a_operator`` cuts a removal's A
operator from the instance's count table; nothing else outlives the call.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import asin, atan2, ceil, inf, log2, pi, sqrt
from statistics import median

import numpy as np

from . import qsim
from .cascade import InfluenceEstimate, exact_influence
from .graph import ProblemInstance, closed_removal

QPE_REPETITIONS = 3


@dataclass(frozen=True)
class AOperatorSpec:
    # the edge qubits are 0 .. n_edge_qubits - 1 and the ancilla is the next one
    n_edge_qubits: int
    edge_angles: tuple[float, ...]
    # fraction of infected nodes per edge-configuration basis index
    f_table: np.ndarray

    @property
    def n_qubits(self) -> int:
        return self.n_edge_qubits + 1


@dataclass(frozen=True)
class AmplitudeEstimate:
    a_hat: float
    q_applications: int
    a_applications: int


def build_a_operator(
    instance: ProblemInstance, removal: tuple[int, ...], eval_qubits: int
) -> AOperatorSpec:
    """A operator of ``instance`` without ``removal``, one edge qubit per arc left.

    The cap on the intact instance's edge qubits, the ancilla and the
    ``eval_qubits`` is checked before the count table is read. The removed
    arcs' qubits are dropped from it, highest first, keeping their dead half.
    """
    g = instance.graph
    n_edges = len(g.edges)
    needed = n_edges + 1 + eval_qubits
    if needed > qsim.MAX_QUBITS:
        raise ValueError(
            f"statevector QAE needs {needed} qubits ({n_edges} edges + 1 ancilla + "
            f"{eval_qubits} evaluation) > cap {qsim.MAX_QUBITS}; "
            "rerun with --analytic, which simulates no statevector"
        )
    gone = closed_removal(g, removal)
    f_table = instance.live_counts / g.node_count
    for k in sorted(gone, reverse=True):
        f_table = f_table.reshape(-1, 2, 1 << k)[:, 0, :].reshape(-1)
    angles = tuple(2.0 * asin(sqrt(e.p)) for k, e in enumerate(g.edges) if k not in gone)
    return AOperatorSpec(len(angles), angles, f_table)


def a_state(spec: AOperatorSpec) -> np.ndarray:
    """psi = A|0> on the edge+ancilla qubits, the product its rotations make."""
    psi = qsim.init_state(spec.n_qubits)
    amps = np.ones(1)
    for angle in spec.edge_angles:
        amps = np.multiply.outer((np.cos(angle / 2), np.sin(angle / 2)), amps).reshape(-1)
    rot = 2.0 * np.arcsin(np.sqrt(spec.f_table))
    psi[: len(amps)] = np.cos(rot / 2) * amps
    psi[len(amps):] = np.sin(rot / 2) * amps
    return psi


def qpe_outcome_distribution(a: float, m: int) -> np.ndarray:
    """Exact phase-estimation outcome distribution for a = sin^2 theta; an a rounded past 1 reads as 1."""
    return _plane_readout(asin(sqrt(min(a, 1.0))), m)


def _plane_readout(theta: float, m: int) -> np.ndarray:
    """Phase-estimation outcome distribution of A|0> = cos(theta)|bad> + sin(theta)|good>.

    Q rotates the (bad, good) plane by 2 theta, so row y of the state before
    the inverse QFT, Q^y A|0> / sqrt(M), has the coordinates
    (cos, sin)((2y + 1) theta) / sqrt(M). Each column goes through the inverse
    QFT in turn, and outcome y gets the squared moduli of row y.
    """
    dim = 1 << m
    angles = (2 * np.arange(dim) + 1) * theta
    dist = np.zeros(dim)
    for column in (np.cos, np.sin):
        amps = column(angles)
        amps /= sqrt(dim)
        # numpy's forward FFT has the inverse QFT's sign, exp(-2 pi i k y / M)
        amps = np.fft.fft(amps)
        amps /= sqrt(dim)
        dist += np.abs(amps) ** 2
    return dist


def _statevector_qpe_distribution(spec: AOperatorSpec, m: int) -> np.ndarray:
    """Phase-estimation readout distribution of psi = A|0>.

    ``a_state`` multiplies out the (cos, sin) of each edge qubit's half angle
    in qubit order, then splits the product by the ancilla's. That is the Ry
    gates' float product bit for bit: when qubit k's gate runs, every
    amplitude with qubit k set is 0, so its other term is an exact zero, and
    no factor is negative. Q = (2|psi><psi| - I) S_f keeps psi in the plane of
    its good (ancilla 1) and bad parts, so the readout is the plane's, at the
    angle of the two norms; asin(sqrt(a)) would fail where the sum rounds past 1.
    """
    bad, good = a_state(spec).reshape(2, -1)
    return _plane_readout(atan2(np.linalg.norm(good), np.linalg.norm(bad)), m)


def check_evaluation_qubits(m: int) -> None:
    """Reject an evaluation register outside [1, MAX_QUBITS] qubits."""
    if not (1 <= m <= qsim.MAX_QUBITS):
        raise ValueError(f"evaluation qubits m = {m} must be in [1, {qsim.MAX_QUBITS}]")


def read_estimate(dist: np.ndarray, rng: np.random.Generator, runs: int) -> AmplitudeEstimate:
    """``runs`` phase-estimation runs drawn from ``dist`` in one call: outcome y
    of M gives sin^2(pi y / M) after M - 1 applications of Q, and the estimate
    is the median, with every run's Q and A applications."""
    dim = len(dist)
    ys = rng.choice(dim, size=runs, p=dist)
    q_apps = runs * (dim - 1)
    return AmplitudeEstimate(
        a_hat=median(float(np.sin(pi * int(y) / dim) ** 2) for y in ys),
        q_applications=q_apps,
        a_applications=2 * q_apps + runs,
    )


def qae_estimate(
    instance: ProblemInstance,
    removal: tuple[int, ...],
    *,
    m: int,
    rng_seed: int | np.random.Generator,
    mode: str,
) -> AmplitudeEstimate:
    """One amplitude estimate of ``instance`` without ``removal``: ``QPE_REPETITIONS``
    runs drawn on one generator from the one outcome distribution built here."""
    check_evaluation_qubits(m)
    if mode == "statevector":
        dist = _statevector_qpe_distribution(build_a_operator(instance, removal, m), m)
    elif mode == "analytic":
        a = exact_influence(instance, removal).sigma / instance.graph.node_count
        dist = qpe_outcome_distribution(a, m)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return read_estimate(dist, np.random.default_rng(rng_seed), QPE_REPETITIONS)


def evaluation_qubits_for(epsilon: float) -> int:
    """Grid fine enough for additive error epsilon, with two guard qubits."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    if pi / epsilon == inf:
        raise ValueError(f"epsilon {epsilon!r} is too small: pi / epsilon overflows a float")
    return ceil(log2(pi / epsilon)) + 2


def qae_influence(
    instance: ProblemInstance, estimate: AmplitudeEstimate, epsilon: float
) -> InfluenceEstimate:
    """``estimate`` as an influence: sigma = a_hat |V| clamped to [|seeds|, |V|],
    with the requested error epsilon |V| and the estimate's Q applications as work."""
    n = instance.graph.node_count
    sigma = min(max(estimate.a_hat * n, float(len(instance.seeds))), float(n))
    return InfluenceEstimate(
        sigma=sigma, std_error=epsilon * n, trials_or_calls=estimate.q_applications
    )
