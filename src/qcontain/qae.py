"""Quantum Amplitude Estimation of expected influence.

The A operator prepares a superposition over live-edge configurations (one
qubit per remaining edge, rotated so P(1) = p_e) and rotates a success
ancilla so its P(1) equals the normalized influence a = sigma / |V|. The
Grover operator Q rotates by 2*theta (a = sin^2 theta) in the invariant
plane, and canonical phase estimation on Q reads theta off the m-qubit grid.

Two interchangeable modes:

* ``statevector`` -- simulates phase estimation on the edge+ancilla system
  register. The evaluation register only controls Q, so the state before the
  inverse QFT is built directly as a block of M = 2^m rows Q^y|psi>/sqrt(M)
  instead of running the controlled-Q ladder. The block holds as many
  amplitudes as the full s+m qubit register, so evaluation qubits still count
  toward the qubit cap.
* ``analytic`` -- computes a exactly with the exact oracle and runs the same
  readout on the two coordinates of the plane Q rotates; identical output
  contract, no statevector, so it is bound by the exact oracle's work budget
  and the evaluation-register cap, not by the qubit cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import asin, ceil, log2, pi, sqrt

import numpy as np

from . import qsim
from .cascade import InfluenceEstimate, exact_influence, live_edge_reachability
from .graph import ProblemInstance

QPE_REPETITIONS = 3


@dataclass(frozen=True)
class AOperatorSpec:
    n_edge_qubits: int
    ancilla: int
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


def build_a_operator(instance: ProblemInstance, eval_qubits: int = 0) -> AOperatorSpec:
    """A operator for ``instance``, one edge qubit per arc of its graph.

    The qubit cap covers the edge qubits, the ancilla and the ``eval_qubits``
    of phase estimation, and is checked before the f_table is enumerated.
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
    f_table = live_edge_reachability(g, instance.seeds) / g.node_count
    angles = tuple(2.0 * asin(sqrt(e.p)) for e in g.edges)
    return AOperatorSpec(
        n_edge_qubits=n_edges,
        ancilla=n_edges,
        edge_angles=angles,
        f_table=f_table,
    )


def apply_a(state: np.ndarray, spec: AOperatorSpec) -> np.ndarray:
    """Apply A to the low edge+ancilla qubits of ``state``."""
    for q, angle in enumerate(spec.edge_angles):
        state = qsim.apply_ry(state, q, angle)
    mask = (1 << spec.n_edge_qubits) - 1
    theta = 2.0 * np.arcsin(np.sqrt(spec.f_table))
    return qsim.apply_ry_indexed(state, spec.ancilla, lambda ix: theta[ix & mask])


def build_q_operator(psi: np.ndarray):
    """The amplitude-amplification operator Q as a function on system states.

    Q = (2|psi><psi| - I) S_f with |psi> = A|0>, i.e. the sign convention
    under which Q has eigenvalues e^{+-2i theta} and phase estimation reads
    theta/pi directly. A (2|0><0| - I) A^dagger is the reflection about psi,
    so Q is applied as 2 psi <psi|S_f v> - S_f v without undoing A.
    """
    # the ancilla is the top qubit, so S_f flips the upper half of the state
    good = len(psi) // 2

    def apply_q(state: np.ndarray) -> np.ndarray:
        flipped = state.copy()
        flipped[good:] *= -1
        return 2 * np.vdot(psi, flipped) * psi - flipped

    return apply_q


def _readout(block: np.ndarray) -> np.ndarray:
    """Outcome distribution from the state before the inverse QFT; row y pairs with outcome y."""
    # numpy's forward FFT has the inverse QFT's sign, exp(-2 pi i k y / M)
    block = np.fft.fft(block, axis=0) / sqrt(len(block))
    return np.sum(np.abs(block) ** 2, axis=1)


def qpe_outcome_distribution(a: float, m: int) -> np.ndarray:
    """Exact phase-estimation outcome distribution for amplitude a.

    A|0> = cos(theta)|bad> + sin(theta)|good> with a = sin^2 theta, and Q
    rotates the (bad, good) plane by 2 theta, so Q^y A|0> has coordinates
    (cos, sin)((2y + 1) theta) there. The readout is the statevector one on
    these 2 coordinates instead of 2^s.
    """
    dim = 1 << m
    angles = (2 * np.arange(dim) + 1) * asin(sqrt(a))
    return _readout(np.stack([np.cos(angles), np.sin(angles)], axis=1) / sqrt(dim))


def _statevector_qpe_distribution(spec: AOperatorSpec, m: int) -> np.ndarray:
    """Phase-estimation readout distribution, evaluated in blocks.

    The evaluation register only controls Q, so before the inverse QFT the
    state is sum_y |y> Q^y |psi> / sqrt(M). Row y of the (M, 2^s) block holds
    Q^y psi / sqrt(M). The block holds the same 2^(s+m) amplitudes as the
    full register, hence the s + m qubit cap that
    ``build_a_operator(eval_qubits=m)`` checks.
    """
    psi = apply_a(qsim.init_state(spec.n_qubits), spec)
    apply_q = build_q_operator(psi)
    dim = 1 << m
    block = np.empty((dim, len(psi)), dtype=complex)
    block[0] = psi / sqrt(dim)
    for y in range(1, dim):
        block[y] = apply_q(block[y - 1])
    return _readout(block)


def check_evaluation_qubits(m: int) -> None:
    """Reject an evaluation register outside [1, MAX_QUBITS] qubits."""
    if not (1 <= m <= qsim.MAX_QUBITS):
        raise ValueError(f"evaluation qubits m = {m} must be in [1, {qsim.MAX_QUBITS}]")


def qae_estimate(
    instance: ProblemInstance,
    removal: tuple[int, ...] = (),
    m: int = 4,
    rng_seed: int | np.random.Generator = 0,
    mode: str = "statevector",
) -> AmplitudeEstimate:
    check_evaluation_qubits(m)
    rng = np.random.default_rng(rng_seed)
    sub = instance.without_edges(removal)
    if mode == "statevector":
        dist = _statevector_qpe_distribution(build_a_operator(sub, eval_qubits=m), m)
    elif mode == "analytic":
        dist = qpe_outcome_distribution(exact_influence(sub).sigma / sub.graph.node_count, m)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = int(rng.choice(1 << m, p=dist))
    q_apps = (1 << m) - 1
    return AmplitudeEstimate(
        a_hat=float(np.sin(pi * y / (1 << m)) ** 2),
        q_applications=q_apps,
        a_applications=2 * q_apps + 1,
    )


def evaluation_qubits_for(epsilon: float) -> int:
    """Grid fine enough for additive error epsilon, with two guard qubits."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    return ceil(log2(pi / epsilon)) + 2


def qae_influence(
    instance: ProblemInstance,
    removal: tuple[int, ...] = (),
    epsilon: float = 0.05,
    rng_seed: int = 0,
    mode: str = "statevector",
) -> InfluenceEstimate:
    m = evaluation_qubits_for(epsilon)
    rng = np.random.default_rng(rng_seed)
    estimates = [
        qae_estimate(instance, removal, m=m, rng_seed=rng, mode=mode)
        for _ in range(QPE_REPETITIONS)
    ]
    a_hat = float(np.median([e.a_hat for e in estimates]))
    n = instance.graph.node_count
    n_seeds = len(instance.seeds)
    sigma = min(max(a_hat * n, float(n_seeds)), float(n))
    return InfluenceEstimate(
        sigma=sigma,
        std_error=epsilon * n,
        trials_or_calls=sum(e.q_applications for e in estimates),
    )
