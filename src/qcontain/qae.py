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
* ``analytic`` -- computes a exactly with the exact oracle and samples the
  phase-estimation outcome from its closed-form distribution; identical
  output contract, no statevector, so it is not bound by the qubit cap, only
  by the exact oracle's work budget.
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
    theta_hat: float
    m: int
    q_applications: int
    a_applications: int
    mode: str


def build_a_operator(
    instance: ProblemInstance,
    removal: tuple[int, ...] = (),
    eval_qubits: int = 0,
) -> AOperatorSpec:
    """A operator for the instance without ``removal``.

    The qubit cap covers the edge qubits, the ancilla and the ``eval_qubits``
    of phase estimation, and is checked before the f_table is enumerated.
    """
    sub = instance.without_edges(removal)
    g = sub.graph
    n_edges = len(g.edges)
    needed = n_edges + 1 + eval_qubits
    if needed > qsim.MAX_QUBITS:
        raise ValueError(
            f"statevector QAE needs {needed} qubits ({n_edges} edges + 1 ancilla + "
            f"{eval_qubits} evaluation) > cap {qsim.MAX_QUBITS}; "
            "rerun with --analytic to use the closed-form sampler"
        )
    f_table = live_edge_reachability(g, sub.seeds) / g.node_count
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


def qpe_outcome_distribution(a: float, m: int) -> np.ndarray:
    """Exact phase-estimation outcome distribution for amplitude a.

    A|0> splits evenly between the two Q eigenvectors with eigenphases
    +-theta/pi; the readout is the matching mixture of Fejer-type kernels.
    """
    theta = asin(sqrt(a))
    dim = 1 << m
    y = np.arange(dim)
    phis = [theta / pi % 1.0]
    weights = [1.0]
    if 0.0 < a < 1.0:
        phis = [theta / pi % 1.0, (-theta / pi) % 1.0]
        weights = [0.5, 0.5]
    dist = np.zeros(dim)
    for phi, w in zip(phis, weights):
        delta = phi - y / dim
        num = np.sin(pi * dim * delta)
        den = dim * np.sin(pi * delta)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.where(np.abs(den) < 1e-12, 1.0, (num / np.where(den == 0, 1, den)) ** 2)
        dist += w * kernel
    return dist / dist.sum()


def _statevector_qpe_distribution(spec: AOperatorSpec, m: int) -> np.ndarray:
    """Phase-estimation readout distribution, evaluated in blocks.

    The evaluation register only controls Q, so before the inverse QFT the
    state is sum_y |y> Q^y |psi> / sqrt(M). Row y of the (M, 2^s) block holds
    Q^y psi / sqrt(M); the inverse DFT runs down the rows. The block holds the
    same 2^(s+m) amplitudes as the full register, hence the s + m qubit cap
    that ``build_a_operator(eval_qubits=m)`` checks.
    """
    psi = apply_a(qsim.init_state(spec.n_qubits), spec)
    apply_q = build_q_operator(psi)
    dim = 1 << m
    block = np.empty((dim, len(psi)), dtype=complex)
    block[0] = psi / sqrt(dim)
    for y in range(1, dim):
        block[y] = apply_q(block[y - 1])
    # numpy's forward FFT has the inverse QFT's sign, exp(-2 pi i k y / M)
    block = np.fft.fft(block, axis=0) / sqrt(dim)
    return np.sum(np.abs(block) ** 2, axis=1)


def qae_estimate(
    instance: ProblemInstance,
    removal: tuple[int, ...] = (),
    m: int = 4,
    rng_seed: int | np.random.Generator = 0,
    mode: str = "statevector",
) -> AmplitudeEstimate:
    if not (1 <= m <= qsim.MAX_QUBITS):
        raise ValueError(f"evaluation qubits m = {m} must be in [1, {qsim.MAX_QUBITS}]")
    rng = np.random.default_rng(rng_seed)
    if mode == "statevector":
        spec = build_a_operator(instance, removal, eval_qubits=m)
        dist = _statevector_qpe_distribution(spec, m)
    elif mode == "analytic":
        sub = instance.without_edges(removal)
        a = exact_influence(sub).sigma / sub.graph.node_count
        dist = qpe_outcome_distribution(a, m)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = int(rng.choice(1 << m, p=dist))
    theta_hat = pi * y / (1 << m)
    a_hat = float(np.sin(theta_hat) ** 2)
    q_apps = (1 << m) - 1
    return AmplitudeEstimate(
        a_hat=a_hat,
        theta_hat=theta_hat,
        m=m,
        q_applications=q_apps,
        a_applications=2 * q_apps + 1,
        mode=mode,
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
        sigma_normalized=sigma / n,
        std_error=epsilon * n,
        trials_or_calls=sum(e.q_applications for e in estimates),
        method="qae",
    )
