"""Reference phase estimation on the full statevector block.

The evaluation register only controls Q, so the state before the inverse
QFT is sum_y |y> Q^y |psi> / sqrt(M). Row y of the (M, 2^s) block holds
Q^y psi / sqrt(M), written in place from row y - 1 by one ``apply_q``, and
the readout runs the inverse QFT down the rows. The tests compare
``qae._statevector_qpe_distribution``, which reads the same distribution
from the angle between psi's good and bad parts, against this block.

``apply_a`` applies A gate by gate, one Ry per edge qubit and the
ancilla's indexed Ry. The tests check ``qae.a_state``, which writes A|0> as
a product state, against it bit for bit.

``grover_distribution`` is the Grover search circuit, against which the
tests check the closed form that ``gmf.grover_search`` samples.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

from qcontain import qsim
from qcontain.qae import AOperatorSpec


def apply_a(state: np.ndarray, spec: AOperatorSpec) -> np.ndarray:
    """Apply A gate by gate to the low edge+ancilla qubits of ``state``: one Ry
    per edge qubit, in qubit order, then the ancilla's Ry with one angle per
    edge configuration, whatever any qubits above the ancilla hold."""
    for q, angle in enumerate(spec.edge_angles):
        state = qsim.apply_ry(state, q, angle)
    return qsim.apply_ry_indexed(state, spec.n_edge_qubits, 2.0 * np.arcsin(np.sqrt(spec.f_table)))


def build_q_operator(psi: np.ndarray):
    """The amplitude-amplification operator Q as a function on system states.

    Q = (2|psi><psi| - I) S_f with |psi> = A|0>, i.e. the sign convention
    under which Q has eigenvalues e^{+-2i theta} and phase estimation reads
    theta/pi directly. A (2|0><0| - I) A^dagger is the reflection about psi,
    so Q is applied as 2 psi <psi|S_f v> - S_f v without undoing A.

    ``apply_q(state, out=None)`` writes Q state into ``out`` (a new array if
    None) and returns it.
    """
    # the ancilla is the top qubit, so S_f flips the sign of the upper half
    sign = np.ones(len(psi), dtype=complex)
    sign[len(psi) // 2:] = -1

    def apply_q(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(state, sign, out=out)
        return np.subtract(2 * np.vdot(psi, out) * psi, out, out=out)

    return apply_q


def readout(block: np.ndarray) -> np.ndarray:
    """Outcome distribution from the state before the inverse QFT; row y pairs with outcome y."""
    # numpy's forward FFT has the inverse QFT's sign, exp(-2 pi i k y / M)
    block = np.fft.fft(block, axis=0)
    block /= sqrt(len(block))
    return np.sum(np.abs(block) ** 2, axis=1)


def row_loop_qpe_distribution(spec: AOperatorSpec, m: int) -> np.ndarray:
    """The readout of the (M, 2^s) block, its rows filled in place by ``apply_q``."""
    psi = apply_a(qsim.init_state(spec.n_qubits), spec)
    apply_q = build_q_operator(psi)
    dim = 1 << m
    block = np.empty((dim, len(psi)), dtype=complex)
    block[0] = psi / sqrt(dim)
    for prev, row in zip(block, block[1:]):
        apply_q(prev, out=row)
    return readout(block)


def grover_distribution(marked: np.ndarray, iterations: int) -> np.ndarray:
    """Outcome distribution of ``iterations`` Grover iterations on the uniform
    superposition over the ``len(marked)`` (a power of two) indices."""
    n_qubits = len(marked).bit_length() - 1
    state = qsim.init_state(n_qubits)
    for q in range(n_qubits):
        state = qsim.apply_h(state, q)
    for _ in range(iterations):
        state = qsim.phase_flip_if(state, marked)
        state = qsim.diffusion(state)
    return qsim.register_distribution(state)
