"""Minimal dense statevector simulator.

States are 1-D complex numpy arrays of length 2^n; qubit 0 is the least
significant bit of the basis index. All operations return new arrays and
leave their input untouched.

Qubits are addressed by reshaping, not by basis-index arrays. A gate on qubit
q views the state as (2^(n-1-q), 2, 2^q), so axis 1 is the qubit and each
(high, low) cell of the other two axes is one amplitude pair. A register of
the contiguous qubits [lo, lo + m) is the axis of length 2^m in the view
(2^(n-lo-m), 2^m, 2^lo). Classical oracles enter as arrays over these views
(rotation angles per pair) or as a boolean mask over the basis states (phase
flips), which keeps them exactly unitary without reversible-logic synthesis.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

MAX_QUBITS = 24


def n_qubits_of(state: np.ndarray) -> int:
    n = len(state).bit_length() - 1
    if n < 0 or 1 << n != len(state):
        raise ValueError("state length is not a power of two")
    return n


def init_state(n_qubits: int) -> np.ndarray:
    if not (1 <= n_qubits <= MAX_QUBITS):
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _pair_view(state: np.ndarray, qubit: int) -> np.ndarray:
    """``state`` as (2^(n-1-qubit), 2, 2^qubit): axis 1 is ``qubit``."""
    if not (0 <= qubit < n_qubits_of(state)):
        raise ValueError("qubit index out of range")
    return state.reshape(-1, 2, 1 << qubit)


def _apply_1q(state: np.ndarray, qubit: int, matrix) -> np.ndarray:
    """Mix each amplitude pair of ``qubit`` by the 2x2 ``matrix``, given as nested
    tuples whose entries are scalars or arrays over the (high, low) pair grid."""
    pairs = _pair_view(state, qubit)
    (m00, m01), (m10, m11) = matrix
    a0, a1 = pairs[:, 0], pairs[:, 1]
    out = np.empty_like(pairs)
    out[:, 0] = m00 * a0 + m01 * a1
    out[:, 1] = m10 * a0 + m11 * a1
    return out.reshape(-1)


_H = tuple(map(tuple, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)))
_X = tuple(map(tuple, np.array([[0, 1], [1, 0]], dtype=complex)))


def _ry(angle):
    """Ry(angle) in the nested form ``_apply_1q`` takes; ``angle`` may be an array."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return (c, -s), (s, c)


def apply_h(state: np.ndarray, qubit: int) -> np.ndarray:
    return _apply_1q(state, qubit, _H)


def apply_x(state: np.ndarray, qubit: int) -> np.ndarray:
    return _apply_1q(state, qubit, _X)


def apply_ry(state: np.ndarray, qubit: int, angle: float) -> np.ndarray:
    return _apply_1q(state, qubit, _ry(angle))


def apply_ry_indexed(state: np.ndarray, qubit: int, angles: np.ndarray) -> np.ndarray:
    """Ry on ``qubit`` with one angle per amplitude pair.

    ``angles`` broadcasts over the (2^(n-1-qubit), 2^qubit) grid of pairs: an
    array of length 2^qubit gives each value of the qubits below ``qubit`` its
    angle, whatever the qubits above it hold.
    """
    return _apply_1q(state, qubit, _ry(np.asarray(angles, dtype=float)))


def phase_flip_if(state: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Multiply by -1 every amplitude whose basis index is set in the boolean mask."""
    out = state.copy()
    out[mask] *= -1
    return out


def _register_view(state: np.ndarray, register: Sequence[int]) -> np.ndarray:
    """``state`` as (2^(n-lo-m), 2^m, 2^lo) for the register [lo, lo + m), whose
    first qubit is the least significant bit of its value."""
    n = n_qubits_of(state)
    lo, m = min(register, default=0), len(register)
    if not (m and 0 <= lo and lo + m <= n and list(register) == list(range(lo, lo + m))):
        raise ValueError("register must be a non-empty ascending run of qubits")
    return state.reshape(-1, 1 << m, 1 << lo)


def diffusion(state: np.ndarray) -> np.ndarray:
    """Reflect amplitudes about their mean: 2|s><s| - I."""
    return 2 * state.mean() - state


def qft(state: np.ndarray, register: Sequence[int]) -> np.ndarray:
    # the QFT's exp(+2 pi i k y / M) is numpy's inverse FFT sign
    return np.fft.ifft(_register_view(state, register), axis=1, norm="ortho").reshape(-1)


def inverse_qft(state: np.ndarray, register: Sequence[int]) -> np.ndarray:
    return np.fft.fft(_register_view(state, register), axis=1, norm="ortho").reshape(-1)


def probability_of(state: np.ndarray, qubit: int, outcome: int) -> float:
    return float(np.sum(np.abs(_pair_view(state, qubit)[:, outcome]) ** 2))


def register_distribution(state: np.ndarray) -> np.ndarray:
    """Measurement distribution over the basis states."""
    return np.abs(state) ** 2
