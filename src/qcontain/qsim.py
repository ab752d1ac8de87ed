"""Minimal dense statevector simulator.

States are 1-D complex numpy arrays of length 2^n; qubit 0 is the least
significant bit of the basis index. All operations return new arrays and
leave their input untouched.

Basis-index-conditioned operations (phase flips from a mask, rotations
whose angle is a function of the basis index) are applied by direct iteration
over amplitudes; this implements classical oracles without reversible-logic
synthesis while staying exactly unitary.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

MAX_QUBITS = 24


def n_qubits_of(state: np.ndarray) -> int:
    n = int(np.log2(len(state)))
    if 1 << n != len(state):
        raise ValueError("state length is not a power of two")
    return n


def init_state(n_qubits: int) -> np.ndarray:
    if not (1 <= n_qubits <= MAX_QUBITS):
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _pairs(state: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with ``qubit`` clear and, pairwise, the same with it set."""
    if not (0 <= qubit < n_qubits_of(state)):
        raise ValueError("qubit index out of range")
    idx = np.arange(len(state))
    i0 = idx[((idx >> qubit) & 1) == 0]
    return i0, i0 | (1 << qubit)


def _apply_1q(state: np.ndarray, pairs, matrix) -> np.ndarray:
    """Mix each amplitude pair (i0, i1) by the 2x2 ``matrix``, given as nested
    tuples whose entries are scalars or per-pair arrays."""
    i0, i1 = pairs
    (m00, m01), (m10, m11) = matrix
    out = state.copy()
    a0, a1 = state[i0], state[i1]
    out[i0] = m00 * a0 + m01 * a1
    out[i1] = m10 * a0 + m11 * a1
    return out


_H = tuple(map(tuple, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)))
_X = tuple(map(tuple, np.array([[0, 1], [1, 0]], dtype=complex)))


def _ry(angle):
    """Ry(angle) in the nested form ``_apply_1q`` takes; ``angle`` may be an array."""
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return (c, -s), (s, c)


def apply_h(state: np.ndarray, qubit: int) -> np.ndarray:
    return _apply_1q(state, _pairs(state, qubit), _H)


def apply_x(state: np.ndarray, qubit: int) -> np.ndarray:
    return _apply_1q(state, _pairs(state, qubit), _X)


def apply_ry(state: np.ndarray, qubit: int, angle: float) -> np.ndarray:
    return _apply_1q(state, _pairs(state, qubit), _ry(angle))


def apply_ry_indexed(
    state: np.ndarray,
    qubit: int,
    angle_of_index: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Ry on ``qubit`` with the angle computed per basis index.

    ``angle_of_index`` receives the basis indices with the target bit cleared
    (vectorized over an integer array) and returns the rotation angles.
    """
    pairs = _pairs(state, qubit)
    return _apply_1q(state, pairs, _ry(np.asarray(angle_of_index(pairs[0]), dtype=float)))


def phase_flip_if(state: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Multiply by -1 every amplitude whose basis index is set in the boolean mask."""
    out = state.copy()
    out[mask] *= -1
    return out


def _register_view(state: np.ndarray, register: Sequence[int]):
    """Reshape so the register forms the leading axis of size 2^m.

    Returns (block, restore) where block has shape (2^m, rest) and restore
    maps a modified block back to a flat state.
    """
    n = n_qubits_of(state)
    m = len(register)
    if len(set(register)) != m or any(not (0 <= q < n) for q in register):
        raise ValueError("bad register")
    arr = state.reshape([2] * n)
    src_axes = [n - 1 - q for q in reversed(register)]  # MSB of y first
    moved = np.moveaxis(arr, src_axes, range(m))
    shape = moved.shape
    block = moved.reshape(1 << m, -1)

    def restore(new_block: np.ndarray) -> np.ndarray:
        back = np.moveaxis(new_block.reshape(shape), range(m), src_axes)
        return np.ascontiguousarray(back).reshape(-1)

    return block, restore


def diffusion(state: np.ndarray) -> np.ndarray:
    """Reflect amplitudes about their mean: 2|s><s| - I."""
    return 2 * state.mean() - state


def qft(state: np.ndarray, register: Sequence[int]) -> np.ndarray:
    # the QFT's exp(+2 pi i k y / M) is numpy's inverse FFT sign
    block, restore = _register_view(state, register)
    return restore(np.fft.ifft(block, axis=0, norm="ortho"))


def inverse_qft(state: np.ndarray, register: Sequence[int]) -> np.ndarray:
    block, restore = _register_view(state, register)
    return restore(np.fft.fft(block, axis=0, norm="ortho"))


def probability_of(state: np.ndarray, qubit: int, outcome: int) -> float:
    pair = _pairs(state, qubit)[outcome]
    return float(np.sum(np.abs(state[pair]) ** 2))


def register_distribution(state: np.ndarray) -> np.ndarray:
    """Measurement distribution over the basis states."""
    return np.abs(state) ** 2
