import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontain import qsim


def norm(state):
    return float(np.sum(np.abs(state) ** 2))


def test_init_state():
    assert np.allclose(qsim.init_state(1), [1, 0])
    assert np.allclose(qsim.init_state(2), [1, 0, 0, 0])


@pytest.mark.parametrize("length", [0, 3, 6, 12])
def test_n_qubits_of_refuses_a_length_that_is_not_a_power_of_two(length):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="power of two"):
            qsim.n_qubits_of(np.zeros(length, dtype=complex))


def test_n_qubits_of_a_power_of_two():
    for n in range(11):
        assert qsim.n_qubits_of(np.zeros(1 << n, dtype=complex)) == n


def test_init_state_over_cap():
    with pytest.raises(ValueError):
        qsim.init_state(25)


def test_hadamard_on_zero():
    state = qsim.apply_h(qsim.init_state(1), 0)
    assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_phase_flip_on_uniform():
    state = qsim.init_state(2)
    state = qsim.apply_h(state, 0)
    state = qsim.apply_h(state, 1)
    state = qsim.phase_flip_if(state, np.arange(4) == 3)
    assert np.allclose(state, [0.5, 0.5, 0.5, -0.5])


def test_ry_pi_is_bit_flip_up_to_phase():
    state = qsim.apply_ry(qsim.init_state(1), 0, np.pi)
    assert abs(abs(state[1]) - 1.0) < 1e-12
    assert abs(state[0]) < 1e-12


def test_ry_encodes_probability():
    state = qsim.apply_ry(qsim.init_state(1), 0, 2 * np.arcsin(np.sqrt(0.3)))
    assert qsim.probability_of(state, 0, 1) == pytest.approx(0.3, abs=1e-12)


def test_ry_indexed_rotates_each_pair_by_its_angle():
    rng = np.random.default_rng(9)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    # qubit 1 of 3: one angle per (qubit 2, qubit 0) cell
    angles = rng.uniform(-3.0, 3.0, size=(2, 2))
    out = qsim.apply_ry_indexed(state, 1, angles)
    for high in (0, 1):
        for low in (0, 1):
            c, s = np.cos(angles[high, low] / 2), np.sin(angles[high, low] / 2)
            pair = [4 * high + low, 4 * high + 2 + low]
            assert np.allclose(out[pair], np.array([[c, -s], [s, c]]) @ state[pair], atol=1e-12)


def test_probability_of_basis_states():
    assert qsim.probability_of(qsim.init_state(1), 0, 0) == pytest.approx(1.0)
    plus = qsim.apply_h(qsim.init_state(1), 0)
    assert qsim.probability_of(plus, 0, 1) == pytest.approx(0.5)


class TestDiffusion:
    def test_uniform_is_fixed_point(self):
        state = qsim.init_state(3)
        for q in range(3):
            state = qsim.apply_h(state, q)
        assert np.allclose(qsim.diffusion(state), state)

    def test_basis_state_reflection(self):
        state = qsim.init_state(2)
        out = qsim.diffusion(state)
        assert np.allclose(out, [-0.5, 0.5, 0.5, 0.5])

    def test_involution(self):
        rng = np.random.default_rng(5)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        assert np.allclose(qsim.diffusion(qsim.diffusion(state)), state, atol=1e-12)

    def test_equals_hadamard_conjugated_zero_flip(self):
        rng = np.random.default_rng(6)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        via_d = qsim.diffusion(state)
        other = state.copy()
        for q in range(3):
            other = qsim.apply_h(other, q)
        other = qsim.phase_flip_if(other, np.arange(8) != 0)
        for q in range(3):
            other = qsim.apply_h(other, q)
        # H^n (2|0><0| - I) H^n = 2|s><s| - I
        assert np.allclose(via_d, other, atol=1e-10)


class TestFourier:
    def test_inverse_of_qft(self):
        rng = np.random.default_rng(8)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        reg = [0, 1, 2, 3]
        assert np.allclose(qsim.inverse_qft(qsim.qft(state, reg), reg), state, atol=1e-10)

    def test_uniform_register_maps_to_zero(self):
        state = qsim.init_state(3)
        for q in range(3):
            state = qsim.apply_h(state, q)
        out = qsim.inverse_qft(state, [0, 1, 2])
        expected = np.zeros(8)
        expected[0] = 1
        assert np.allclose(out, expected, atol=1e-12)

    def test_phase_ramp_maps_to_frequency_basis_state(self):
        m, k = 3, 1
        y = np.arange(8)
        state = np.exp(2j * np.pi * k * y / 8) / np.sqrt(8)
        out = qsim.inverse_qft(state, [0, 1, 2])
        expected = np.zeros(8)
        expected[k] = 1
        assert np.allclose(np.abs(out), expected, atol=1e-10)

    @pytest.mark.parametrize("transform", [qsim.qft, qsim.inverse_qft])
    @pytest.mark.parametrize("register", [[], [0, 2], [1, 0], [2, 3], [-1, 0]])
    def test_register_not_a_contiguous_run_raises(self, transform, register):
        with pytest.raises(ValueError):
            transform(qsim.init_state(3), register)

    def test_partial_register(self):
        # iQFT over the low 2 qubits of a 3-qubit product state leaves qubit 2 alone
        state = qsim.init_state(3)
        state = qsim.apply_x(state, 2)
        state = qsim.apply_h(state, 0)
        state = qsim.apply_h(state, 1)
        out = qsim.inverse_qft(state, [0, 1])
        expected = np.zeros(8)
        expected[4] = 1  # |1>|00>
        assert np.allclose(out, expected, atol=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(
        st.tuples(st.sampled_from(["h", "x", "ry"]), st.integers(0, 2), st.floats(-3.0, 3.0)),
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_norm_preserved_and_adjoint_returns(seed, ops):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    start = state.copy()
    for kind, q, angle in ops:
        if kind == "h":
            state = qsim.apply_h(state, q)
        elif kind == "x":
            state = qsim.apply_x(state, q)
        else:
            state = qsim.apply_ry(state, q, angle)
    assert norm(state) == pytest.approx(1.0, abs=1e-10)
    for kind, q, angle in reversed(ops):
        if kind == "h":
            state = qsim.apply_h(state, q)
        elif kind == "x":
            state = qsim.apply_x(state, q)
        else:
            state = qsim.apply_ry(state, q, -angle)
    assert np.allclose(state, start, atol=1e-9)


def test_invalid_qubit_index():
    with pytest.raises(ValueError):
        qsim.apply_h(qsim.init_state(2), 2)


def ry_matrix(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


def projector(k, dim):
    """|k><k| on a dim-dimensional factor."""
    return np.diag((np.arange(dim) == k).astype(float))


def embed(gate, qubit, n):
    """``gate`` on ``qubit`` of an n-qubit register; qubit 0 is the rightmost factor."""
    return np.kron(np.kron(np.eye(1 << (n - 1 - qubit)), gate), np.eye(1 << qubit))


@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), angle=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_gates_equal_dense_kronecker_matrices(n, seed, angle):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    flip = np.array([[0, 1], [1, 0]])
    for q in range(n):
        high, low = 1 << (n - 1 - q), 1 << q
        angles = rng.uniform(-3.0, 3.0, size=(high, low))
        # one Ry per pair: the sum over cells of |h><h| (x) Ry(angle[h, l]) (x) |l><l|
        indexed = sum(
            np.kron(np.kron(projector(h, high), ry_matrix(angles[h, l])), projector(l, low))
            for h in range(high)
            for l in range(low)
        )
        cases = [
            (qsim.apply_h(state, q), embed(hadamard, q, n)),
            (qsim.apply_x(state, q), embed(flip, q, n)),
            (qsim.apply_ry(state, q, angle), embed(ry_matrix(angle), q, n)),
            (qsim.apply_ry_indexed(state, q, angles), indexed),
        ]
        for got, matrix in cases:
            assert np.allclose(got, matrix @ state, atol=1e-12)


def test_gate_peak_memory_on_20_qubits():
    # the output and the two products of one half each: 32 MiB at 20 qubits
    state = qsim.init_state(20)
    tracemalloc.start()
    try:
        qsim.apply_ry(state, 7, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
