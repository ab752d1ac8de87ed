import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontain import qsim
from qcontain.cascade import exact_influence
from qcontain.cli import main
from qcontain.graph import Graph, ProblemInstance, generate_random_instance, parse_instance
from qcontain.qae import (
    _statevector_qpe_distribution,
    apply_a,
    build_a_operator,
    build_q_operator,
    evaluation_qubits_for,
    qae_estimate,
    qae_influence,
    qpe_outcome_distribution,
)


def a_state(spec):
    """psi = A|0> on the edge+ancilla qubits."""
    return apply_a(qsim.init_state(spec.n_qubits), spec)


def ancilla_p1(spec):
    return qsim.probability_of(a_state(spec), spec.ancilla, 1)


def apply_a_adjoint(state, spec):
    """A^dagger: the ancilla rotation undone, then the edge rotations in reverse."""
    mask = (1 << spec.n_edge_qubits) - 1
    theta = 2.0 * np.arcsin(np.sqrt(spec.f_table))
    state = qsim.apply_ry_indexed(state, spec.ancilla, lambda ix: -theta[ix & mask])
    for q in reversed(range(spec.n_edge_qubits)):
        state = qsim.apply_ry(state, q, -spec.edge_angles[q])
    return state


def gate_q(state, spec, control=None):
    """Q from gates: S_f, A^dagger, 2|0><0| - I, A, optionally controlled.

    Only the two phase flips need the control: with it off, A^dagger then A
    cancel.
    """
    ix = np.arange(len(state))
    on = True if control is None else ((ix >> control) & 1) == 1
    system_mask = (1 << spec.n_qubits) - 1
    state = qsim.phase_flip_if(state, (((ix >> spec.ancilla) & 1) == 1) & on)
    state = apply_a_adjoint(state, spec)
    state = qsim.phase_flip_if(state, ((ix & system_mask) != 0) & on)
    return apply_a(state, spec)


def ladder_qpe_distribution(spec, m):
    """Reference readout: textbook phase estimation on s + m qubits with a
    controlled-Q^(2^j) ladder on evaluation qubit j."""
    s = spec.n_qubits
    register = list(range(s, s + m))
    state = apply_a(qsim.init_state(s + m), spec)
    for q in register:
        state = qsim.apply_h(state, q)
    for j, q in enumerate(register):
        for _ in range(1 << j):
            state = gate_q(state, spec, control=q)
    state = qsim.inverse_qft(state, register)
    # the register holds the high m qubits: row y of the reshape is its outcome y
    return qsim.register_distribution(state).reshape(1 << m, -1).sum(axis=1)


def fejer_qpe_distribution(a, m):
    """Reference readout, the textbook form: A|0> splits evenly between the
    two Q eigenvectors with eigenphases +-theta/pi (one when a is 0 or 1), so
    the outcome distribution is the matching mixture of Fejer kernels."""
    theta = math.asin(math.sqrt(a))
    dim = 1 << m
    y = np.arange(dim)
    phis, weights = [theta / math.pi % 1.0], [1.0]
    if 0.0 < a < 1.0:
        phis, weights = [theta / math.pi % 1.0, (-theta / math.pi) % 1.0], [0.5, 0.5]
    dist = np.zeros(dim)
    for phi, w in zip(phis, weights):
        delta = phi - y / dim
        num = np.sin(math.pi * dim * delta)
        den = dim * np.sin(math.pi * delta)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = np.where(np.abs(den) < 1e-12, 1.0, (num / np.where(den == 0, 1, den)) ** 2)
        dist += w * kernel
    return dist / dist.sum()


@st.composite
def amplitudes_and_m(draw):
    m = draw(st.integers(1, 14))
    grid = st.integers(0, 1 << m).map(lambda k: math.sin(math.pi * k / (1 << m)) ** 2)
    a = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-300]), grid))
    return a, m


class TestAOperator:
    def test_isolated_seed(self):
        inst = ProblemInstance(Graph(1, []), frozenset({0}), 1.0)
        spec = build_a_operator(inst)
        assert ancilla_p1(spec) == pytest.approx(1.0, abs=1e-12)

    def test_single_edge(self, single_edge):
        spec = build_a_operator(single_edge)
        assert ancilla_p1(spec) == pytest.approx(0.75, abs=1e-12)

    def test_chain(self, chain3):
        spec = build_a_operator(chain3)
        assert ancilla_p1(spec) == pytest.approx(1.75 / 3, abs=1e-12)

    def test_matches_exact_oracle_on_random_instances(self):
        for seed in range(10):
            inst = generate_random_instance(6, 0.25, n_seeds=2, rng_seed=seed)
            if len(inst.graph.edges) > 8:
                continue
            a_true = exact_influence(inst).sigma / inst.graph.node_count
            spec = build_a_operator(inst)
            assert abs(ancilla_p1(spec) - a_true) < 1e-9

    def test_respects_removal(self, single_edge):
        spec = build_a_operator(single_edge.without_edges((0,)))
        assert ancilla_p1(spec) == pytest.approx(0.5, abs=1e-12)

    def test_qubit_cap(self):
        # edge qubits, the ancilla and the evaluation qubits share the cap
        inst = generate_random_instance(4, 1.0, n_seeds=1, rng_seed=0)
        assert len(inst.graph.edges) + 1 + 11 == qsim.MAX_QUBITS
        build_a_operator(inst, eval_qubits=11)
        with pytest.raises(ValueError, match="analytic"):
            build_a_operator(inst, eval_qubits=12)

    def test_counts_only_rows_an_arc_can_reach(self):
        # a 12-arc chain among 10,000 nodes: a (2^12 x |V|) bool table took 44 MiB
        chain = "".join(f"{v} {v + 1} 0.5 0.1\n" for v in range(12))
        inst = parse_instance(f"nodes 10000\n{chain}seeds 0\nlambda 1.0\n")
        tracemalloc.start()
        try:
            spec = build_a_operator(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every configuration has weight 2^-12, so the mean count is sigma
        assert spec.f_table.mean() * 10000 == pytest.approx(sum(0.5**k for k in range(13)))
        assert peak < 4 << 20


class TestQOperator:
    def test_rotates_by_two_theta(self, single_edge):
        spec = build_a_operator(single_edge)
        state = a_state(spec)
        q = build_q_operator(state)
        theta = math.asin(math.sqrt(0.75))
        state = q(state)
        assert qsim.probability_of(state, spec.ancilla, 1) == pytest.approx(
            math.sin(3 * theta) ** 2, abs=1e-10
        )
        state = q(state)
        assert qsim.probability_of(state, spec.ancilla, 1) == pytest.approx(
            math.sin(5 * theta) ** 2, abs=1e-10
        )

    def test_matches_gate_sequence(self, chain3):
        spec = build_a_operator(chain3)
        q = build_q_operator(a_state(spec))
        rng = np.random.default_rng(4)
        dim = 1 << spec.n_qubits
        for _ in range(5):
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            assert np.allclose(q(state), gate_q(state, spec), atol=1e-12)

    def test_unitarity_on_random_states(self, chain3):
        spec = build_a_operator(chain3)
        q = build_q_operator(a_state(spec))
        rng = np.random.default_rng(3)
        dim = 1 << spec.n_qubits
        for _ in range(5):
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state /= np.linalg.norm(state)
            out = q(state)
            assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-9)


class TestQpeReadout:
    def test_grid_aligned_half(self):
        # a = 0.5 means theta/pi = 1/4, exactly on the m=3 grid: y in {2, 6}
        dist = qpe_outcome_distribution(0.5, 3)
        assert dist[2] == pytest.approx(0.5, abs=1e-12)
        assert dist[6] == pytest.approx(0.5, abs=1e-12)

    def test_grid_aligned_pi_over_8(self):
        dist = qpe_outcome_distribution(math.sin(math.pi / 8) ** 2, 3)
        assert dist[1] == pytest.approx(0.5, abs=1e-12)
        assert dist[7] == pytest.approx(0.5, abs=1e-12)

    def test_zero_amplitude(self):
        dist = qpe_outcome_distribution(0.0, 4)
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    @given(amplitudes_and_m())
    @example((0.0, 14))
    @example((1.0, 14))
    @example((1e-300, 14))
    @example((math.sin(math.pi * 3 / (1 << 14)) ** 2, 14))
    @settings(max_examples=200, deadline=None)
    def test_matches_fejer_mixture(self, case):
        a, m = case
        dist = qpe_outcome_distribution(a, m)
        assert np.abs(dist - fejer_qpe_distribution(a, m)).max() <= 1e-10
        assert abs(dist.sum() - 1.0) <= 1e-12

    def test_modes_agree(self, single_edge):
        spec = build_a_operator(single_edge)
        for m in (2, 3, 4, 5):
            sv = _statevector_qpe_distribution(spec, m)
            an = qpe_outcome_distribution(0.75, m)
            assert np.abs(sv - an).sum() / 2 < 1e-8

    def test_block_matches_gate_ladder(self):
        checked = 0
        for seed in range(8):
            inst = generate_random_instance(5, 0.3, n_seeds=1, rng_seed=seed)
            n_edges = len(inst.graph.edges)
            if not 1 <= n_edges <= 8:
                continue
            removal = (int(np.random.default_rng(seed).integers(n_edges)),)
            for rem in ((), removal):
                spec = build_a_operator(inst.without_edges(rem))
                m = min(6, 14 - spec.n_qubits)
                block = _statevector_qpe_distribution(spec, m)
                ladder = ladder_qpe_distribution(spec, m)
                assert np.abs(block - ladder).max() <= 1e-12
                checked += 1
        assert checked >= 8

    def test_modes_agree_on_chain(self, chain3):
        spec = build_a_operator(chain3)
        a = 1.75 / 3
        sv = _statevector_qpe_distribution(spec, 4)
        an = qpe_outcome_distribution(a, 4)
        assert np.abs(sv - an).sum() / 2 < 1e-8


class TestQaeEstimate:
    def test_counters(self, single_edge):
        est = qae_estimate(single_edge, m=3, rng_seed=0, mode="analytic")
        assert est.q_applications == 7
        assert est.a_applications == 15
        # a_hat = sin^2(pi y / M) for an outcome y on the m = 3 grid
        assert min(abs(est.a_hat - math.sin(math.pi * y / 8) ** 2) for y in range(8)) < 1e-12

    def test_statevector_mode_sampling(self, single_edge):
        est = qae_estimate(single_edge, m=4, rng_seed=1, mode="statevector")
        assert 0.0 <= est.a_hat <= 1.0

    def test_error_bound_holds_often(self, chain3):
        a = 1.75 / 3
        m = 5
        bound = math.pi / 2**m + math.pi**2 / 2 ** (2 * m)
        rng = np.random.default_rng(11)
        hits = sum(
            abs(qae_estimate(chain3, m=m, rng_seed=rng, mode="analytic").a_hat - a) <= bound
            for _ in range(200)
        )
        assert hits / 200 >= 0.8

    def test_bad_mode(self, single_edge):
        with pytest.raises(ValueError):
            qae_estimate(single_edge, m=3, mode="nope")

    def test_m_must_be_positive(self, single_edge):
        with pytest.raises(ValueError):
            qae_estimate(single_edge, m=0)


class TestQaeInfluence:
    def test_m_selection(self):
        assert evaluation_qubits_for(0.005) == 12

    def test_epsilon_validation(self, single_edge):
        with pytest.raises(ValueError):
            qae_influence(single_edge, epsilon=1.0)
        with pytest.raises(ValueError):
            qae_influence(single_edge, epsilon=0.0)

    def test_single_edge_estimate(self, single_edge):
        est = qae_influence(single_edge, epsilon=0.05, rng_seed=4, mode="analytic")
        assert abs(est.sigma - 1.5) <= 0.05 * 2
        m = evaluation_qubits_for(0.05)
        assert est.trials_or_calls == 3 * (2**m - 1)

    def test_sigma_clamped_to_bounds(self, single_edge):
        est = qae_influence(single_edge, epsilon=0.2, rng_seed=0, mode="analytic")
        assert 1.0 <= est.sigma <= 2.0


PINNED_INSTANCE = """nodes 5
0 1 0.9 0.1
1 2 0.8 0.2
1 3 0.7 0.05
3 4 0.6 0.1
seeds 0
lambda 0.9
"""


class TestPinnedCliOutput:
    """Statevector QAE output, byte for byte as the controlled-Q ladder printed it."""

    @pytest.fixture
    def pinned(self, tmp_path):
        path = tmp_path / "pinned.txt"
        path.write_text(PINNED_INSTANCE)
        return str(path)

    def test_contain(self, pinned, capsys):
        argv = ["contain", "--instance", pinned, "--estimator", "qae", "--epsilon", "0.2",
                "--finder", "linear", "--k-max", "3", "--rng", "5"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "k=1 edge=0->1 idx=0 total=0.91 influence=0.9 impact=0.009999999999999998\n"
            "removed=1 mc_trials=0 a_applications=3048 q_applications=1512 "
            "grover_oracle_calls=0 linear_steps=7\n"
        )

    def test_estimate(self, pinned, capsys):
        argv = ["estimate", "--instance", pinned, "--method", "qae", "--epsilon", "0.2", "--rng", "5"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "method qae\n"
            "sigma 3.678491842064995\n"
            "sigma_normalized 0.735698368412999\n"
            "error 1.0\n"
            "work_units 189\n"
        )
