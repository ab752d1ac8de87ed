import itertools
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontain import cascade, qae, qsim
from qcontain.cascade import exact_influence
from qcontain.cli import main
from qcontain.containment import RunAccounting, make_qae_estimator
from qcontain.graph import (
    Edge,
    Graph,
    ProblemInstance,
    generate_random_instance,
    parse_instance,
)
from qcontain.qae import (
    QPE_REPETITIONS,
    AmplitudeEstimate,
    AOperatorSpec,
    _plane_readout,
    _statevector_qpe_distribution,
    build_a_operator,
    evaluation_qubits_for,
    qae_estimate,
    qae_influence,
    qpe_outcome_distribution,
    read_estimate,
)

from qpe_reference import apply_a, build_q_operator, readout, row_loop_qpe_distribution


def median_of_reads(dist, rng_seed):
    """``QPE_REPETITIONS`` single reads of ``dist`` on one generator: their median and summed counts."""
    rng = np.random.default_rng(rng_seed)
    runs = [read_estimate(dist, rng, 1) for _ in range(QPE_REPETITIONS)]
    return AmplitudeEstimate(
        a_hat=sorted(r.a_hat for r in runs)[QPE_REPETITIONS // 2],
        q_applications=sum(r.q_applications for r in runs),
        a_applications=sum(r.a_applications for r in runs),
    )


def qae_influence_of(inst, removal, epsilon, seed, mode):
    """The QAE estimator's influence of ``inst`` without ``removal``, on one call seeded by ``seed``."""
    (est,) = make_qae_estimator(epsilon, iter([seed]), mode)(inst, [removal], RunAccounting())
    return est


def a_state(spec):
    """psi = A|0> on the edge+ancilla qubits, from the gates."""
    return apply_a(qsim.init_state(spec.n_qubits), spec)


def amplitude_rounding_bound(n_arcs):
    """A first-order bound on |‖good‖² - a| for E = ``n_arcs`` edge qubits,
    a from the exact DP, from the rounding steps of each side; u = 2^-53 and
    sqrt, asin, arcsin, cos and sin are taken to be within one ulp.

    Statevector: ‖good‖² sums 2^E squared amplitudes, each the float product
    of E + 1 factors, an arc's cos or sin of half of 2 asin(sqrt(p)), then the
    ancilla's sin of half of 2 arcsin(sqrt(f)), f = count / |V|. A factor's
    square moves by at most 2u from the rounded sqrt (2p|delta|), 2u from the
    angle's last ulp (the angle is below 2) and 4u from cos or sin, so it is
    within 8u of its p, 1 - p or f, and within 9u for f, whose division
    rounds too. The exact weights sum to 1, so an arc's two factors move the
    sum by at most 16u and the ancilla's by 9u. The E multiplications and the
    squaring round once each, (2E + 1)u, and a sum of 2^E nonnegative terms
    in any order adds (2^E - 1)u: (18E + 9 + 2^E)u in all.

    DP: a node's probability sums at most 2^E disjoint outcomes, each a
    product of at most E branch factors, q = prod(1 - p) over the frontier
    arcs into a node, or 1 - q, both within 2u per arc, and E multiplications,
    (4E + E)u; its sum adds (2^E - 1)u, and fsum and the division by |V| 2u
    more: (5E + 2 + 2^E)u.
    """
    return (23 * n_arcs + 11 + 2 ** (n_arcs + 1)) * 2.0**-53


def ancilla_p1(spec):
    return qsim.probability_of(a_state(spec), spec.n_edge_qubits, 1)


def apply_a_adjoint(state, spec):
    """A^dagger: the ancilla rotation undone, then the edge rotations in reverse."""
    state = qsim.apply_ry_indexed(state, spec.n_edge_qubits, -2.0 * np.arcsin(np.sqrt(spec.f_table)))
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
    state = qsim.phase_flip_if(state, (((ix >> spec.n_edge_qubits) & 1) == 1) & on)
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


def recurrence_block(psi, m):
    """Reference block: Q^y psi / sqrt(M) by the copy-based recurrence, S_f on
    a copy of the previous row, then the reflection about psi."""
    half = len(psi) // 2
    block = np.empty((1 << m, len(psi)), dtype=complex)
    block[0] = psi / math.sqrt(len(block))
    for y in range(1, len(block)):
        f = block[y - 1].copy()
        f[half:] *= -1
        block[y] = 2 * np.vdot(psi, f) * psi - f
    return block


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


@st.composite
def qae_instances(draw):
    """Directed or undirected instances of 0-10 arcs, their probabilities
    including 0 and 1."""
    n = draw(st.integers(1, 6))
    undirected = draw(st.booleans())
    pairs = [(a, b) for a in range(n) for b in range(n) if a < b or (a > b and not undirected)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5 if undirected else 10)) if pairs else []
    probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    edges = []
    for a, b in chosen:
        p = draw(probs)
        edges += [Edge(a, b, p, 0.1)] + ([Edge(b, a, p, 0.1)] if undirected else [])
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return ProblemInstance(Graph(n, edges, undirected), frozenset(seeds), 1.0)


@st.composite
def a_specs(draw):
    """A operators of 0-12 edge qubits, p = 0 and p = 1 among their arcs, with
    an f_table of infected counts over |V|, all 0 or all 1."""
    n = draw(st.integers(0, 12))
    probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    angles = tuple(2.0 * math.asin(math.sqrt(draw(probs))) for _ in range(n))
    nodes = draw(st.integers(1, 9))
    counts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, nodes + 1, 1 << n)
    fill = draw(st.sampled_from([None, 0.0, 1.0]))
    f_table = counts / nodes if fill is None else np.full(1 << n, fill)
    return AOperatorSpec(n, angles, f_table)


@st.composite
def removal_specs(draw):
    """``build_a_operator`` of a ``qae_instances`` instance without a random
    removal, at 0-4 evaluation qubits."""
    inst = draw(qae_instances())
    arcs = len(inst.graph.edges)
    removal = tuple(draw(st.sets(st.integers(0, arcs - 1)))) if arcs else ()
    return build_a_operator(inst, removal, draw(st.integers(0, 4)))


TWO_ARC_CHAIN = ProblemInstance(
    Graph(3, [Edge(0, 1, 0.6, 0.1), Edge(1, 2, 0.3, 0.1)]), frozenset({0}), 1.0
)


class TestAState:
    @given(st.one_of(a_specs(), removal_specs()))
    @example(AOperatorSpec(2, (0.0, 1.3), np.array([0.25, 0.5, 0.75, 1.0])))  # an arc with p = 0
    @example(AOperatorSpec(2, (2.0 * math.asin(1.0), 0.7), np.array([0.2, 0.4, 0.6, 0.8])))  # p = 1
    @example(AOperatorSpec(3, (0.4, 1.1, 2.9), np.zeros(8)))
    @example(AOperatorSpec(3, (0.4, 1.1, 2.9), np.ones(8)))
    @example(build_a_operator(TWO_ARC_CHAIN, (0, 1), 2))  # every arc removed: no edge qubit
    @settings(max_examples=200, deadline=None)
    def test_is_the_gate_state_bit_for_bit(self, spec):
        gates = apply_a(qsim.init_state(spec.n_qubits), spec)
        psi = qae.a_state(spec)
        assert psi.dtype == gates.dtype and psi.shape == gates.shape
        # real and imaginary parts, signed zeros included
        assert np.array_equal(psi.view(np.uint64), gates.view(np.uint64))
        half = len(gates) // 2
        theta = math.atan2(np.linalg.norm(gates[half:]), np.linalg.norm(gates[:half]))
        for m in (1, 6):
            dist = _statevector_qpe_distribution(spec, m)
            assert np.array_equal(dist.view(np.uint64), _plane_readout(theta, m).view(np.uint64))

    def test_the_widest_register_the_cli_accepts(self):
        # the first 19 arcs of the 5-node complete digraph, the ancilla and the
        # m = 4 that epsilon 0.9 takes fill the 24-qubit cap
        pairs = [(u, v) for u in range(5) for v in range(5) if u != v][:19]
        arcs = "".join(f"{u} {v} {0.05 * (k + 1):.2f} 0.1\n" for k, (u, v) in enumerate(pairs))
        inst = parse_instance(f"nodes 5\n{arcs}seeds 0\nlambda 1.0\n")
        m = evaluation_qubits_for(0.9)
        assert len(inst.graph.edges) + 1 + m == qsim.MAX_QUBITS
        spec = build_a_operator(inst, (), m)
        tracemalloc.start()
        try:
            dist = _statevector_qpe_distribution(spec, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(dist.sum() - 1.0) <= 1e-12
        # tracemalloc peaks, numpy 2.4.6 on x86-64: 32.0 MiB for the product
        # state (the 16 MiB of the 2^20 complex amplitudes and four 2^19-float
        # arrays) and 64.1 MiB for the gate form, each Ry writing a new state
        # beside its products; the bound leaves 8 MiB over the first
        assert peak < 40 << 20
        psi = qae.a_state(spec)
        assert np.array_equal(psi.view(np.uint64), a_state(spec).view(np.uint64))


class TestAOperator:
    def test_isolated_seed(self):
        inst = ProblemInstance(Graph(1, []), frozenset({0}), 1.0)
        spec = build_a_operator(inst, (), eval_qubits=0)
        assert ancilla_p1(spec) == pytest.approx(1.0, abs=1e-12)

    def test_single_edge(self, single_edge):
        spec = build_a_operator(single_edge, (), eval_qubits=0)
        assert ancilla_p1(spec) == pytest.approx(0.75, abs=1e-12)

    def test_chain(self, chain3):
        spec = build_a_operator(chain3, (), eval_qubits=0)
        assert ancilla_p1(spec) == pytest.approx(1.75 / 3, abs=1e-12)

    def test_matches_exact_oracle_on_random_instances(self):
        for seed in range(10):
            inst = generate_random_instance(
                6, 0.25, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=2, lam=1.0, rng_seed=seed
            )
            if len(inst.graph.edges) > 8:
                continue
            a_true = exact_influence(inst, ()).sigma / inst.graph.node_count
            spec = build_a_operator(inst, (), eval_qubits=0)
            assert abs(ancilla_p1(spec) - a_true) < 1e-9

    def test_respects_removal(self, single_edge):
        spec = build_a_operator(single_edge, (0,), eval_qubits=0)
        assert ancilla_p1(spec) == pytest.approx(0.5, abs=1e-12)

    def test_qubit_cap(self):
        # edge qubits, the ancilla and the evaluation qubits share the cap
        inst = generate_random_instance(
            4, 1.0, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=0
        )
        assert len(inst.graph.edges) + 1 + 11 == qsim.MAX_QUBITS
        build_a_operator(inst, (), eval_qubits=11)
        with pytest.raises(ValueError, match="analytic"):
            build_a_operator(inst, (), eval_qubits=12)

    def test_counts_only_rows_an_arc_can_reach(self):
        # a 12-arc chain among 10,000 nodes: a (2^12 x |V|) bool table took 44 MiB
        chain = "".join(f"{v} {v + 1} 0.5 0.1\n" for v in range(12))
        inst = parse_instance(f"nodes 10000\n{chain}seeds 0\nlambda 1.0\n")
        tracemalloc.start()
        try:
            spec = build_a_operator(inst, (), eval_qubits=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every configuration has weight 2^-12, so the mean count is sigma
        assert spec.f_table.mean() * 10000 == pytest.approx(sum(0.5**k for k in range(13)))
        assert peak < 4 << 20


class TestQOperator:
    def test_rotates_by_two_theta(self, single_edge):
        spec = build_a_operator(single_edge, (), eval_qubits=0)
        state = a_state(spec)
        q = build_q_operator(state)
        theta = math.asin(math.sqrt(0.75))
        state = q(state)
        assert qsim.probability_of(state, spec.n_edge_qubits, 1) == pytest.approx(
            math.sin(3 * theta) ** 2, abs=1e-10
        )
        state = q(state)
        assert qsim.probability_of(state, spec.n_edge_qubits, 1) == pytest.approx(
            math.sin(5 * theta) ** 2, abs=1e-10
        )

    def test_matches_gate_sequence(self, chain3):
        spec = build_a_operator(chain3, (), eval_qubits=0)
        q = build_q_operator(a_state(spec))
        rng = np.random.default_rng(4)
        dim = 1 << spec.n_qubits
        for _ in range(5):
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            assert np.allclose(q(state), gate_q(state, spec), atol=1e-12)

    def test_unitarity_on_random_states(self, chain3):
        spec = build_a_operator(chain3, (), eval_qubits=0)
        q = build_q_operator(a_state(spec))
        rng = np.random.default_rng(3)
        dim = 1 << spec.n_qubits
        for _ in range(5):
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state /= np.linalg.norm(state)
            out = q(state)
            assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_out_may_be_the_input(self, chain3):
        spec = build_a_operator(chain3, (), eval_qubits=0)
        q = build_q_operator(a_state(spec))
        rng = np.random.default_rng(5)
        dim = 1 << spec.n_qubits
        for _ in range(5):
            x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            before = x.copy()
            fresh = q(x)
            assert np.array_equal(x.view(np.uint64), before.view(np.uint64))
            assert q(x, out=x) is x
            assert np.array_equal(x.view(np.uint64), fresh.view(np.uint64))


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

    def test_readout_peak_memory(self):
        # the (2^m x 2) complex block is 32 MiB at m = 20. One column at a
        # time goes through the FFT: its real input, the complex copy numpy 2
        # takes of it and its output are 5/8 of a block, and the angles and
        # the distribution a quarter each, 1.75 blocks. The whole block in
        # one FFT took 2.5
        block = (1 << 20) * 2 * 16
        tracemalloc.start()
        try:
            dist = qpe_outcome_distribution(0.3, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(dist.sum() - 1.0) <= 1e-9
        assert peak < 1.9 * block

    def test_modes_agree(self, single_edge):
        spec = build_a_operator(single_edge, (), eval_qubits=0)
        for m in (2, 3, 4, 5):
            sv = _statevector_qpe_distribution(spec, m)
            an = qpe_outcome_distribution(0.75, m)
            assert np.abs(sv - an).sum() / 2 < 1e-8

    def test_block_matches_gate_ladder(self):
        checked = 0
        for seed in range(8):
            inst = generate_random_instance(
                5, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=seed
            )
            n_edges = len(inst.graph.edges)
            if not 1 <= n_edges <= 8:
                continue
            removal = (int(np.random.default_rng(seed).integers(n_edges)),)
            for rem in ((), removal):
                spec = build_a_operator(inst.without_edges(rem), (), eval_qubits=0)
                m = min(6, 14 - spec.n_qubits)
                ladder = ladder_qpe_distribution(spec, m)
                for dist in (_statevector_qpe_distribution(spec, m), row_loop_qpe_distribution(spec, m)):
                    assert np.abs(dist - ladder).max() <= 1e-12
                checked += 1
        assert checked >= 8

    def test_block_equals_the_copy_based_recurrence_bitwise(self):
        p_ranges = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.6, 1.0)]
        checked, probabilities = 0, set()
        for seed in range(12):
            inst = generate_random_instance(
                5, 0.3, p_range=p_ranges[seed % 4], i_range=(0.0, 1.0), n_seeds=1 + seed % 2,
                lam=1.0, rng_seed=seed
            )
            if not inst.graph.edges:
                continue
            probabilities.update(e.p for e in inst.graph.edges)
            spec = build_a_operator(inst, (), eval_qubits=0)
            for m in (3, 6):
                reference = readout(recurrence_block(a_state(spec), m))
                dist = row_loop_qpe_distribution(spec, m)
                assert np.array_equal(dist.view(np.uint64), reference.view(np.uint64))
            checked += 1
        assert checked >= 8
        assert {0.0, 1.0} <= probabilities

    @given(qae_instances(), st.integers(1, 8))
    @example(ProblemInstance(Graph(1, []), frozenset({0}), 1.0), 1)
    @example(ProblemInstance(Graph(2, [Edge(0, 1, 1.0, 0.1)]), frozenset({0}), 1.0), 8)
    @example(ProblemInstance(Graph(2, [Edge(0, 1, 0.0, 0.1)]), frozenset({0}), 1.0), 8)
    # a = 1, and the good part's squares sum to one ulp below it on numpy 2.4
    @example(
        ProblemInstance(Graph(2, [Edge(0, 1, 0.25, 0.1), Edge(1, 0, 1.0, 0.1)]), frozenset({1}), 1.0), 7
    )
    # 10 arcs, a = 0.9, and the good part's squares sum to 0.8999999999999986,
    # 13 u below it, more than 1e-15
    @example(
        ProblemInstance(Graph(5, [
            e for a, b, p in [(0, 4, 0.5), (2, 3, 0.5), (0, 2, 0.9), (0, 1, 0.25), (1, 2, 0.2)]
            for e in (Edge(a, b, p, 0.1), Edge(b, a, p, 0.1))
        ], True), frozenset({0, 1, 2, 3}), 1.0), 1
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_row_loop_on_generated_instances(self, inst, m):
        spec = build_a_operator(inst, (), eval_qubits=m)
        good = a_state(spec)[1 << spec.n_edge_qubits:]
        a = exact_influence(inst, ()).sigma / inst.graph.node_count
        assert abs(np.vdot(good, good).real - a) <= amplitude_rounding_bound(spec.n_edge_qubits)
        dist = _statevector_qpe_distribution(spec, m)
        assert np.abs(dist - row_loop_qpe_distribution(spec, m)).max() <= 1e-12

    def test_modes_agree_on_chain(self, chain3):
        spec = build_a_operator(chain3, (), eval_qubits=0)
        a = 1.75 / 3
        sv = _statevector_qpe_distribution(spec, 4)
        an = qpe_outcome_distribution(a, 4)
        assert np.abs(sv - an).sum() / 2 < 1e-8


class TestQaeEstimate:
    def test_counters(self, single_edge):
        a = exact_influence(single_edge, ()).sigma / single_edge.graph.node_count
        run = read_estimate(qpe_outcome_distribution(a, 3), np.random.default_rng(0), 1)
        assert run.q_applications == 7
        assert run.a_applications == 15
        est = qae_estimate(single_edge, (), m=3, rng_seed=0, mode="analytic")
        assert est.q_applications == QPE_REPETITIONS * 7 == 21
        assert est.a_applications == QPE_REPETITIONS * 15 == 45
        # a_hat = sin^2(pi y / M) for an outcome y on the m = 3 grid
        for a_hat in (run.a_hat, est.a_hat):
            assert min(abs(a_hat - math.sin(math.pi * y / 8) ** 2) for y in range(8)) < 1e-12

    def test_statevector_mode_sampling(self, single_edge):
        est = qae_estimate(single_edge, (), m=4, rng_seed=1, mode="statevector")
        assert 0.0 <= est.a_hat <= 1.0

    def test_error_bound_holds_often(self, chain3):
        a = 1.75 / 3
        m = 5
        bound = math.pi / 2**m + math.pi**2 / 2 ** (2 * m)
        dist = qpe_outcome_distribution(exact_influence(chain3, ()).sigma / 3, m)
        rng = np.random.default_rng(11)
        hits = sum(abs(read_estimate(dist, rng, 1).a_hat - a) <= bound for _ in range(200))
        assert hits / 200 >= 0.8

    def test_bad_mode(self, single_edge):
        with pytest.raises(ValueError):
            qae_estimate(single_edge, (), m=3, rng_seed=0, mode="nope")

    def test_m_must_be_positive(self, single_edge):
        with pytest.raises(ValueError):
            qae_estimate(single_edge, (), m=0, rng_seed=0, mode="statevector")

    def test_readout_of_the_analytic_distribution_is_analytic_mode(self, chain3):
        a = exact_influence(chain3, ()).sigma / chain3.graph.node_count
        for m in (1, 3, 6):
            dist = qpe_outcome_distribution(a, m)
            for seed in range(8):
                est = qae_estimate(
                    chain3, (), m=m, rng_seed=np.random.default_rng(seed), mode="analytic"
                )
                assert est == median_of_reads(dist, seed)


class TestQaeInfluence:
    def test_m_selection(self):
        assert evaluation_qubits_for(0.005) == 12
        assert evaluation_qubits_for(2.2250738585072014e-308) == 1026  # smallest normal float

    def test_epsilon_validation(self, single_edge):
        with pytest.raises(ValueError):
            qae_influence_of(single_edge, (), 1.0, 0, "statevector")
        with pytest.raises(ValueError):
            qae_influence_of(single_edge, (), 0.0, 0, "statevector")
        with pytest.raises(ValueError, match="too small"):
            qae_influence_of(single_edge, (), 5e-324, 0, "statevector")

    def test_single_edge_estimate(self, single_edge):
        est = qae_influence_of(single_edge, (), 0.05, 4, "analytic")
        assert abs(est.sigma - 1.5) <= 0.05 * 2
        m = evaluation_qubits_for(0.05)
        assert est.trials_or_calls == 3 * (2**m - 1)

    def test_sigma_clamped_to_bounds(self, single_edge):
        est = qae_influence_of(single_edge, (), 0.2, 0, "analytic")
        assert 1.0 <= est.sigma <= 2.0

    def test_converts_an_estimate_without_estimating(self, monkeypatch):
        # 5 nodes, 2 of them seeds: sigma = a_hat |V| clamped to [2, 5]
        inst = ProblemInstance(Graph(5, [Edge(0, 2, 0.5, 0.1)]), frozenset({0, 1}), 1.0)
        monkeypatch.setattr(qae, "qae_estimate", None)
        for a_hat, sigma in [(0.0, 2.0), (0.2, 2.0), (0.6, 0.6 * 5), (0.9, 0.9 * 5), (1.0, 5.0)]:
            amp = AmplitudeEstimate(a_hat=a_hat, q_applications=21, a_applications=45)
            est = qae_influence(inst, amp, 0.1)
            assert est.sigma == sigma
            assert est.std_error == 0.1 * 5
            assert est.trials_or_calls == 21

    @pytest.mark.parametrize("epsilon", [0.4, 0.2, 0.1, 0.05])
    def test_median_fails_its_stated_error_at_most_1_percent(self, epsilon):
        # One repetition fails with p, the exact outcome mass farther than
        # epsilon from a; the median of three fails when two do: 3p^2 - 2p^3.
        assert QPE_REPETITIONS == 3
        m = evaluation_qubits_for(epsilon)
        grid = np.sin(np.pi * np.arange(1 << m) / (1 << m)) ** 2
        for s in range(30):
            inst = generate_random_instance(
                5, 0.3, p_range=(0.0, 1.0), i_range=(0.0, 1.0), n_seeds=1, lam=1.0, rng_seed=s
            )
            a = exact_influence(inst, ()).sigma / inst.graph.node_count
            dists = [qpe_outcome_distribution(a, m)]
            if len(inst.graph.edges) + 1 + m <= 14:
                dists.append(_statevector_qpe_distribution(build_a_operator(inst, (), m), m))
            for dist in dists:
                p = dist[np.abs(grid - a) > epsilon].sum()
                assert 3 * p**2 - 2 * p**3 <= 0.01, (s, p)


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


@pytest.mark.parametrize(
    "mode, builder, distribution",
    [
        ("statevector", "build_a_operator", "_statevector_qpe_distribution"),
        ("analytic", "exact_influence", "qpe_outcome_distribution"),
    ],
    ids=["statevector", "analytic"],
)
def test_qae_influence_is_one_estimate_on_one_distribution(
    monkeypatch, chain3, mode, builder, distribution
):
    calls = dict.fromkeys([builder, distribution, "qae_estimate"], 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(qae, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qae, name, counted)
    qae_influence_of(chain3, (1,), 0.2, 3, mode)
    assert calls == {builder: 1, distribution: 1, "qae_estimate": 1}


def test_qae_estimate_reads_the_distribution_of_its_arguments():
    instances = [parse_instance(PINNED_INSTANCE), parse_instance(PINNED_INSTANCE)]
    for inst, removal, m, mode in itertools.product(
        instances, [(), (1,)], [3, 4], ["statevector", "analytic"]
    ):
        sub = inst.without_edges(removal)
        if mode == "statevector":
            fresh = _statevector_qpe_distribution(build_a_operator(sub, (), m), m)
        else:
            fresh = qpe_outcome_distribution(exact_influence(sub, ()).sigma / sub.graph.node_count, m)
        for seed in range(3):
            est = qae_estimate(inst, removal, m=m, rng_seed=seed, mode=mode)
            assert est == median_of_reads(fresh, seed)


def test_qae_influence_keeps_nothing_after_the_call(chain3):
    # a first call at another m leaves behind any one-time allocations
    qae_influence_of(chain3, (), 0.2, 0, "analytic")
    assert evaluation_qubits_for(5e-5) == 18
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        qae_influence_of(chain3, (), 5e-5, 0, "analytic")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the 2^18 floats of its outcome distribution are 2 MiB
    assert retained < 64 * 1024


@pytest.mark.parametrize(
    "text",
    [
        # the good part's squares sum to 1 + 2^-51 here on numpy 2.4, past
        # where asin(sqrt(a)) raises
        "nodes 3\n0 1 0.2 0.1\n1 2 0.4 0.1\n2 0 0.1 0.1\n1 0 0.6 0.1\nseeds 0 1 2\nlambda 1.0\n",
        "nodes 4\n0 1 0.9 0.1\n1 2 0.2 0.1\n2 3 0.6 0.1\n3 0 0.5 0.1\nseeds 0 1 2 3\nlambda 1.0\n",
        "nodes 4\n0 1 1.0 0.1\n1 2 1.0 0.1\n2 3 1.0 0.1\nseeds 0\nlambda 1.0\n",
    ],
    ids=["all-seeds-past-1", "all-seeds", "p1-chain"],
)
def test_an_amplitude_of_one_reads_as_one(tmp_path, capsys, text):
    # every node is infected in every configuration, so a = 1, and the
    # statevector readout reads it as 1 wherever the float sum of the good
    # part's squares rounds
    inst = parse_instance(text)
    assert exact_influence(inst, ()).sigma == inst.graph.node_count
    spec = build_a_operator(inst, (), eval_qubits=6)
    one = qpe_outcome_distribution(1.0, 6)
    assert np.array_equal(_statevector_qpe_distribution(spec, 6), one)
    path = tmp_path / "inst.txt"
    path.write_text(text)
    outputs = []
    for analytic in ([], ["--analytic"]):
        argv = ["contain", "--instance", str(path), "--estimator", "qae", "--epsilon", "0.1",
                "--finder", "linear", "--k-max", "2", "--rng", "2", *analytic]
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("m", [3, 7, 14])
def test_an_amplitude_rounded_past_one_reads_as_one(m):
    # 9.000000000000004 / 9, the exact DP's sigma of a 9-node instance whose
    # every node is infected, is 2 ulps above 1, where asin(sqrt(a)) raises
    past = 1.0000000000000004
    assert past > 1.0 and math.sqrt(past) > 1.0
    assert np.array_equal(qpe_outcome_distribution(past, m), qpe_outcome_distribution(1.0, m))


def test_statevector_distribution_at_the_qubit_cap_holds_no_block(tmp_path, capsys):
    # 12 edge qubits, the ancilla and 11 evaluation qubits fill the 24-qubit
    # cap; the (2^11 x 2^13) block of Q rows alone was 256 MiB
    arcs = "".join(f"{u} {v} 0.5 0.1\n" for u in range(4) for v in range(4) if u != v)
    text = f"nodes 4\n{arcs}seeds 0\nlambda 1.0\n"
    inst = parse_instance(text)
    assert len(inst.graph.edges) + 1 + 11 == qsim.MAX_QUBITS
    spec = build_a_operator(inst, (), eval_qubits=11)
    tracemalloc.start()
    try:
        dist = _statevector_qpe_distribution(spec, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(dist.sum() - 1.0) <= 1e-12
    assert peak < 4 << 20
    # through the CLI: epsilon 0.01 takes m = 11, and 0.005 takes m = 12, one qubit past the cap
    path = tmp_path / "inst.txt"
    path.write_text(text)
    argv = ["estimate", "--instance", str(path), "--method", "qae", "--rng", "1", "--epsilon"]
    assert main([*argv, "0.01"]) == 0
    capsys.readouterr()
    assert main([*argv, "0.005"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: statevector QAE needs 25 qubits") and err.endswith("\n")


@pytest.fixture
def tables(monkeypatch):
    """The graph of every ``live_edge_reachability`` call, in order."""
    graphs = []

    def counted(graph, seeds, _original=cascade.live_edge_reachability):
        graphs.append(graph)
        return _original(graph, seeds)

    monkeypatch.setattr(cascade, "live_edge_reachability", counted)
    return graphs


@given(
    st.integers(0, 6).flatmap(lambda m: st.lists(st.floats(0.0, 1.0), min_size=1 << m, max_size=1 << m)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
)
@settings(max_examples=200, deadline=None)
def test_one_readout_call_is_the_median_of_single_draws(weights, seed, runs):
    total = math.fsum(weights)
    if total < 1e-6:
        weights, total = [1.0] * len(weights), float(len(weights))
    dist = np.array(weights) / total
    dim = len(dist)
    rng = np.random.default_rng(seed)
    singles = [float(np.sin(math.pi * int(rng.choice(dim, p=dist)) / dim) ** 2) for _ in range(runs)]
    assert read_estimate(dist, np.random.default_rng(seed), runs) == AmplitudeEstimate(
        a_hat=statistics.median(singles),
        q_applications=runs * (dim - 1),
        a_applications=runs * (2 * (dim - 1) + 1),
    )


@pytest.mark.parametrize(
    "text",
    [
        "nodes 4\n0 1 1.0 0.1\n1 2 0.0 0.2\n2 3 0.5 0.1\n0 2 0.3 0.1\n3 1 1.0 0.1\nseeds 0\nlambda 1.0\n",
        # every removal of an undirected instance drops both arcs of a pair
        "nodes 4\nundirected\n0 1 1.0 0.1\n1 2 0.0 0.2\n2 3 0.6 0.1\n0 3 0.25 0.1\nseeds 0 2\nlambda 1.0\n",
    ],
    ids=["directed", "undirected"],
)
def test_a_removal_slices_the_instance_a_operator_into_the_subgraph_one(tables, text):
    inst = parse_instance(text)
    m = 3
    arcs = range(len(inst.graph.edges))
    for removal in [(), *((k,) for k in arcs), *itertools.combinations(arcs, 2)]:
        sliced = build_a_operator(inst, removal, m)
        own = build_a_operator(inst.without_edges(removal), (), m)
        assert np.array_equal(sliced.f_table, own.f_table)
        assert sliced.edge_angles == own.edge_angles
        assert sliced.n_edge_qubits == own.n_edge_qubits
    assert sum(g is inst.graph for g in tables) == 1


def test_a_qae_plan_builds_one_count_table(monkeypatch, tables, tmp_path, capsys):
    # an undirected chain out of seed 0: each removal drops two edge qubits
    path = tmp_path / "inst.txt"
    path.write_text(
        "nodes 6\nundirected\n0 1 1.0 0.01\n0 2 1.0 0.01\n1 3 1.0 0.01\n2 4 1.0 0.01\n"
        "3 5 0.9 0.01\nseeds 0\nlambda 1.0\n"
    )
    estimated = []

    def recorded(instance, removal, _original=qae.qae_estimate, **kwargs):
        estimated.append((instance, removal))
        return _original(instance, removal, **kwargs)

    monkeypatch.setattr(qae, "qae_estimate", recorded)
    argv = ["contain", "--instance", str(path), "--estimator", "qae", "--epsilon", "0.1",
            "--rng", "3", "--k-max", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # three iterations: two accepted removals, then one with nothing to accept
    assert "removed=2 " in out
    assert len(tables) == 1
    instances = {id(instance) for instance, _ in estimated}
    assert len(instances) == 1 and tables[0] is estimated[0][0].graph
    removals = [removal for _, removal in estimated]
    assert removals[0] == () and len(set(removals)) == len(removals) == 1 + 5 + 4 + 3
    # the printed Q count is one estimate per removal
    q = QPE_REPETITIONS * ((1 << evaluation_qubits_for(0.1)) - 1)
    assert f"q_applications={len(removals) * q} " in out


def test_an_over_cap_instance_builds_no_count_table(monkeypatch, tmp_path, capsys):
    arcs = "".join(f"0 {v} 0.5 0.1\n" for v in range(1, 18))
    path = tmp_path / "inst.txt"
    path.write_text(f"nodes 18\n{arcs}seeds 0\nlambda 1.0\n")

    def refused(graph, seeds):
        raise AssertionError("count table built past the qubit cap")

    monkeypatch.setattr(cascade, "live_edge_reachability", refused)
    argv = ["contain", "--instance", str(path), "--estimator", "qae", "--epsilon", "0.01"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: statevector QAE needs 29 qubits (17 edges + 1 ancilla + 11 evaluation) > cap 24; "
        "rerun with --analytic, which simulates no statevector\n"
    )


def test_the_qubit_cap_is_checked_on_the_intact_instance():
    # 13 arcs, the ancilla and 11 evaluation qubits are one past the cap; without
    # one arc the subgraph fits, but a removal is read from the intact table
    arcs = "".join(f"0 {v} 0.5 0.1\n" for v in range(1, 14))
    inst = parse_instance(f"nodes 14\n{arcs}seeds 0\nlambda 1.0\n")
    assert len(inst.graph.edges) + 1 + 11 == qsim.MAX_QUBITS + 1
    build_a_operator(inst.without_edges((0,)), (), eval_qubits=11)
    with pytest.raises(ValueError, match="needs 25 qubits"):
        qae_estimate(inst, (0,), m=11, rng_seed=0, mode="statevector")
