"""The simulator's kernels on single states: one-row calls of the row
kernels, with a single gate applied as a layer of identities and that gate."""

import numpy as np
import pytest
import scipy.linalg

from cutclust.graph_model import IsingDiagonal, WeightedGraph, ising_from_graph, mirror
from cutclust.optimizer import make_ansatz
from cutclust.simulator import (
    _half_phases,
    apply_layer_rows,
    apply_phase_rows,
    cnot_perm,
    draw_counts,
    expectation_rows,
    gather_rows,
    probability_rows,
    product_rows,
    ry,
)
from test_kernels import rx

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]])


def is_unitary(u: np.ndarray, tol: float = 1e-9) -> bool:
    u = np.asarray(u)
    return u.shape == (2, 2) and np.allclose(u.conj().T @ u, np.eye(2), atol=tol)


def single_edge_ising(w=1.0) -> IsingDiagonal:
    g = WeightedGraph(weights=np.array([[0.0, w], [w, 0.0]]))
    return ising_from_graph(g)


def qubits(psi: np.ndarray) -> int:
    return psi.shape[1].bit_length() - 1


def zeros_row(n: int) -> np.ndarray:
    """|0...0> as one complex row."""
    psi = np.zeros((1, 2**n), dtype=complex)
    psi[0, 0] = 1.0
    return psi


def plus_row(n: int) -> np.ndarray:
    """|+...+> as one complex row."""
    return np.full((1, 2**n), 2.0 ** (-n / 2.0), dtype=complex)


def qaoa_start(ising: IsingDiagonal) -> np.ndarray:
    """Standard QAOA's state at zero angles, where every layer is the
    identity: its start state, as one row."""
    prepare, dim = make_ansatz("qaoa", ising)
    return prepare(np.zeros((1, dim)), np.zeros(1, dtype=int))


def random_state(rng, n) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return amps[None]


def norm_error(psi: np.ndarray) -> float:
    return abs(float(np.abs(psi[0]).dot(np.abs(psi[0]))) - 1.0)


def apply_1q(psi: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """Gate u on one qubit of the row: a layer of identities but u."""
    gates = np.zeros((1, qubits(psi), 2, 2), dtype=np.result_type(u))
    gates[:] = np.eye(2)
    gates[0, qubit] = u
    return apply_layer_rows(psi, gates)


def apply_cnot(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    return gather_rows(psi, cnot_perm(qubits(psi), control, target))


def apply_diagonal_phase(psi: np.ndarray, gamma: float, ising: IsingDiagonal) -> np.ndarray:
    return apply_phase_rows(psi, mirror(_half_phases(np.array([gamma]), ising)), ising.n)


def expectation(psi: np.ndarray, ising: IsingDiagonal) -> float:
    return float(expectation_rows(probability_rows(psi), ising.energies)[0])


def states_close_up_to_phase(a, b, tol=1e-9):
    return abs(abs(np.vdot(a, b)) - 1.0) < tol


class TestNewState:
    """The start states the builders use: VQE's |0...0> from a product of
    zero-angle R_y columns, and QAOA's |+...+>."""

    def test_zeros_1q(self):
        psi = product_rows(ry(np.zeros((1, 1)))[..., 0])
        assert np.allclose(psi[0], [1.0, 0.0])

    def test_plus_2q(self):
        psi = qaoa_start(single_edge_ising())
        assert np.allclose(psi[0], [0.5, 0.5, 0.5, 0.5])

    def test_plus_3q_norm(self):
        psi = qaoa_start(ising_from_graph(WeightedGraph(weights=np.ones((3, 3)) - np.eye(3))))
        assert np.allclose(psi[0], 8**-0.5)
        assert norm_error(psi) < 1e-12


class TestGateConstructors:
    def test_rotations_unitary(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
            for gate in (rx, ry, rz):
                assert is_unitary(gate(theta))

    def test_ry_pi_flips(self):
        s = apply_1q(zeros_row(1), 0, ry(np.pi))
        assert np.allclose(s[0], [0.0, 1.0])  # amplitude +1, not -1

    def test_ry_definition(self):
        theta = 0.813
        s = apply_1q(zeros_row(1), 0, ry(theta))
        assert np.allclose(s[0], [np.cos(theta / 2), np.sin(theta / 2)])


class TestApply1q:
    def test_identity_unchanged_bitwise(self):
        rng = np.random.default_rng(1)
        s = random_state(rng, 3)
        out = apply_1q(s, 1, np.eye(2))
        assert np.array_equal(out, s)

    def test_acts_on_indexed_qubit(self):
        # X on qubit 1 of |00> gives |10> (index 2)
        out = apply_1q(zeros_row(2), 1, PAULI_X)
        assert np.allclose(out[0], [0, 0, 1, 0])

    def test_disjoint_qubits_commute(self):
        rng = np.random.default_rng(2)
        s = random_state(rng, 4)
        u, v = rx(0.7), ry(1.3)
        ab = apply_1q(apply_1q(s, 0, u), 3, v)
        ba = apply_1q(apply_1q(s, 3, v), 0, u)
        assert np.allclose(ab, ba, atol=1e-12)


class TestApplyCnot:
    def test_control1_flips_target(self):
        # |10> (qubit 1 set) with control=1, target=0 -> |11>
        s = np.array([[0, 0, 1, 0]], dtype=complex)
        out = apply_cnot(s, control=1, target=0)
        assert np.allclose(out[0], [0, 0, 0, 1])

    def test_control0_unchanged(self):
        # |01> (qubit 0 set) with control=1 stays put
        s = np.array([[0, 1, 0, 0]], dtype=complex)
        out = apply_cnot(s, control=1, target=0)
        assert np.allclose(out, s)

    def test_involution(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        out = apply_cnot(apply_cnot(s, 0, 2), 0, 2)
        assert np.allclose(out, s)


class TestDiagonalPhase:
    def test_gamma_zero_identity(self):
        rng = np.random.default_rng(4)
        s = random_state(rng, 2)
        out = apply_diagonal_phase(s, 0.0, single_edge_ising())
        assert np.allclose(out, s)

    def test_pure_phase_on_probabilities(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 2)
        out = apply_diagonal_phase(s, 1.234, single_edge_ising())
        assert np.allclose(probability_rows(out), probability_rows(s))

    def test_additivity(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 2)
        ising = single_edge_ising(2.5)
        once = apply_diagonal_phase(s, 0.7 + 0.9, ising)
        twice = apply_diagonal_phase(apply_diagonal_phase(s, 0.7, ising), 0.9, ising)
        assert np.allclose(once, twice)


class TestExpectation:
    def test_basis_state_exact(self):
        ising = single_edge_ising(1.0)
        for k in range(4):
            amps = np.zeros((1, 4), dtype=complex)
            amps[0, k] = 1.0
            assert expectation(amps, ising) == ising.energies[k]

    def test_uniform_plus_single_edge(self):
        # mean of {0, -1, -1, 0}
        assert expectation(plus_row(2), single_edge_ising()) == pytest.approx(-0.5)

    def test_zero_weights(self):
        ising = IsingDiagonal(n=2, energies=np.zeros(4))
        rng = np.random.default_rng(7)
        assert expectation(random_state(rng, 2), ising) == 0.0

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(8)
        ising = single_edge_ising(3.0)
        for _ in range(20):
            val = expectation(random_state(rng, 2), ising)
            assert ising.energies.min() - 1e-12 <= val <= ising.energies.max() + 1e-12


class TestProbabilities:
    def test_ground_register(self):
        p = probability_rows(zeros_row(3))[0]
        assert p[0] == 1.0 and np.all(p[1:] == 0.0)

    def test_uniform(self):
        assert np.allclose(probability_rows(plus_row(2)), 0.25)

    def test_nonnegative_and_normalized(self):
        rng = np.random.default_rng(9)
        p = probability_rows(random_state(rng, 4))[0]
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-9


class TestSampleCounts:
    """draw_counts, the one multinomial draw: counts per basis index."""

    def test_basis_state_all_mass(self):
        amps = np.zeros((1, 4), dtype=complex)
        amps[0, 2] = 1.0
        counts = draw_counts(probability_rows(amps)[0], shots=100, seed=0)
        assert counts.tolist() == [0, 0, 100, 0]

    def test_deterministic(self):
        p = probability_rows(plus_row(3))[0]
        assert np.array_equal(draw_counts(p, 500, seed=42), draw_counts(p, 500, seed=42))

    def test_counts_sum_to_shots(self):
        p = probability_rows(plus_row(3))[0]
        assert draw_counts(p, 999, seed=1).sum() == 999

    def test_binomial_5_sigma(self):
        shots = 100_000
        counts = draw_counts(probability_rows(plus_row(1))[0], shots, seed=7)
        sigma = np.sqrt(shots * 0.25)
        for index in (0, 1):
            assert abs(counts[index] - shots / 2) < 5 * sigma


class TestCircuitInvariants:
    def test_norm_preserved_after_random_sequence(self):
        rng = np.random.default_rng(10)
        ising = single_edge_ising(1.7)
        s = plus_row(2)
        for _ in range(200):
            op = rng.integers(3)
            if op == 0:
                s = apply_1q(s, int(rng.integers(2)), ry(float(rng.normal())))
            elif op == 1:
                s = apply_cnot(s, 0, 1)
            else:
                s = apply_diagonal_phase(s, float(rng.normal()), ising)
        assert norm_error(s) < 1e-9

    def test_rx_layer_matches_matrix_exponential(self):
        # independent oracle: exp(-i beta sum_j X_j) built by kron + expm
        rng = np.random.default_rng(11)
        for n in range(1, 5):
            beta = float(rng.uniform(-np.pi, np.pi))
            s = random_state(rng, n)
            layered = apply_layer_rows(s, np.broadcast_to(rx(2.0 * beta), (1, n, 2, 2)))
            total_x = np.zeros((2**n, 2**n), dtype=complex)
            for q in range(n):
                ops = [np.eye(2, dtype=complex)] * n
                ops[q] = PAULI_X
                term = ops[-1]  # kron convention: qubit n-1 is the leftmost factor
                for m in ops[-2::-1]:
                    term = np.kron(term, m)
                total_x += term
            oracle = scipy.linalg.expm(-1j * beta * total_x) @ s[0]
            assert states_close_up_to_phase(layered[0], oracle)
