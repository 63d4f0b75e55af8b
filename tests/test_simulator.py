import numpy as np
import pytest
import scipy.linalg

from cutclust.errors import ResourceLimitError, ValidationError
from cutclust.graph_model import IsingDiagonal, WeightedGraph, ising_from_graph
from cutclust.simulator import (
    Statevector,
    apply_1q,
    apply_cnot,
    apply_diagonal_phase,
    expectation_diagonal,
    new_state,
    probabilities,
    rx,
    ry,
    sample_counts,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]])


def is_unitary(u: np.ndarray, tol: float = 1e-9) -> bool:
    u = np.asarray(u)
    return u.shape == (2, 2) and np.allclose(u.conj().T @ u, np.eye(2), atol=tol)


def single_edge_ising(w=1.0) -> IsingDiagonal:
    g = WeightedGraph(weights=np.array([[0.0, w], [w, 0.0]]))
    return ising_from_graph(g)


def random_state(rng, n) -> Statevector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return Statevector(n=n, amps=amps)


def states_close_up_to_phase(a, b, tol=1e-9):
    return abs(abs(np.vdot(a, b)) - 1.0) < tol


class TestNewState:
    def test_zeros_1q(self):
        s = new_state(1, "zeros")
        assert np.allclose(s.amps, [1.0, 0.0])

    def test_plus_2q(self):
        s = new_state(2, "plus")
        assert np.allclose(s.amps, [0.5, 0.5, 0.5, 0.5])

    def test_plus_3q_norm(self):
        assert new_state(3, "plus").norm_error() < 1e-12

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            new_state(15)

    def test_bad_init(self):
        with pytest.raises(ValidationError):
            new_state(2, "bell")


class TestGateConstructors:
    def test_rotations_unitary(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
            for gate in (rx, ry, rz):
                assert is_unitary(gate(theta))

    def test_ry_pi_flips(self):
        s = apply_1q(new_state(1), 0, ry(np.pi))
        assert np.allclose(s.amps, [0.0, 1.0])  # amplitude +1, not -1

    def test_ry_definition(self):
        theta = 0.813
        s = apply_1q(new_state(1), 0, ry(theta))
        assert np.allclose(s.amps, [np.cos(theta / 2), np.sin(theta / 2)])


class TestApply1q:
    def test_identity_unchanged_bitwise(self):
        rng = np.random.default_rng(1)
        s = random_state(rng, 3)
        out = apply_1q(s, 1, np.eye(2))
        assert np.array_equal(out.amps, s.amps)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_1q(new_state(2), 2, np.eye(2))

    def test_acts_on_indexed_qubit(self):
        # X on qubit 1 of |00> gives |10> (index 2)
        out = apply_1q(new_state(2), 1, PAULI_X)
        assert np.allclose(out.amps, [0, 0, 1, 0])

    def test_disjoint_qubits_commute(self):
        rng = np.random.default_rng(2)
        s = random_state(rng, 4)
        u, v = rx(0.7), ry(1.3)
        ab = apply_1q(apply_1q(s, 0, u), 3, v)
        ba = apply_1q(apply_1q(s, 3, v), 0, u)
        assert np.allclose(ab.amps, ba.amps, atol=1e-12)


class TestApplyCnot:
    def test_control1_flips_target(self):
        # |10> (qubit 1 set) with control=1, target=0 -> |11>
        s = Statevector(n=2, amps=np.array([0, 0, 1, 0], dtype=complex))
        out = apply_cnot(s, control=1, target=0)
        assert np.allclose(out.amps, [0, 0, 0, 1])

    def test_control0_unchanged(self):
        # |01> (qubit 0 set) with control=1 stays put
        s = Statevector(n=2, amps=np.array([0, 1, 0, 0], dtype=complex))
        out = apply_cnot(s, control=1, target=0)
        assert np.allclose(out.amps, s.amps)

    def test_involution(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        out = apply_cnot(apply_cnot(s, 0, 2), 0, 2)
        assert np.allclose(out.amps, s.amps)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValidationError):
            apply_cnot(new_state(2), 1, 1)


class TestDiagonalPhase:
    def test_gamma_zero_identity(self):
        rng = np.random.default_rng(4)
        s = random_state(rng, 2)
        out = apply_diagonal_phase(s, 0.0, single_edge_ising())
        assert np.allclose(out.amps, s.amps)

    def test_pure_phase_on_probabilities(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 2)
        out = apply_diagonal_phase(s, 1.234, single_edge_ising())
        assert np.allclose(probabilities(out), probabilities(s))

    def test_additivity(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 2)
        ising = single_edge_ising(2.5)
        once = apply_diagonal_phase(s, 0.7 + 0.9, ising)
        twice = apply_diagonal_phase(apply_diagonal_phase(s, 0.7, ising), 0.9, ising)
        assert np.allclose(once.amps, twice.amps)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            apply_diagonal_phase(new_state(3), 0.1, single_edge_ising())


class TestExpectation:
    def test_basis_state_exact(self):
        ising = single_edge_ising(1.0)
        for k in range(4):
            amps = np.zeros(4, dtype=complex)
            amps[k] = 1.0
            s = Statevector(n=2, amps=amps)
            assert expectation_diagonal(s, ising) == ising.energies[k]

    def test_uniform_plus_single_edge(self):
        # mean of {0, -1, -1, 0}
        assert expectation_diagonal(new_state(2, "plus"), single_edge_ising()) == pytest.approx(
            -0.5
        )

    def test_zero_weights(self):
        ising = IsingDiagonal(n=2, energies=np.zeros(4))
        rng = np.random.default_rng(7)
        assert expectation_diagonal(random_state(rng, 2), ising) == 0.0

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(8)
        ising = single_edge_ising(3.0)
        for _ in range(20):
            val = expectation_diagonal(random_state(rng, 2), ising)
            assert ising.energies.min() - 1e-12 <= val <= ising.energies.max() + 1e-12


class TestProbabilities:
    def test_ground_register(self):
        p = probabilities(new_state(3))
        assert p[0] == 1.0 and np.all(p[1:] == 0.0)

    def test_uniform(self):
        assert np.allclose(probabilities(new_state(2, "plus")), 0.25)

    def test_nonnegative_and_normalized(self):
        rng = np.random.default_rng(9)
        p = probabilities(random_state(rng, 4))
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-9


class TestSampleCounts:
    def test_basis_state_all_mass(self):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        counts = sample_counts(Statevector(n=2, amps=amps), shots=100, seed=0)
        assert counts == {"10": 100}

    def test_deterministic(self):
        s = new_state(3, "plus")
        assert sample_counts(s, 500, seed=42) == sample_counts(s, 500, seed=42)

    def test_counts_sum_to_shots(self):
        s = new_state(3, "plus")
        assert sum(sample_counts(s, 999, seed=1).values()) == 999

    def test_binomial_5_sigma(self):
        shots = 100_000
        counts = sample_counts(new_state(1, "plus"), shots, seed=7)
        sigma = np.sqrt(shots * 0.25)
        for key in ("0", "1"):
            assert abs(counts[key] - shots / 2) < 5 * sigma

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            sample_counts(new_state(1), 0, seed=0)


class TestCircuitInvariants:
    def test_norm_preserved_after_random_sequence(self):
        rng = np.random.default_rng(10)
        ising = single_edge_ising(1.7)
        s = new_state(2, "plus")
        for _ in range(200):
            op = rng.integers(3)
            if op == 0:
                s = apply_1q(s, int(rng.integers(2)), ry(float(rng.normal())))
            elif op == 1:
                s = apply_cnot(s, 0, 1)
            else:
                s = apply_diagonal_phase(s, float(rng.normal()), ising)
        assert s.norm_error() < 1e-9

    def test_rx_layer_matches_matrix_exponential(self):
        # independent oracle: exp(-i beta sum_j X_j) built by kron + expm
        rng = np.random.default_rng(11)
        for n in range(1, 5):
            beta = float(rng.uniform(-np.pi, np.pi))
            s = random_state(rng, n)
            layered = s
            for q in range(n):
                layered = apply_1q(layered, q, rx(2.0 * beta))
            total_x = np.zeros((2**n, 2**n), dtype=complex)
            for q in range(n):
                ops = [np.eye(2, dtype=complex)] * n
                ops[q] = PAULI_X
                term = ops[-1]  # kron convention: qubit n-1 is the leftmost factor
                for m in ops[-2::-1]:
                    term = np.kron(term, m)
                total_x += term
            oracle = scipy.linalg.expm(-1j * beta * total_x) @ s.amps
            assert states_close_up_to_phase(layered.amps, oracle)
