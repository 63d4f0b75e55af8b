import itertools

import numpy as np
import pytest

from cutclust.errors import ValidationError
from cutclust.graph_model import (
    Dataset,
    IsingDiagonal,
    WeightedGraph,
    all_bitstrings,
    bits_from_index,
    cut_value,
    euclidean_weights,
    ising_from_graph,
    qubo_from_graph,
)
from cutclust.simulator import Statevector, apply_diagonal_phase


def index_from_bits(bits) -> int:
    """Inverse of bits_from_index."""
    bits = np.asarray(bits, dtype=np.int64)
    return int((bits << np.arange(bits.size)).sum())


def brute_force_cut(weights: np.ndarray, bits) -> float:
    """Independent oracle: cut value by direct pair enumeration."""
    n = weights.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if bits[i] != bits[j]:
                total += weights[i, j]
    return total


def random_graph(rng, n) -> WeightedGraph:
    w = rng.uniform(0.0, 10.0, size=(n, n))
    w = np.triu(w, k=1)
    return WeightedGraph(weights=w + w.T)


def triangle(w=1.0) -> WeightedGraph:
    m = np.full((3, 3), w, dtype=float)
    np.fill_diagonal(m, 0.0)
    return WeightedGraph(weights=m)


def single_edge(w=1.0) -> WeightedGraph:
    return WeightedGraph(weights=np.array([[0.0, w], [w, 0.0]]))


class TestBitConvention:
    def test_round_trip(self):
        for n in range(1, 6):
            for k in range(2**n):
                assert index_from_bits(bits_from_index(k, n)) == k

    def test_qubit0_is_lsb(self):
        assert list(bits_from_index(1, 3)) == [1, 0, 0]
        assert list(bits_from_index(4, 3)) == [0, 0, 1]

    def test_all_bitstrings_rows(self):
        table = all_bitstrings(3)
        for k in range(8):
            assert list(table[k]) == list(bits_from_index(k, 3))


class TestEuclideanWeights:
    def test_identical_points_zero_distance(self):
        ds = Dataset(points=np.array([[1.0, 2.0], [1.0, 2.0]]))
        g = euclidean_weights(ds)
        assert g.weights[0, 1] == 0.0

    def test_3_4_5_triangle(self):
        ds = Dataset(points=np.array([[0.0, 0.0], [3.0, 4.0]]))
        g = euclidean_weights(ds)
        assert g.weights[0, 1] == pytest.approx(5.0)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        ds = Dataset(points=rng.normal(size=(6, 4)))
        g = euclidean_weights(ds)
        assert np.array_equal(g.weights, g.weights.T)
        assert np.all(np.diag(g.weights) == 0.0)

    def test_generalizes_beyond_2d(self):
        ds = Dataset(points=np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]))
        g = euclidean_weights(ds)
        assert g.weights[0, 1] == pytest.approx(2.0)

    def test_non_finite_feature_names_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            Dataset(points=np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]]))

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            Dataset(points=np.array([[1.0, 2.0]]))


class TestIsingFromGraph:
    def test_single_edge_energies(self):
        ising = ising_from_graph(single_edge(1.0))
        # bitstring order 00, 01, 10, 11 (qubit 0 = LSB)
        assert np.allclose(ising.energies, [0.0, -1.0, -1.0, 0.0])

    def test_all_zero_weights(self):
        g = WeightedGraph(weights=np.zeros((3, 3)))
        assert np.all(ising_from_graph(g).energies == 0.0)

    def test_triangle_ground_enumeration(self):
        # Oracle: enumerate all 8 bitstrings by hand.
        ising = ising_from_graph(triangle(1.0))
        oracle = np.array(
            [-brute_force_cut(triangle(1.0).weights, bits_from_index(k, 3)) for k in range(8)]
        )
        assert np.allclose(ising.energies, oracle)
        assert ising.energies.min() == pytest.approx(-2.0)
        assert int((np.isclose(ising.energies, -2.0)).sum()) == 6

    def test_qubit_cap(self):
        g = WeightedGraph(weights=np.zeros((15, 15)))
        with pytest.raises(ValidationError, match="15 qubits exceeds the cap of 14"):
            ising_from_graph(g)

    def test_all_zeros_energy_is_zero(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6):
            ising = ising_from_graph(random_graph(rng, n))
            assert ising.energies[0] == 0.0


class TestMirrored:
    """IsingDiagonal.mirrored: E(x) == E(~x) exactly, and the cost phase
    that takes half of the spectrum because of it."""

    @pytest.mark.parametrize("n", [1, 2, 5, 14])
    def test_graph_diagonals_are_mirrored(self, n):
        ising = ising_from_graph(random_graph(np.random.default_rng(n), n))
        assert ising.mirrored is True

    def test_one_perturbed_energy_is_not_mirrored(self):
        energies = ising_from_graph(random_graph(np.random.default_rng(3), 5)).energies.copy()
        assert IsingDiagonal(n=5, energies=energies).mirrored
        energies[6] = np.nextafter(energies[6], np.inf)
        assert IsingDiagonal(n=5, energies=energies).mirrored is False

    @pytest.mark.parametrize("n", [13, 14])
    def test_single_state_phase_equals_the_phase_of_every_energy(self, n):
        # at 14 qubits numpy multiplies into the phase temporary with the
        # operands swapped, so the expression must match the plain one's;
        # the expected value is computed outside the assert, whose
        # rewriting would hold a reference to the temporary
        rng = np.random.default_rng(n)
        ising = ising_from_graph(random_graph(rng, n))
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        gamma = float(rng.uniform(-np.pi, np.pi))
        got = apply_diagonal_phase(Statevector(n=n, amps=psi), gamma, ising)
        expected = psi * np.exp(-1j * gamma * ising.energies)
        assert got.amps.tobytes() == expected.tobytes()


class TestQuboFromGraph:
    def test_single_edge_values(self):
        q = qubo_from_graph(single_edge(1.0))
        assert q.objective([0, 1]) == pytest.approx(1.0)
        assert q.objective([1, 1]) == pytest.approx(0.0)

    def test_all_zeros_is_zero(self):
        rng = np.random.default_rng(3)
        q = qubo_from_graph(random_graph(rng, 5))
        assert q.objective(np.zeros(5)) == 0.0

    def test_triangle_hand_value(self):
        # f(1,1,0) = w01*(1+1-2) + w02*(1+0-0) + w12*(1+0-0) = 2
        g = triangle(1.0)
        q = qubo_from_graph(g)
        assert q.objective([1, 1, 0]) == pytest.approx(2.0)
        assert q.objective([1, 1, 0]) == pytest.approx(cut_value(g, [1, 1, 0]))


class TestCutValue:
    def test_all_zeros(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 4)
        assert cut_value(g, [0, 0, 0, 0]) == 0.0

    def test_complement_symmetry(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 5)
        bits = np.array([1, 0, 1, 1, 0])
        assert cut_value(g, bits) == pytest.approx(cut_value(g, 1 - bits))

    def test_path_both_edges_cut(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        assert cut_value(WeightedGraph(weights=w), [0, 1, 0]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            cut_value(single_edge(), [0, 1, 0])


class TestInvariants:
    def test_ising_plus_cut_is_zero(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            g = random_graph(rng, n)
            ising = ising_from_graph(g)
            for k in range(2**n):
                assert ising.energies[k] + cut_value(g, bits_from_index(k, n)) == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_bit_flip_symmetry(self):
        rng = np.random.default_rng(12)
        for n in (2, 5, 7):
            e = ising_from_graph(random_graph(rng, n)).energies
            mask = 2**n - 1
            for k in range(2**n):
                assert e[k] == e[k ^ mask]

    def test_scaling_covariance(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 5)
        lam = 3.7
        scaled = WeightedGraph(weights=lam * g.weights)
        e1 = ising_from_graph(g).energies
        e2 = ising_from_graph(scaled).energies
        assert np.allclose(e2, lam * e1)
        assert np.array_equal(
            np.isclose(e1, e1.min()), np.isclose(e2, e2.min())
        )

    def test_qubo_ising_consistency(self):
        rng = np.random.default_rng(14)
        for n in (2, 4, 6):
            g = random_graph(rng, n)
            q = qubo_from_graph(g)
            e = ising_from_graph(g).energies
            for bits in itertools.product((0, 1), repeat=n):
                k = index_from_bits(np.array(bits))
                assert q.objective(bits) == pytest.approx(-e[k], abs=1e-9)
