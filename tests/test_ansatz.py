import numpy as np
import pytest
import scipy.linalg

from cutclust.ansatz import (
    QaoaParams,
    VqeParams,
    WarmStart,
    build_qaoa_state,
    build_vqe_state,
    build_ws_qaoa_state,
    vqe_param_count,
    _mixer_unitaries,
    ws_mixer_hamiltonian,
)
from cutclust.errors import ValidationError
from cutclust.graph_model import WeightedGraph, ising_from_graph
from cutclust.simulator import expectation_diagonal, probabilities


def is_unitary(u: np.ndarray, tol: float = 1e-9) -> bool:
    u = np.asarray(u)
    return u.shape == (2, 2) and np.allclose(u.conj().T @ u, np.eye(2), atol=tol)


def single_edge_ising(w=1.0):
    return ising_from_graph(WeightedGraph(weights=np.array([[0.0, w], [w, 0.0]])))


def random_ising(rng, n):
    w = rng.uniform(0.0, 5.0, size=(n, n))
    w = np.triu(w, k=1)
    return ising_from_graph(WeightedGraph(weights=w + w.T))


def qaoa_grid_oracle(w, betas, gammas):
    """Independent 2-qubit dense-matrix oracle for single-edge p=1 QAOA.

    Builds everything from explicit 4x4 matrices: diag phase from the
    energies {0,-w,-w,0}, mixer layer from expm of -i beta (X0 + X1).
    """
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    total_x = np.kron(eye, x) + np.kron(x, eye)
    energies = np.array([0.0, -w, -w, 0.0])
    plus = np.full(4, 0.5, dtype=complex)
    best = np.inf
    argbest = None
    for beta in betas:
        mix = scipy.linalg.expm(-1j * beta * total_x)
        for gamma in gammas:
            psi = mix @ (np.exp(-1j * gamma * energies) * plus)
            val = float((np.abs(psi) ** 2) @ energies)
            if val < best:
                best, argbest = val, (beta, gamma)
    return best, argbest


class TestQaoaParams:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            QaoaParams(betas=[0.1, 0.2], gammas=[0.3])

    def test_zero_depth_rejected(self):
        with pytest.raises(ValidationError):
            QaoaParams(betas=[], gammas=[])


class TestBuildQaoaState:
    def test_identity_layers_give_plus(self):
        ising = single_edge_ising()
        state = build_qaoa_state(ising, QaoaParams(betas=[0.0], gammas=[0.0]))
        assert np.allclose(state.amps, 0.5)
        assert expectation_diagonal(state, ising) == pytest.approx(ising.energies.mean())

    def test_single_edge_grid_reaches_minus_w(self):
        # oracle grid: fine enough that the optimum -1 is hit within 1e-3
        betas = np.linspace(0.0, np.pi, 81)
        gammas = np.linspace(0.0, np.pi, 81)
        oracle_best, (b_star, g_star) = qaoa_grid_oracle(1.0, betas, gammas)
        assert oracle_best == pytest.approx(-1.0, abs=1e-3)

        ising = single_edge_ising(1.0)
        ours = min(
            expectation_diagonal(
                build_qaoa_state(ising, QaoaParams(betas=[b], gammas=[g])), ising
            )
            for b in betas
            for g in gammas
        )
        assert ours == pytest.approx(oracle_best, abs=1e-9)

    def test_norm_one(self):
        rng = np.random.default_rng(0)
        ising = random_ising(rng, 3)
        params = QaoaParams(betas=rng.normal(size=2), gammas=rng.normal(size=2))
        assert build_qaoa_state(ising, params).norm_error() < 1e-9


def mixer_unitary(c: float, beta: float) -> np.ndarray:
    """exp(-i beta H(c)) as the ws-QAOA layers build it."""
    return _mixer_unitaries(ws_mixer_hamiltonian(c), beta)


class TestWsMixer:
    def test_beta_zero_identity(self):
        assert np.allclose(mixer_unitary(0.3, 0.0), np.eye(2))

    def test_c_half_is_minus_x(self):
        # H(-X) => exp(-i beta H) = cos(beta) I + i sin(beta) X
        beta = 0.77
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(ws_mixer_hamiltonian(0.5), -x)
        expected = np.cos(beta) * np.eye(2) + 1j * np.sin(beta) * x
        assert np.allclose(mixer_unitary(0.5, beta), expected)

    def test_matches_numeric_exponential(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = float(rng.uniform(0.01, 0.99))
            beta = float(rng.uniform(-np.pi, np.pi))
            numeric = scipy.linalg.expm(-1j * beta * ws_mixer_hamiltonian(c))
            assert np.allclose(mixer_unitary(c, beta), numeric, atol=1e-12)

    def test_unitary_everywhere(self):
        for c in np.linspace(0.05, 0.95, 19):
            for beta in np.linspace(-3.0, 3.0, 13):
                assert is_unitary(mixer_unitary(float(c), float(beta)))

    def test_boundary_c_rejected(self):
        for c in (-0.1, 1.1):
            with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
                WarmStart([0.5, c])

    def test_nan_c_rejected(self):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            WarmStart([float("nan"), 0.5])

    def test_binary_c_rejected_by_builder(self):
        # WarmStart accepts 0 and 1; the ws-QAOA builder needs clipped values
        for c in (0.0, 1.0):
            with pytest.raises(ValidationError, match="strictly inside"):
                build_ws_qaoa_state(
                    single_edge_ising(),
                    WarmStart([0.5, c]),
                    QaoaParams(betas=[0.1], gammas=[0.1]),
                )

    def test_eigen_structure(self):
        # eigenvalues {-1, +1}; R_y(theta)|0> is the -1 eigenvector
        for c in np.linspace(0.02, 0.98, 25):
            h = ws_mixer_hamiltonian(float(c))
            vals = np.sort(np.linalg.eigvalsh(h))
            assert np.allclose(vals, [-1.0, 1.0], atol=1e-9)
            theta = 2.0 * np.arcsin(np.sqrt(c))
            vec = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex)
            assert np.allclose(h @ vec, -vec, atol=1e-9)


class TestBuildWsQaoaState:
    def test_all_half_gives_uniform_plus(self):
        ws = WarmStart([0.5, 0.5, 0.5])
        rng = np.random.default_rng(2)
        ising = random_ising(rng, 3)
        state = build_ws_qaoa_state(ising, ws, QaoaParams(betas=[0.0], gammas=[0.0]))
        assert np.allclose(state.amps, 2.0 ** (-1.5))

    def test_clipped_binary_optimum_mass(self):
        # c* = clip((1, 0), 0.1) = (0.9, 0.1); P(bitstring (1,0)) = 0.9 * 0.9
        ws = WarmStart([0.9, 0.1])
        state = build_ws_qaoa_state(
            single_edge_ising(), ws, QaoaParams(betas=[0.0], gammas=[0.0])
        )
        probs = probabilities(state)
        # qubit 0 = 1, qubit 1 = 0 -> index 1
        assert probs[1] == pytest.approx(0.81)

    def test_initial_state_is_minus_one_eigenvector(self):
        # applying the mixer only (gamma = 0) leaves probabilities unchanged
        rng = np.random.default_rng(3)
        ising = random_ising(rng, 3)
        ws = WarmStart(rng.uniform(0.1, 0.9, size=3))
        ref = build_ws_qaoa_state(ising, ws, QaoaParams(betas=[0.0], gammas=[0.0]))
        for beta in (0.3, 1.1, -0.8):
            state = build_ws_qaoa_state(ising, ws, QaoaParams(betas=[beta], gammas=[0.0]))
            assert np.allclose(probabilities(state), probabilities(ref), atol=1e-12)
            # global phase exp(i beta n) per layer since eigenvalue is -1 on every qubit
            phase = np.exp(1j * beta * ising.n)
            assert np.allclose(state.amps, phase * ref.amps, atol=1e-9)

    def test_degenerates_to_qaoa_at_half(self):
        # mixer at c = 0.5 is -X, so ws(beta) equals plain QAOA at -beta
        rng = np.random.default_rng(4)
        for n in (2, 3):
            ising = random_ising(rng, n)
            ws = WarmStart(np.full(n, 0.5))
            for beta in np.linspace(-1.0, 1.0, 5):
                for gamma in np.linspace(-1.0, 1.0, 5):
                    ws_state = build_ws_qaoa_state(
                        ising, ws, QaoaParams(betas=[beta], gammas=[gamma])
                    )
                    qaoa_state = build_qaoa_state(
                        ising, QaoaParams(betas=[-beta], gammas=[gamma])
                    )
                    assert np.allclose(
                        probabilities(ws_state), probabilities(qaoa_state), atol=1e-6
                    )

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            build_ws_qaoa_state(
                single_edge_ising(),
                WarmStart([0.5, 0.5, 0.5]),
                QaoaParams(betas=[0.1], gammas=[0.1]),
            )


class TestBuildVqeState:
    def test_zero_angles_keep_ground(self):
        state = build_vqe_state(3, VqeParams(angles=np.zeros(18), reps=5))
        assert state.amps[0] == pytest.approx(1.0)

    def test_single_qubit_pi(self):
        angles = np.array([np.pi, 0, 0, 0, 0, 0])
        state = build_vqe_state(1, VqeParams(angles=angles, reps=5))
        assert np.allclose(state.amps, [0.0, 1.0])

    def test_norm_one(self):
        rng = np.random.default_rng(5)
        state = build_vqe_state(4, VqeParams(angles=rng.normal(size=24), reps=5))
        assert state.norm_error() < 1e-9

    def test_wrong_count_lists_expected(self):
        with pytest.raises(ValidationError, match="12"):
            build_vqe_state(3, VqeParams(angles=np.zeros(7), reps=3))

    def test_param_count_formula(self):
        for n in range(1, 7):
            for reps in (0, 1, 5):
                count = vqe_param_count(n, reps)
                assert count == n * (reps + 1)
                state = build_vqe_state(n, VqeParams(angles=np.zeros(count), reps=reps))
                assert state.amps.shape == (2**n,)


class TestVariationalBound:
    def test_all_ansaetze_respect_ground_energy(self):
        rng = np.random.default_rng(6)
        ising = random_ising(rng, 4)
        ground = ising.energies.min()
        for _ in range(50):
            q = QaoaParams(betas=rng.normal(size=2), gammas=rng.normal(size=2))
            assert expectation_diagonal(build_qaoa_state(ising, q), ising) >= ground - 1e-9
            ws = WarmStart(rng.uniform(0.05, 0.95, size=4))
            assert (
                expectation_diagonal(build_ws_qaoa_state(ising, ws, q), ising)
                >= ground - 1e-9
            )
            v = VqeParams(angles=rng.uniform(-np.pi, np.pi, size=24), reps=5)
            assert expectation_diagonal(build_vqe_state(4, v), ising) >= ground - 1e-9
