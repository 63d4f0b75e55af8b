"""Tests for the row kernels and the row builders of the three ansaetze.

Three kinds of check:
  - bit identity: row r of a batch equals the same state prepared on its
    own (one-row call), for every ansatz and several batch sizes, over
    the row cap too, and a state keeps its bytes when numpy cannot
    compute the cost phase in place in its temporary;
  - bit identity of each layer shortcut against the plain computation it
    replaces: the layer kernel against a loop of one-gate calls, the
    product first layer against the gates applied to |0...0>, the
    mirrored cost phase against the phase of every energy, half-state
    QAOA against the whole state, the stacked expectation against one
    dot per row, gate stacks filled in place against stacked entries, and
    VQE's matrix-product layers, whose factors are built for all layers
    at once, against layers that build their own;
  - independent oracles: the closed-form depth-1 QAOA energy on
    weighted max-cut (Wang, Hadfield, Jiang & Rieffel, PRA 97, 022304),
    which shares no code with the simulator, a dense np.kron matrix
    for the matrix-product R_y layer, which is checked within KRON_BOUND
    only, since BLAS sums in its own order, a dense scipy.linalg.expm
    ws-QAOA state at interior warm starts c != 1/2, and the depth-1 QAOA
    and ws-QAOA energy from two-qubit marginals, up to the qubit cap.
"""

import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import cutclust.graph_model as graph_model
import cutclust.optimizer as optimizer
from cutclust.ansatz import (
    WarmStart,
    qaoa_half_rows,
    qaoa_rows,
    vqe_rows,
    ws_mixer_hamiltonian,
)
from cutclust.graph_model import QUBIT_CAP, IsingDiagonal, WeightedGraph, ising_from_graph, mirror
from cutclust.errors import ValidationError
from cutclust.optimizer import (
    make_ansatz,
    make_objective,
    row_energies,
    row_probabilities,
    state_probabilities,
)
from cutclust.simulator import (
    DOT_PIECE,
    KRON_MIN_QUBITS,
    _half_phases,
    apply_kron_layer_rows,
    apply_layer_rows,
    apply_phase_rows,
    cnot_chain_perm,
    cnot_perm,
    expectation_rows,
    gather_rows,
    kron_factors,
    probability_rows,
    product_rows,
    row_cap,
    ry,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
ROWS = (1, 2, 4, 20)
# the largest distance of the matrix-product layer from its references on
# unit-norm real states, per amplitude or probability: BLAS sums in its own
# order, which moves results by a few ulps
KRON_BOUND = 1e-12


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def apply_1q_rows(psi: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """Apply gate u[r] (shape (rows, 2, 2)) to the indexed qubit of row r."""
    rows = psi.shape[0]
    # view amplitudes as (row, high bits, target bit, low bits)
    v = psi.reshape(rows, -1, 2, 1 << qubit)
    a0, a1 = v[:, :, 0], v[:, :, 1]
    u = u[..., None, None]
    # allocate the output before the temporaries: the other order costs
    # 10-15% per gate at 14 qubits
    out = np.empty(v.shape, np.result_type(psi, u))
    out[:, :, 0] = u[:, 0, 0] * a0 + u[:, 0, 1] * a1
    out[:, :, 1] = u[:, 1, 0] * a0 + u[:, 1, 1] * a1
    return out.reshape(rows, -1)


def transverse_field(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard QAOA's mixer Hamiltonian X on every qubit and its start
    |+...+>, one row each, as the whole-state builder qaoa_rows takes them:
    the reference that half-state QAOA must equal bit for bit."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.broadcast_to(x, (1, n, 2, 2)), np.full((1, 2**n), 2.0 ** (-n / 2.0))


def random_graph(rng, n, high=1.0):
    w = np.triu(rng.uniform(0.0, high, size=(n, n)), k=1)
    return WeightedGraph(weights=w + w.T)


def random_rows(rng, rows, n, dtype=complex):
    psi = rng.normal(size=(rows, 2**n))
    if dtype is complex:
        psi = psi + 1j * rng.normal(size=(rows, 2**n))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def closed_form_p1(weights, beta, gamma):
    """<E> of depth-1 QAOA with E(x) = -cut(x), by the closed form.

    E = -W/2 + sum_{u<v} J_uv <Z_u Z_v> with J = w/2, and for the state
    exp(-i beta sum X) exp(-i gamma sum J Z Z) |+...+>:
        <Z_u Z_v> = sin(4 beta)/2 * sin(2 gamma J_uv)
                      * (prod_w cos(2 gamma J_uw) + prod_w cos(2 gamma J_vw))
                  + sin(2 beta)^2 / 2
                      * (prod_w cos(2 gamma (J_uw - J_vw))
                         - prod_w cos(2 gamma (J_uw + J_vw)))
    with every product over w != u, v.
    """
    j = np.asarray(weights) / 2.0
    n = j.shape[0]
    energy = -float(np.triu(weights, k=1).sum()) / 2.0
    for u in range(n):
        for v in range(u + 1, n):
            others = [w for w in range(n) if w not in (u, v)]
            ju, jv = j[u, others], j[v, others]
            zz = np.sin(4 * beta) / 2 * np.sin(2 * gamma * j[u, v]) * (
                np.prod(np.cos(2 * gamma * ju)) + np.prod(np.cos(2 * gamma * jv))
            ) + np.sin(2 * beta) ** 2 / 2 * (
                np.prod(np.cos(2 * gamma * (ju - jv))) - np.prod(np.cos(2 * gamma * (ju + jv)))
            )
            energy += j[u, v] * zz
    return energy


class TestClosedFormOracle:
    def test_one_edge_fixes_the_sign(self):
        # criterion 5: one edge of weight w reaches -w; the closed form
        # gives -w/2 (1 - sin(4 beta) sin(gamma w)), minimal at
        # beta = -pi/8, gamma = pi / (2 w)
        w = 2.5
        weights = np.array([[0.0, w], [w, 0.0]])
        assert closed_form_p1(weights, -np.pi / 8, np.pi / (2 * w)) == pytest.approx(-w, abs=1e-12)
        objective, _ = make_objective("qaoa", ising_from_graph(WeightedGraph(weights=weights)))
        assert objective(np.array([-np.pi / 8, np.pi / (2 * w)])) == pytest.approx(-w, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 14])
    def test_batched_kernel_matches_closed_form(self, n):
        rng = np.random.default_rng(100 + n)
        graph = random_graph(rng, n)
        ising = ising_from_graph(graph)
        rows = 3
        betas = rng.uniform(-np.pi, np.pi, size=(rows, 1))
        gammas = rng.uniform(-np.pi, np.pi, size=(rows, 1))
        psi = qaoa_rows(ising, *transverse_field(n), betas, gammas)
        energies = expectation_rows(probability_rows(psi), ising.energies)
        for r in range(rows):
            expected = closed_form_p1(graph.weights, betas[r, 0], gammas[r, 0])
            assert abs(energies[r] - expected) <= 1e-10 * max(1.0, abs(expected))


def dense_ws_qaoa(energies, c, betas, gammas):
    """ws-QAOA's state from numpy and scipy.linalg.expm alone: the product
    start (cos theta_q/2, sin theta_q/2) on each qubit q, theta_q =
    2 arcsin sqrt(c_q), then per layer the phase diag(exp(-i gamma E)) and
    the mixer expm(-i beta sum_q H_q), where H_q = (2c_q - 1) Z -
    2 sqrt(c_q (1 - c_q)) X acts on qubit q, bit q of the state index."""
    n = len(c)
    psi = np.ones(1)
    for q in reversed(range(n)):  # np.kron's last factor is the least significant bit
        theta = 2.0 * np.arcsin(np.sqrt(c[q]))
        psi = np.kron(psi, [np.cos(theta / 2.0), np.sin(theta / 2.0)])
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    mixer = np.zeros((2**n, 2**n))
    for q in range(n):
        h = (2 * c[q] - 1) * z - 2 * np.sqrt(c[q] * (1 - c[q])) * x
        mixer += np.kron(np.kron(np.eye(2 ** (n - 1 - q)), h), np.eye(2**q))
    for beta, gamma in zip(betas, gammas):
        psi = scipy.linalg.expm(-1j * beta * mixer) @ (np.exp(-1j * gamma * energies) * psi)
    return psi


class TestWarmStartOracle:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_state_matches_dense_expm(self, n, p):
        # interior c != 1/2 and nonzero angles, so every term of each mixer acts
        rng = np.random.default_rng(60 + 10 * n + p)
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        c = rng.uniform(0.1, 0.9, n)
        params = rng.uniform(-np.pi, np.pi, 2 * p)
        expected = np.abs(dense_ws_qaoa(ising.energies, c, params[:p], params[p:])) ** 2
        probs = state_probabilities("ws-qaoa", ising, params, p=p, warm=WarmStart(c))
        assert np.max(np.abs(probs - expected)) <= 1e-12


def marginal_energy_p1(weights, starts, hams, beta, gamma):
    """<E> of depth-1 QAOA or ws-QAOA with E(x) = -cut(x), from two-qubit
    marginals: the state is exp(-i beta sum_q h_q) exp(-i gamma E) |phi>,
    |phi> the product of the one-qubit states starts[q], h_q acting on
    qubit q alone.

    With d(s, t) = [s != t], E = -sum_{u<v} w_uv d(x_u, x_v) and
    d = (1 - Z_u Z_v) / 2, so <E> = -(W - sum_{u<v} w_uv <Z_u Z_v>) / 2,
    W the total weight.  The mixer is the product of the one-qubit
    unitaries m_q = expm(-i beta h_q), so
        <Z_u Z_v> = Tr[(m_u^+ Z m_u (x) m_v^+ Z m_v) rho_uv],
    rho_uv the marginal of qubits u and v of psi = exp(-i gamma E)|phi>:
        rho_uv[ab, a'b'] = sum_y psi(a, b, y) psi(a', b', y)^*
    over the bits y of the other qubits.  In E(a, b, y) - E(a', b', y)
    only the edges at u or v are left:
        -w_uv (d(a, b) - d(a', b'))
        - sum_k [w_uk (d(a, y_k) - d(a', y_k)) + w_vk (d(b, y_k) - d(b', y_k))],
    and phi is a product, so the sum over y is a product over the other
    qubits k:
        rho_uv[ab, a'b'] = phi_u(a) phi_v(b) phi_u(a')^* phi_v(b')^*
            exp(i gamma w_uv (d(a, b) - d(a', b')))
            prod_k sum_t |phi_k(t)|^2
                exp(i gamma (w_uk (d(a, t) - d(a', t)) + w_vk (d(b, t) - d(b', t)))).
    Each of the 16 entries is n - 2 two-term factors: O(n^3) work for
    <E>, and no 2^n vector.
    """
    weights = np.asarray(weights)
    z = np.diag([1.0, -1.0])
    mixers = [scipy.linalg.expm(-1j * beta * h) for h in hams]
    zs = [m.conj().T @ z @ m for m in mixers]
    # the bits a, b, a', b' of rho[a, b, a', b'] along its four axes
    bit = np.arange(2)
    a, b, a2, b2 = np.ix_(bit, bit, bit, bit)

    def d(s, t):
        return np.not_equal(s, t).astype(float)

    correlation = 0.0
    for u, v in itertools.combinations(range(len(weights)), 2):
        rho = np.einsum("a,b,c,d->abcd", starts[u], starts[v], starts[u].conj(), starts[v].conj())
        rho = rho * np.exp(1j * gamma * weights[u, v] * (d(a, b) - d(a2, b2)))
        for k in range(len(weights)):
            if k not in (u, v):
                rho = rho * sum(
                    abs(starts[k][t]) ** 2
                    * np.exp(1j * gamma * (weights[u, k] * (d(a, t) - d(a2, t))
                                           + weights[v, k] * (d(b, t) - d(b2, t))))
                    for t in (0, 1)
                )
        correlation += weights[u, v] * np.einsum("ca,db,abcd->", zs[u], zs[v], rho).real
    return -(np.triu(weights, k=1).sum() - correlation) / 2.0


def transverse_product(n):
    """QAOA's start |+> and mixer X on each qubit, for marginal_energy_p1."""
    return [np.full(2, np.sqrt(0.5))] * n, [PAULI_X] * n


def warm_product(c):
    """ws-QAOA's start (sqrt(1 - c_q), sqrt(c_q)) = R_y(theta_q)|0> and
    mixer (2c_q - 1) Z - 2 sqrt(c_q (1 - c_q)) X on each qubit q, for
    marginal_energy_p1."""
    starts = [np.array([np.sqrt(1.0 - cq), np.sqrt(cq)]) for cq in c]
    off = [-2.0 * np.sqrt(cq * (1.0 - cq)) for cq in c]
    hams = [np.array([[2.0 * cq - 1.0, o], [o, 1.0 - 2.0 * cq]]) for cq, o in zip(c, off)]
    return starts, hams


class TestMarginalOracle:
    """Depth-1 energies of marginal_energy_p1, which needs no 2^n vector,
    against the simulator up to the qubit cap, within 1e-10 relative."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 14])
    def test_qaoa_rows(self, n):
        rng = np.random.default_rng(400 + n)
        graph = random_graph(rng, n)
        ising = ising_from_graph(graph)
        prepare, dim = make_ansatz("qaoa", ising)
        params = rng.uniform(-np.pi, np.pi, size=(3, dim))
        energies = row_energies(prepare, ising, params, np.zeros(3, dtype=int))
        for r in range(3):
            expected = marginal_energy_p1(graph.weights, *transverse_product(n), *params[r])
            assert abs(energies[r] - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 14])
    def test_ws_qaoa_rows(self, n):
        # an interior warm start and a vertex clipped to [eps, 1 - eps],
        # two angle pairs each
        rng = np.random.default_rng(500 + n)
        graph = random_graph(rng, n)
        ising = ising_from_graph(graph)
        eps = 0.1
        cs = [rng.uniform(0.05, 0.95, n), np.where(rng.integers(0, 2, n) == 1, 1.0 - eps, eps)]
        prepare, dim = make_ansatz("ws-qaoa", ising, warm=[WarmStart(c) for c in cs])
        owners = np.array([0, 0, 1, 1])
        params = rng.uniform(-np.pi, np.pi, size=(len(owners), dim))
        energies = row_energies(prepare, ising, params, owners)
        for r, owner in enumerate(owners):
            expected = marginal_energy_p1(graph.weights, *warm_product(cs[owner]), *params[r])
            assert abs(energies[r] - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_agrees_with_closed_form(self, n):
        rng = np.random.default_rng(600 + n)
        graph = random_graph(rng, n)
        for beta, gamma in rng.uniform(-np.pi, np.pi, size=(3, 2)):
            expected = closed_form_p1(graph.weights, beta, gamma)
            got = marginal_energy_p1(graph.weights, *transverse_product(n), beta, gamma)
            assert abs(got - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("eps", [0.05, 0.25])
    @pytest.mark.parametrize("n", [3, 8, 14])
    def test_start_energy_at_a_clipped_optimal_vertex(self, n, eps):
        # at beta = gamma = 0 a pair is cut with probability
        # (1 - eps)^2 + eps^2 across the vertex's cut and 2 eps (1 - eps)
        # within a side, so <E> / E0 = <cut> / max_cut
        # = (1 - 2 eps)^2 + 2 eps (1 - eps) W / max_cut
        rng = np.random.default_rng(700 + n)
        graph = random_graph(rng, n)
        ising = ising_from_graph(graph)
        best = int(np.argmin(ising.energies))
        max_cut = -ising.energies[best]
        c = np.where((best >> np.arange(n)) & 1, 1.0 - eps, eps)
        total = np.triu(graph.weights, k=1).sum()
        rule = (1 - 2 * eps) ** 2 + 2 * eps * (1 - eps) * total / max_cut
        oracle = marginal_energy_p1(graph.weights, *warm_product(c), 0.0, 0.0)
        prepare, dim = make_ansatz("ws-qaoa", ising, warm=[WarmStart(c)])
        simulated = row_energies(prepare, ising, np.zeros((1, dim)), np.zeros(1, dtype=int))[0]
        assert abs(oracle / -max_cut - rule) <= 1e-12 * rule
        assert abs(simulated / -max_cut - rule) <= 1e-10 * rule


def warm_starts(rng, n, count):
    return [WarmStart(rng.uniform(0.05, 0.95, n)) for _ in range(count)]


class TestBatchEqualsOneRow:
    """Row r of a batch is bit-identical to the state built on its own
    (its probabilities, from state_probabilities)."""

    @pytest.mark.parametrize("rows", ROWS)
    def test_qaoa(self, rows):
        rng = np.random.default_rng(rows)
        ising = ising_from_graph(random_graph(rng, 5, 3.0))
        p = 2
        prepare, dim = make_ansatz("qaoa", ising, p=p)
        params = rng.uniform(-np.pi, np.pi, size=(rows, dim))
        probs = probability_rows(prepare(params, np.zeros(rows, dtype=int)))
        for r in range(rows):
            one = state_probabilities("qaoa", ising, params[r], p=p)
            assert probs[r].tobytes() == one.tobytes()

    @pytest.mark.parametrize("rows", ROWS)
    def test_ws_qaoa_with_a_warm_start_per_row(self, rows):
        rng = np.random.default_rng(10 + rows)
        n, p = 5, 2
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        warms = warm_starts(rng, n, 3)
        owners = rng.integers(0, 3, size=rows)
        prepare, dim = make_ansatz("ws-qaoa", ising, p=p, warm=warms)
        params = rng.uniform(-np.pi, np.pi, size=(rows, dim))
        probs = probability_rows(prepare(params, owners))
        for r in range(rows):
            one = state_probabilities("ws-qaoa", ising, params[r], p=p, warm=warms[owners[r]])
            assert probs[r].tobytes() == one.tobytes()

    @pytest.mark.parametrize("rows", ROWS)
    def test_vqe(self, rows):
        rng = np.random.default_rng(20 + rows)
        n, reps = 6, 3
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        prepare, dim = make_ansatz("vqe", ising, vqe_reps=reps)
        params = rng.uniform(-np.pi, np.pi, size=(rows, dim))
        psi = prepare(params, np.zeros(rows, dtype=int))
        assert psi.dtype == np.float64
        probs = probability_rows(psi)
        for r in range(rows):
            one = state_probabilities("vqe", ising, params[r], vqe_reps=reps)
            assert probs[r].tobytes() == one.tobytes()

    def test_vqe_from_the_kron_threshold(self):
        # a full chunk of row_cap rows through the batched matrix products
        rng = np.random.default_rng(25)
        n, rows = KRON_MIN_QUBITS, row_cap(KRON_MIN_QUBITS)
        angles = rng.uniform(-np.pi, np.pi, size=(rows, 4, n))
        chain = cnot_chain_perm(n)
        psi = vqe_rows(angles, chain)
        for r in range(rows):
            assert psi[r].tobytes() == vqe_rows(angles[r : r + 1], chain)[0].tobytes()

    @pytest.mark.parametrize("rows", ROWS)
    def test_vqe_after_the_cnot_gather(self, rows):
        # one R_y layer, one gather: the gathered rows equal the CNOT
        # chain applied gate by gate to each row alone
        rng = np.random.default_rng(30 + rows)
        n = 5
        angles = rng.uniform(-np.pi, np.pi, size=(rows, 1, n))
        gathered = gather_rows(vqe_rows(angles, cnot_chain_perm(n)), cnot_chain_perm(n))
        assert gathered.flags.c_contiguous
        for r in range(rows):
            state = vqe_rows(angles[r : r + 1], cnot_chain_perm(n))
            for q in range(n - 1):
                state = gather_rows(state, cnot_perm(n, q, q + 1))
            assert np.array_equal(gathered[r], state[0])

    @pytest.mark.parametrize("kind", ["qaoa", "ws-qaoa"])
    def test_batch_over_the_row_cap(self, kind):
        # row_cap(13) is 1, and a 3-row batch holds more than ELIDE_BYTES:
        # the cost phase still multiplies in the order of one row
        rng = np.random.default_rng(45)
        n, p, rows = 13, 2, 3
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        warms = warm_starts(rng, n, rows) if kind == "ws-qaoa" else None
        prepare, dim = make_ansatz(kind, ising, p=p, warm=warms)
        params = rng.uniform(-np.pi, np.pi, size=(rows, dim))
        owners = np.arange(rows)
        batch = prepare(params, owners)
        for r in range(rows):
            assert batch[r].tobytes() == prepare(params[r : r + 1], owners[r : r + 1])[0].tobytes()

    def test_ws_qaoa_bytes_hold_without_temporary_elision(self, monkeypatch):
        # numpy computes a product in place in a temporary operand, with
        # the operands swapped, only while nothing else refers to it; a
        # mirror that also stores its result takes that away
        rng = np.random.default_rng(46)
        n, p = 14, 2
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        prepare, dim = make_ansatz("ws-qaoa", ising, p=p, warm=warm_starts(rng, n, 1))
        params = rng.uniform(-np.pi, np.pi, size=(1, dim))
        owners = np.zeros(1, dtype=int)
        plain = prepare(params, owners)
        original, stored = graph_model.mirror, []

        def storing_mirror(half):
            stored.append(original(half))
            return stored[-1]

        # every module of the package that calls mirror, wherever the
        # cost phase is formed
        for name, module in list(sys.modules.items()):
            if name.startswith("cutclust") and getattr(module, "mirror", None) is original:
                monkeypatch.setattr(module, "mirror", storing_mirror)
        held = prepare(params, owners)
        assert len(stored) == p
        assert held.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("kind", ["qaoa", "ws-qaoa", "vqe"])
    def test_energies_equal_one_row_objective(self, kind):
        rng = np.random.default_rng(40)
        n, rows = 5, 20
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        warms = warm_starts(rng, n, rows) if kind == "ws-qaoa" else None
        prepare, dim = make_ansatz(kind, ising, p=1, warm=warms, vqe_reps=2)
        params = rng.uniform(-np.pi, np.pi, size=(rows, dim))
        owners = np.arange(rows)
        batch = row_energies(prepare, ising, params, owners)
        for r in range(rows):
            warm = warms[r] if warms else None
            objective, _ = make_objective(kind, ising, p=1, warm=warm, vqe_reps=2)
            assert batch[r] == objective(params[r])


class TestStateProbabilities:
    """The one-row entry against the chunked batch path that runs use."""

    @pytest.mark.parametrize("rows", [1, 20])
    @pytest.mark.parametrize("kind", ["qaoa", "ws-qaoa", "vqe"])
    def test_rows_equal_state_probabilities(self, kind, rows):
        rng = np.random.default_rng(50 + rows)
        n = 5
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        warms = warm_starts(rng, n, rows) if kind == "ws-qaoa" else None
        prepare, dim = make_ansatz(kind, ising, p=2, warm=warms, vqe_reps=2)
        params = rng.uniform(-np.pi, np.pi, size=(rows, dim))
        probs = np.concatenate(list(row_probabilities(prepare, params, np.arange(rows), n)))
        for r in range(rows):
            warm = warms[r] if warms else None
            one = state_probabilities(kind, ising, params[r], p=2, warm=warm, vqe_reps=2)
            assert probs[r].tobytes() == one.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (1, 4), ()])
    def test_wrong_shape_rejected(self, shape):
        ising = ising_from_graph(random_graph(np.random.default_rng(0), 3))
        with pytest.raises(ValidationError, match="expects 4 parameters"):
            state_probabilities("qaoa", ising, np.zeros(shape), p=2)


class TestRowCap:
    def test_cap_holds_half_a_state_at_the_qubit_cap(self):
        assert row_cap(QUBIT_CAP) == 1
        assert row_cap(QUBIT_CAP - 1) == 1
        assert row_cap(5) * 2**5 == 2 ** (QUBIT_CAP - 1)

    def test_chunks_stay_under_the_cap_and_agree(self):
        rng = np.random.default_rng(5)
        n = 10
        ising = ising_from_graph(random_graph(rng, n))
        prepare, dim = make_ansatz("qaoa", ising)
        rows = row_cap(n) + 3
        params = rng.uniform(-1, 1, size=(rows, dim))
        owners = np.zeros(rows, dtype=int)
        chunks = list(row_probabilities(prepare, params, owners, n))
        assert [len(c) for c in chunks] == [row_cap(n), 3]
        whole = probability_rows(prepare(params, owners))
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_rows_at_13_qubits_equal_one_row_objectives(self):
        # the cap runs each 13-qubit row alone, and every row rounds as a
        # one-row call does.  At p = 1 the phase meets a real start state,
        # which rounds alike in either operand order, so the test takes p = 2
        rng = np.random.default_rng(13)
        n, rows, p = 13, 3, 2
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        prepare, dim = make_ansatz("qaoa", ising, p=p)
        params = rng.uniform(-np.pi, np.pi, size=(rows, dim))
        batch = row_energies(prepare, ising, params, np.zeros(rows, dtype=int))
        objective, _ = make_objective("qaoa", ising, p=p)
        assert batch.tobytes() == np.array([objective(x) for x in params]).tobytes()


class TestApply1qRows:
    """The one-gate kernel, the reference that the layer kernel is checked
    against, on batches with a gate per row."""

    def test_identity_unchanged_bitwise(self):
        psi = random_rows(np.random.default_rng(1), 4, 3)
        out = apply_1q_rows(psi, 1, np.broadcast_to(np.eye(2), (4, 2, 2)))
        assert np.array_equal(out, psi)

    def test_acts_on_indexed_qubit_of_each_row(self):
        # X on qubit 1 of |00> gives |10> (index 2); identity leaves row 1
        psi = np.zeros((2, 4), dtype=complex)
        psi[:, 0] = 1.0
        out = apply_1q_rows(psi, 1, np.stack([PAULI_X, np.eye(2)]))
        assert np.array_equal(out, [[0, 0, 1, 0], [1, 0, 0, 0]])

    def test_disjoint_qubits_commute(self):
        psi = random_rows(np.random.default_rng(2), 3, 4)
        u, v = np.stack([rx(t) for t in (0.7, 0.1, -2.0)]), ry(np.array([1.3, 0.4, 3.0]))
        ab = apply_1q_rows(apply_1q_rows(psi, 0, u), 3, v)
        ba = apply_1q_rows(apply_1q_rows(psi, 3, v), 0, u)
        assert np.allclose(ab, ba, atol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rows_equal_one_row_calls(self, dtype):
        rng = np.random.default_rng(3)
        n = 6
        psi = random_rows(rng, 20, n, dtype)
        u = ry(rng.uniform(-np.pi, np.pi, 20))
        if dtype is complex:
            u = np.stack([rx(t) for t in rng.uniform(-np.pi, np.pi, 20)])
        for q in range(n):
            out = apply_1q_rows(psi, q, u)
            assert out.flags.c_contiguous
            for r in range(20):
                one = apply_1q_rows(psi[r : r + 1], q, u[r : r + 1])
                assert np.array_equal(out[r], one[0])

    def test_real_rows_stay_real(self):
        psi = random_rows(np.random.default_rng(4), 2, 3, float)
        assert apply_1q_rows(psi, 2, ry(np.array([0.3, 0.9]))).dtype == np.float64


class TestGatherRows:
    """The CNOT chain as one gather, and the expectation, on batches."""

    def test_chain_matches_gate_sequence_on_every_row(self):
        # cnot_chain_perm is a closed formula; the oracle applies the gates one by one
        rng = np.random.default_rng(6)
        for n in (1, 2, 4, 7, 13, 14):
            psi = random_rows(rng, 4, n)
            out = gather_rows(psi, cnot_chain_perm(n))
            for r in range(4):
                state = psi[r : r + 1]
                for q in range(n - 1):
                    state = gather_rows(state, cnot_perm(n, q, q + 1))
                assert np.array_equal(out[r], state[0]), (n, r)

    def test_chain_maps_basis_states(self):
        # qubit 0 set: CNOT(0,1) sets qubit 1, then CNOT(1,2) sets qubit 2
        n = 3
        psi = np.zeros((1, 8))
        psi[0, 1] = 1.0
        out = gather_rows(psi, cnot_chain_perm(n))
        assert out[0, 0b111] == 1.0

    def test_expectation_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(7)
        n = 5
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        psi = random_rows(rng, 20, n)
        batch = expectation_rows(probability_rows(psi), ising.energies)
        for r in range(20):
            one = expectation_rows(probability_rows(psi[r : r + 1]), ising.energies)
            assert batch[r] == one[0]



def gate_loop(psi, gates):
    """The reference layer: one apply_1q_rows call per qubit, in order."""
    for q in range(gates.shape[1]):
        psi = apply_1q_rows(psi, q, gates[:, q])
    return psi


def random_gates(rng, rows, n, dtype):
    """R_y gates, or arbitrary complex 2x2 matrices: unlike R_x's
    symmetric matrix, these show a transposed or swapped gate entry."""
    if dtype is float:
        return ry(rng.uniform(-np.pi, np.pi, size=(rows, n)))
    return rng.normal(size=(rows, n, 2, 2)) + 1j * rng.normal(size=(rows, n, 2, 2))


class TestLayerKernel:
    """apply_layer_rows against the per-qubit loop, bit for bit."""

    @pytest.mark.parametrize("dtype", [float, complex])
    # 20 rows only where one kernel call takes that many (n <= 8)
    @pytest.mark.parametrize(
        "rows, n",
        [
            (rows, n)
            for n in (1, 2, 3, 5, 6, 7, 10, 11, 13, 14)
            for rows in (1, 3, 20)
            if rows < 20 or rows <= row_cap(n)
        ],
    )
    def test_equals_gate_loop(self, rows, n, dtype):
        rng = np.random.default_rng(1000 * n + rows)
        psi = random_rows(rng, rows, n, dtype)
        gates = random_gates(rng, rows, n, dtype)
        out = apply_layer_rows(psi, gates)
        assert out.flags.c_contiguous
        assert out.dtype == psi.dtype
        assert out.tobytes() == gate_loop(psi, gates).tobytes()

    def test_leaves_its_input_alone(self):
        rng = np.random.default_rng(8)
        psi = random_rows(rng, 2, 11)
        before = psi.copy()
        apply_layer_rows(psi, random_gates(rng, 2, 11, complex))
        assert np.array_equal(psi, before)


def dense_layer(gates):
    """The layer's 2^n x 2^n matrix per row: np.kron of gates n-1..0."""
    return np.stack([functools.reduce(np.kron, row[::-1]) for row in gates])


class TestKronLayer:
    """apply_kron_layer_rows, from the factors of kron_factors, against a
    dense Kronecker matrix and against the shuffled layer, within
    KRON_BOUND: BLAS sums in its own order, which also differs between CPU
    classes, so no check here is by bytes."""

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_equals_dense_kron_matrix(self, n):
        rng = np.random.default_rng(2000 + n)
        rows = 3
        psi = random_rows(rng, rows, n, float)
        gates = random_gates(rng, rows, n, float)
        expected = np.einsum("rij,rj->ri", dense_layer(gates), psi)
        assert np.abs(apply_kron_layer_rows(psi, kron_factors(gates)) - expected).max() <= KRON_BOUND

    @pytest.mark.parametrize("n", [KRON_MIN_QUBITS, 14])
    def test_near_shuffled_layer(self, n):
        rng = np.random.default_rng(3000 + n)
        rows = 2
        psi = random_rows(rng, rows, n, float)
        gates = random_gates(rng, rows, n, float)
        out = apply_kron_layer_rows(psi, kron_factors(gates))
        assert out.flags.c_contiguous
        assert out.dtype == np.float64
        assert np.abs(out - apply_layer_rows(psi, gates)).max() <= KRON_BOUND

    def test_factors_are_orthogonal(self):
        # R_y is a rotation, so its Kronecker products are orthogonal; a
        # stack of (rows, layers) gate layers gives one factor per layer
        rng = np.random.default_rng(4000)
        for n, bits in [(3, (1, 1, 1)), (7, (3, 2, 2)), (14, (5, 5, 4)), (21, (7, 7, 7))]:
            gates = ry(rng.uniform(-np.pi, np.pi, size=(2, 3, n)))
            for factor, k in zip(kron_factors(gates), bits, strict=True):
                assert factor.shape == (2, 3, 2**k, 2**k)
                eye = np.eye(2**k)
                assert np.abs(factor @ factor.swapaxes(-1, -2) - eye).max() <= KRON_BOUND
                assert np.abs(factor.swapaxes(-1, -2) @ factor - eye).max() <= KRON_BOUND

    def test_stacked_factors_equal_each_layer_alone(self):
        rng = np.random.default_rng(4100)
        gates = ry(rng.uniform(-np.pi, np.pi, size=(3, 4, 14)))
        stacked = kron_factors(gates)
        for layer in range(gates.shape[1]):
            for factor, alone in zip(stacked, kron_factors(gates[:, layer]), strict=True):
                assert factor[:, layer].tobytes() == alone.tobytes()


def kron_rows_alone(gates):
    """Kronecker products of one layer's (rows, k, 2, m) gates: the
    reference for factors built for a stack of layers."""
    rows = gates.shape[0]
    out = gates[:, 0]
    for q in range(1, gates.shape[1]):
        size = 2 * out.shape[1]
        out = (gates[:, q, :, None, :, None] * out[:, None, :, None, :]).reshape(rows, size, -1)
    return out


def kron_layer_alone(psi, gates):
    """The matrix-product layer building its own three factors from one
    layer's (rows, n, 2, 2) gates: the reference for vqe_rows, which
    builds the factors of all its layers at once."""
    rows, size = psi.shape
    c = gates.shape[1] // 3
    b = (gates.shape[1] - c) // 2
    x = np.matmul(kron_rows_alone(gates[:, b + c :]), psi.reshape(rows, -1, 1 << (b + c)))
    x = np.matmul(x.reshape(rows, -1, 1 << c), kron_rows_alone(gates[:, :c]).transpose(0, 2, 1))
    x = np.matmul(kron_rows_alone(gates[:, c : b + c])[:, None], x.reshape(rows, -1, 1 << b, 1 << c))
    return x.reshape(rows, size)


class TestStackedVqeFactors:
    """vqe_rows, which builds the factors of every layer at once, against
    layers that each build their own: the products are elementwise and
    each row keeps its own BLAS calls, so the bytes are equal."""

    @staticmethod
    def layer_by_layer(angles, chain):
        gates = ry(angles)
        psi = kron_rows_alone(gates[:, 0, :, :, :1])[..., 0]
        for layer in range(1, angles.shape[1]):
            psi = kron_layer_alone(gather_rows(psi, chain), gates[:, layer])
        return psi

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("reps", [0, 1, 5])
    @pytest.mark.parametrize("n", [KRON_MIN_QUBITS, 12, 14])
    def test_equals_one_layer_at_a_time(self, n, reps, rows):
        rng = np.random.default_rng(100 * n + 10 * reps + rows)
        angles = rng.uniform(-np.pi, np.pi, size=(rows, reps + 1, n))
        chain = cnot_chain_perm(n)
        got = vqe_rows(angles, chain)
        assert got.tobytes() == self.layer_by_layer(angles, chain).tobytes()


class TestProductFirstLayer:
    """The R_y layer on |0...0> as an outer product of first columns."""

    def reference(self, angles):
        """The gates applied one by one to |0...0>."""
        rows, n = angles.shape
        psi = np.zeros((rows, 2**n))
        psi[:, 0] = 1.0
        return gate_loop(psi, ry(angles))

    @pytest.mark.parametrize("n", [1, 5, 6, 10, 14])
    def test_probabilities_equal_gate_loop(self, n):
        rng = np.random.default_rng(n)
        angles = rng.uniform(-np.pi, np.pi, size=(3, n))
        # exact zeros and the angle whose cosine is not exactly zero
        angles[0, ::2] = 0.0
        angles[1, ::3] = np.pi
        angles[2, 1::2] = -np.pi
        expected = probability_rows(self.reference(angles))
        got = probability_rows(product_rows(ry(angles)[..., 0]))
        assert got.tobytes() == expected.tobytes()

    def test_all_zero_angles_give_the_zero_state(self):
        psi = product_rows(ry(np.zeros((1, 4)))[..., 0])
        assert np.array_equal(psi[0], np.eye(16)[0])

    def circuit(self, n):
        """vqe_rows' probabilities and the reference's: the first layer
        applied to |0...0>, then gathers and gate loops."""
        rng = np.random.default_rng(3)
        reps, rows = 2, 3
        angles = rng.uniform(-np.pi, np.pi, size=(rows, reps + 1, n))
        angles[:, :, 0] = 0.0
        chain = cnot_chain_perm(n)
        psi = self.reference(angles[:, 0])
        for layer in range(1, reps + 1):
            psi = gate_loop(gather_rows(psi, chain), ry(angles[:, layer]))
        return probability_rows(vqe_rows(angles, chain)), probability_rows(psi)

    def test_vqe_rows_probabilities_equal_gate_loop(self):
        # below the threshold every layer is the shuffled kernel
        got, expected = self.circuit(KRON_MIN_QUBITS - 1)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [KRON_MIN_QUBITS, 14])
    def test_vqe_rows_probabilities_near_gate_loop_from_the_threshold(self, n):
        # from the threshold the later layers are matrix products, which
        # sum in BLAS's order
        got, expected = self.circuit(n)
        assert np.abs(got - expected).max() <= KRON_BOUND


class TestMirroredPhase:
    """The half-spectrum cost phase against the phase of every energy."""

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 10, 13, 14])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_equals_full_phase(self, n, rows):
        # complex products round a*b and b*a differently: the phase goes
        # first from a 14-qubit row on and psi first below, in any batch
        rng = np.random.default_rng(200 + n)
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        psi = random_rows(rng, rows, n)
        gammas = rng.uniform(-np.pi, np.pi, rows)
        phase = np.exp(-1j * gammas[:, None] * ising.energies)
        expected = np.multiply(phase, psi) if n == 14 else np.multiply(psi, phase)
        got = apply_phase_rows(psi, mirror(_half_phases(gammas, ising)), n)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 14])
    def test_one_skewed_energy_is_rejected(self, n):
        # the same energies but one: no half of them gives every phase
        energies = ising_from_graph(random_graph(np.random.default_rng(200 + n), n, 3.0)).energies
        energies[0] += 1.0
        with pytest.raises(ValidationError, match=rf"energies\[0\] != energies\[{2**n - 1}\]"):
            IsingDiagonal(n=n, energies=energies)

    def test_one_start_row_serves_every_angle(self):
        # QAOA starts all rows from one |+...+> row
        rng = np.random.default_rng(9)
        ising = ising_from_graph(random_graph(rng, 6))
        psi = np.full((1, 64), 0.125)
        gammas = rng.uniform(-1, 1, 4)
        got = apply_phase_rows(psi, mirror(_half_phases(gammas, ising)), 6)
        assert got.shape == (4, 64)
        # psi first below 14 qubits
        expected = np.multiply(psi, np.exp(-1j * gammas[:, None] * ising.energies))
        assert got.tobytes() == expected.tobytes()

    def test_diagonal_that_is_not_mirrored_is_rejected(self):
        # random energies: make_ansatz is never reached
        energies = np.random.default_rng(10).normal(size=32)
        with pytest.raises(ValidationError, match=r"energies\[0\] != energies\[31\]"):
            IsingDiagonal(n=5, energies=energies)


class TestHalfStateQaoa:
    """QAOA on the half of each state with qubit n-1 at 0 against the
    whole-state builder, bit for bit."""

    @pytest.mark.parametrize("n", [2, 5, 6, 10, 13, 14])
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("batch", ["one", "cap"])
    def test_equals_whole_state(self, n, p, batch):
        # both builders take the cost phase's operand order from n, so
        # they agree at 14 qubits too, where the phase goes first
        rows = 1 if batch == "one" else row_cap(n)
        rng = np.random.default_rng(300 + 10 * n + p)
        ising = ising_from_graph(random_graph(rng, n, 3.0))
        betas = rng.uniform(-np.pi, np.pi, size=(rows, p))
        gammas = rng.uniform(-np.pi, np.pi, size=(rows, p))
        whole = qaoa_rows(ising, *transverse_field(n), betas, gammas)
        half = qaoa_half_rows(ising, betas, gammas)
        assert np.array_equal(half, whole)
        assert half.tobytes() == whole.tobytes()

    def test_make_ansatz_takes_it(self, monkeypatch):
        rng = np.random.default_rng(31)
        n, p, rows = 6, 2, 4
        ising = ising_from_graph(random_graph(rng, n))
        calls = []

        def counted(*args):
            calls.append(args[0])
            return qaoa_half_rows(*args)

        monkeypatch.setattr(optimizer, "qaoa_half_rows", counted)
        params = rng.uniform(-np.pi, np.pi, size=(rows, 2 * p))
        prepare, _ = make_ansatz("qaoa", ising, p=p)
        psi = prepare(params, np.zeros(rows, dtype=int))
        assert calls == [ising]
        whole = qaoa_rows(ising, *transverse_field(n), params[:, :p], params[:, p:])
        assert psi.tobytes() == whole.tobytes()
        # and an independent reference: the phase of every energy, then
        # the R_x mixers, one gate at a time
        ref = np.full((rows, 2**n), 2.0 ** (-n / 2), dtype=complex)
        for layer in range(p):
            ref = ref * np.exp(-1j * params[:, p + layer, None] * ising.energies)
            mixers = np.stack([np.stack([rx(2 * b)] * n) for b in params[:, layer]])
            ref = gate_loop(ref, mixers)
        assert np.allclose(psi, ref, atol=1e-12)

    def test_one_qubit(self):
        # the one gate is gate n-1, and the half is a single amplitude
        ising = IsingDiagonal(n=1, energies=np.array([0.7, 0.7]))
        rng = np.random.default_rng(1)
        betas, gammas = rng.uniform(-np.pi, np.pi, size=(2, 3, 2))
        whole = qaoa_rows(ising, *transverse_field(1), betas, gammas)
        prepare, _ = make_ansatz("qaoa", ising, p=2)
        psi = prepare(np.hstack([betas, gammas]), np.zeros(3, dtype=int))
        assert psi.tobytes() == whole.tobytes()


class TestExpectationRows:
    """The stacked expectation against one 1-D dot per row, byte for byte."""

    @pytest.mark.parametrize("rows", [1, 3, 20])
    @pytest.mark.parametrize("n", [1, 2, 5, 6, 10, 13])
    def test_equals_one_dot_per_row(self, n, rows):
        rng = np.random.default_rng(100 * n + rows)
        probs = probability_rows(random_rows(rng, rows, n))
        energies = rng.normal(scale=10.0, size=2**n)
        ref = np.array([row @ energies for row in probs])
        assert expectation_rows(probs, energies).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_state_longer_than_a_piece_sums_its_pieces_in_order(self, rows):
        n = 14
        assert 2**n == 2 * DOT_PIECE
        rng = np.random.default_rng(rows)
        probs = probability_rows(random_rows(rng, rows, n))
        energies = rng.normal(scale=10.0, size=2**n)
        ref = np.array(
            [row[:DOT_PIECE] @ energies[:DOT_PIECE] + row[DOT_PIECE:] @ energies[DOT_PIECE:] for row in probs]
        )
        assert expectation_rows(probs, energies).tobytes() == ref.tobytes()

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot product longer than 10^4 between threads
        code = (
            "import hashlib, numpy as np\n"
            "from cutclust.simulator import expectation_rows\n"
            "rng = np.random.default_rng(5)\n"
            "probs = rng.random((40, 2**14))\n"
            "energies = rng.normal(scale=100.0, size=2**14)\n"
            "print(hashlib.sha256(expectation_rows(probs, energies).tobytes()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


def stacked_gate(a, b, c, d):
    """[[a, b], [c, d]] built by stacking the broadcast entries: the
    reference for the gate stacks that simulator._gate fills in place."""
    top = np.stack(np.broadcast_arrays(a, b), axis=-1)
    bottom = np.stack(np.broadcast_arrays(c, d), axis=-1)
    return np.stack([top, bottom], axis=-2)


class TestGateStacks:
    """Gate stacks filled in place against the stacked construction."""

    @pytest.mark.parametrize("shape", [(), (7,), (3, 2, 5)])
    def test_ry(self, shape):
        theta = np.random.default_rng(len(shape)).uniform(-np.pi, np.pi, size=shape)
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        got, ref = ry(theta), stacked_gate(c, -s, s, c)
        assert got.shape == shape + (2, 2) and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_ry_of_a_python_float(self):
        c, s = np.cos(0.35), np.sin(0.35)
        assert ry(0.7).tobytes() == stacked_gate(c, -s, s, c).tobytes()

    def test_ws_mixer_hamiltonians(self):
        c = np.random.default_rng(3).uniform(0.05, 0.95, size=(4, 6))
        off = -2.0 * np.sqrt(c * (1.0 - c))
        ref = stacked_gate(2.0 * c - 1.0, off, off, 1.0 - 2.0 * c)
        assert ws_mixer_hamiltonian(c).tobytes() == ref.tobytes()
