"""Acceptance gate: one test per headline requirement.

Each test is self-contained, states its tolerance inline, and produces
one pass/fail line under ``pytest -v``.  The enumeration oracle here is
written independently of the library (explicit pair loops, no shared
code) so criterion 1 is a genuine cross-check.
"""

import time

import numpy as np
import pytest

from cutclust import relaxation
from cutclust.ansatz import (
    WarmStart,
    ws_mixer_hamiltonian,
    vqe_param_count,
)
from cutclust.bench import (
    RunConfig,
    cluster_accuracy,
    emit_report,
    run_benchmark,
)
from cutclust.graph_model import WeightedGraph, ising_from_graph, mirror, qubo_from_graph
from cutclust.optimizer import exact_solve, make_objective, state_probabilities
from cutclust.relaxation import clip_cstar, relax_qubo
from cutclust.simulator import (
    _half_phases,
    apply_layer_rows,
    apply_phase_rows,
    cnot_perm,
    gather_rows,
    ry,
)


def enumerate_max_cut(weights: np.ndarray) -> float:
    """Independent oracle: best cut over all bipartitions, pair loop."""
    n = weights.shape[0]
    best = 0.0
    for k in range(2**n):
        cut = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                if ((k >> i) & 1) != ((k >> j) & 1):
                    cut += weights[i, j]
        if cut > best:
            best = cut
    return best


def random_graph(rng: np.random.Generator, n: int, exact_sums: bool = False) -> WeightedGraph:
    w = rng.uniform(0.0, 10.0, size=(n, n))
    if exact_sums:
        # quantize to a 2^-20 grid: every cut value then fits float64
        # exactly, so equality across summation orders is well defined
        w = np.floor(w * 2**20) / 2**20
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(weights=w)


@pytest.fixture(scope="module")
def cars_report():
    """Benchmark on cars.csv at the default settings: p=1, epsilon=0.1,
    250 SPSA iterations, seeds 1..10."""
    return run_benchmark(RunConfig(dataset="cars"))


@pytest.fixture(scope="module")
def wine_report():
    return run_benchmark(RunConfig(dataset="wine", algorithm="all"))


def pair_mass(run: dict, ground_states: list[str]) -> float:
    probs = run["probabilities"]
    return sum(probs[int(b, 2)] for b in ground_states)


class TestAcceptance:
    def test_criterion_1_exact_solver_matches_enumeration(self):
        # 200 random graphs, n in [2, 8], weights uniform in [0, 10]:
        # ground energy == -(enumerated max cut), exactly, in < 5 s
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 9))
            graph = random_graph(rng, n, exact_sums=True)
            sol = exact_solve(ising_from_graph(graph))
            oracle = enumerate_max_cut(graph.weights)
            assert sol.ground_energy == -oracle
            assert sol.max_cut == oracle
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    def test_criterion_2_ws_qaoa_clusters_cars_correctly(self):
        # ws-QAOA, p=1, epsilon=0.1, 250 SPSA iterations: accuracy 1.0
        # vs the exact labels (up to flip) in >= 8 of 10 seeds, < 60 s
        config = RunConfig(dataset="cars", algorithm="ws-qaoa")
        t0 = time.perf_counter()
        report = run_benchmark(config).payload
        exact_labels = report["exact"]["labels"]
        perfect = 0
        for rec in report["algorithms"]["ws-qaoa"]["runs"]:
            if cluster_accuracy(rec["labels"], exact_labels) == 1.0:
                perfect += 1
        elapsed = time.perf_counter() - t0
        assert perfect >= 8, f"only {perfect}/10 seeds clustered perfectly"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"

    def test_criterion_3_ws_qaoa_energy_near_ground_and_below_qaoa(self, cars_report):
        # median ws-QAOA energy within 5% of the exact ground energy and
        # strictly below the median plain-QAOA energy at equal budget
        payload = cars_report.payload
        ground = payload["exact"]["ground_energy"]
        ws = payload["algorithms"]["ws-qaoa"]["median_energy_expectation"]
        qaoa = payload["algorithms"]["qaoa"]["median_energy_expectation"]
        assert abs(ws - ground) <= 0.05 * abs(ground), (
            f"ws median {ws:.4f} vs ground {ground:.4f}"
        )
        assert ws < qaoa, f"ws median {ws:.4f} not below qaoa median {qaoa:.4f}"

    def test_criterion_4_ws_qaoa_concentrates_on_optimal_pair(
        self, cars_report, wine_report
    ):
        # median probability mass on the two optimal bitstrings:
        # ws-QAOA strictly above plain QAOA, on both shipped datasets
        for report in (cars_report, wine_report):
            payload = report.payload
            ground_states = payload["exact"]["ground_states"]
            assert len(ground_states) == 2
            ws_masses = [
                pair_mass(r, ground_states)
                for r in payload["algorithms"]["ws-qaoa"]["runs"]
            ]
            qaoa_masses = [
                pair_mass(r, ground_states)
                for r in payload["algorithms"]["qaoa"]["runs"]
            ]
            assert len(ws_masses) == len(qaoa_masses) == 10
            ws_med = float(np.median(ws_masses))
            qaoa_med = float(np.median(qaoa_masses))
            dataset = payload["dataset"]["file"]
            assert ws_med > qaoa_med, (
                f"{dataset}: ws mass {ws_med:.4f} <= qaoa mass {qaoa_med:.4f}"
            )

    def test_criterion_5_single_edge_exactness(self):
        # a) two-stage grid search over (beta, gamma) for p=1 on a
        #    one-edge graph reaches the ground energy -w within 1e-3
        w = 2.5
        graph = WeightedGraph(weights=np.array([[0.0, w], [w, 0.0]]))
        ising = ising_from_graph(graph)
        objective, _ = make_objective("qaoa", ising, p=1)

        def grid_min(b_lo, b_hi, g_lo, g_hi, pts):
            best = (np.inf, 0.0, 0.0)
            for b in np.linspace(b_lo, b_hi, pts):
                for g in np.linspace(g_lo, g_hi, pts):
                    v = objective(np.array([b, g]))
                    if v < best[0]:
                        best = (v, b, g)
            return best

        coarse = grid_min(-np.pi, np.pi, -np.pi, np.pi, 101)
        step = 2 * np.pi / 100
        fine = grid_min(
            coarse[1] - step, coarse[1] + step, coarse[2] - step, coarse[2] + step, 101
        )
        assert abs(fine[0] - (-w)) <= 1e-3, f"grid optimum {fine[0]:.6f} vs {-w}"

        # b) the clipped relaxed optimum (epsilon=0.1) alone puts 0.81
        #    probability on an optimal bitstring before any optimization
        relaxed = relax_qubo(qubo_from_graph(graph), seed=0)
        clipped = clip_cstar(relaxed.c_star, 0.1)
        warm = WarmStart(clipped)
        probs = state_probabilities("ws-qaoa", ising, np.zeros(2), warm=warm)
        vertex = int(relaxed.c_star[0]) | (int(relaxed.c_star[1]) << 1)
        assert vertex in exact_solve(ising).ground_states
        assert probs[vertex] >= 0.81 - 1e-12, f"mass {probs[vertex]:.12f}"

    def test_criterion_6_property_suite(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(99)

        # a) norm preservation through a long random circuit (1e-9); one
        #    R_y is a layer of identities but that gate
        state = np.full((1, 16), 0.25, dtype=complex)
        energies = ising_from_graph(random_graph(rng, 4))
        for _ in range(200):
            op = rng.integers(0, 3)
            if op == 0:
                gates = np.zeros((1, 4, 2, 2))
                gates[:] = np.eye(2)
                q = int(rng.integers(4))
                gates[0, q] = ry(rng.uniform(-np.pi, np.pi))
                state = apply_layer_rows(state, gates)
            elif op == 1:
                q = rng.permutation(4)[:2]
                state = gather_rows(state, cnot_perm(4, int(q[0]), int(q[1])))
            else:
                gamma = np.array([rng.uniform(-np.pi, np.pi)])
                state = apply_phase_rows(state, mirror(_half_phases(gamma, energies)), 4)
        norm = float(np.abs(state[0]).dot(np.abs(state[0])))
        assert abs(norm - 1.0) < 1e-9

        # b) bit-flip symmetry of the diagonal, exact
        for _ in range(20):
            n = int(rng.integers(2, 8))
            diag = ising_from_graph(random_graph(rng, n))
            mask = 2**n - 1
            idx = np.arange(2**n)
            assert np.array_equal(diag.energies, diag.energies[idx ^ mask])

        # c) variational lower bound, 1000 random parameter draws
        graph = random_graph(rng, 4)
        ising = ising_from_graph(graph)
        ground = exact_solve(ising).ground_energy
        warm = WarmStart(rng.uniform(0.05, 0.95, 4))
        draws = 0
        for _ in range(334):
            # [betas, gammas] at p = 2
            angles = np.concatenate([rng.uniform(-np.pi, np.pi, 2),
                                     rng.uniform(-np.pi, np.pi, 2)])
            for probs in (
                state_probabilities("qaoa", ising, angles, p=2),
                state_probabilities("ws-qaoa", ising, angles, p=2, warm=warm),
                state_probabilities(
                    "vqe", ising, rng.uniform(-np.pi, np.pi, vqe_param_count(4, 2)), vqe_reps=2
                ),
            ):
                energy = float(probs @ ising.energies)
                assert energy >= ground - 1e-9
                draws += 1
        assert draws >= 1000

        # d) warm-start product state is the -1 eigenvector of each
        #    per-qubit mixer, over a c grid (1e-9)
        for c in np.linspace(0.01, 0.99, 197):
            h = ws_mixer_hamiltonian(c)
            theta = 2.0 * np.arcsin(np.sqrt(c))
            v = np.array([np.cos(theta / 2), np.sin(theta / 2)])
            assert np.linalg.norm(h @ v + v) < 1e-9

        # e) relaxation dominates every binary vertex, n <= 10 (1e-6)
        monkeypatch.setattr(relaxation, "RESTARTS", 8)
        for n in range(2, 11):
            graph = random_graph(rng, n)
            qubo = qubo_from_graph(graph)
            result = relax_qubo(qubo, seed=int(n))
            best_vertex = max(
                qubo.objective(np.array([(k >> i) & 1 for i in range(n)], dtype=float))
                for k in range(2**n)
            )
            assert result.objective >= best_vertex - 1e-6

        # f) end-to-end report determinism, byte-identical
        config = RunConfig(dataset="cars", algorithm="ws-qaoa", seeds=(1, 2))
        blobs = []
        for d in ("det_a", "det_b"):
            files = emit_report(run_benchmark(config), tmp_path / d, ("json",))
            blobs.append(files[0].read_bytes())
        assert blobs[0] == blobs[1]

    def test_criterion_7_stage_timings_recorded_nonnegative(self, cars_report):
        # absolute speed and hardware comparisons are out of scope; the
        # harness must record non-negative wall time for every stage
        per_run = cars_report.timings["per_run"]
        assert set(per_run) == {"exact", "vqe", "qaoa", "ws-qaoa"}
        for algo, seeds in per_run.items():
            assert len(seeds) == 10
            for stages in seeds.values():
                assert set(stages) == {
                    "graph_build", "relaxation", "optimization", "sampling"
                }
                for name, value in stages.items():
                    assert value >= 0.0, f"{algo} {name}"
        assert cars_report.timings["total_s"] >= 0.0
