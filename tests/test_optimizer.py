"""Tests for SPSA and the exhaustive solver.

The exhaustive solver is checked against an independent enumeration
that scores every bipartition with an explicit pair loop, sharing no
code with the library path.
"""

import numpy as np
import pytest

from cutclust.ansatz import WarmStart
from cutclust.errors import EvaluationError, ValidationError
from cutclust.graph_model import WeightedGraph, ising_from_graph
from cutclust.optimizer import (
    ExactSolution,
    SpsaConfig,
    calibrate_step_gain,
    exact_solve,
    make_objective,
    spsa_minimize,
)
from cutclust.simulator import expectation_diagonal, new_state


def enumerate_max_cut(weights):
    """Independent oracle: score every bipartition with a pair loop."""
    n = weights.shape[0]
    best = -1.0
    argmax = []
    for k in range(2**n):
        cut = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                if ((k >> i) & 1) != ((k >> j) & 1):
                    cut += weights[i, j]
        if cut > best + 1e-12:
            best = cut
            argmax = [k]
        elif abs(cut - best) <= 1e-12:
            argmax.append(k)
    return best, argmax


def random_graph(rng, n, high=10.0):
    w = rng.uniform(0.0, high, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(weights=w)


def sphere(x):
    return float(np.asarray(x) @ np.asarray(x))


class TestSpsaConfig:
    def test_defaults(self):
        cfg = SpsaConfig()
        assert cfg.max_iters == 250
        assert cfg.a is None
        assert cfg.c == 0.1
        assert cfg.alpha == 0.602
        assert cfg.gamma == 0.101
        assert cfg.resolved_stability() == 25.0

    def test_explicit_stability_wins(self):
        cfg = SpsaConfig(max_iters=100, stability=3.0)
        assert cfg.resolved_stability() == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"a": 0.0},
            {"a": -1.0},
            {"c": 0.0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"gamma": -0.1},
            {"stability": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            SpsaConfig(**kwargs)


class TestSpsaMinimize:
    def test_requires_step_gain(self):
        with pytest.raises(ValidationError, match="calibrate"):
            spsa_minimize(sphere, np.ones(3), SpsaConfig())

    def test_sphere_converges(self):
        # reference run: seeds 0-5 all land below 1e-5 with this setup
        x0 = np.ones(5)
        cfg = SpsaConfig(max_iters=500, seed=0)
        a = calibrate_step_gain(sphere, x0, cfg)
        res = spsa_minimize(sphere, x0, SpsaConfig(max_iters=500, a=a, seed=0))
        assert res.best_value < 1e-2
        assert res.capped

    def test_evaluation_count(self):
        calls = []

        def counting(x):
            calls.append(x.copy())
            return sphere(x)

        cfg = SpsaConfig(max_iters=40, a=0.2, seed=3)
        res = spsa_minimize(counting, np.ones(4), cfg)
        assert res.evaluations == 2 * 40 + 1
        assert len(calls) == res.evaluations
        assert res.trace.shape == (41,)
        # last trace entry is the closing evaluation of the final iterate
        assert res.trace[-1] == sphere(calls[-1])

    def test_best_value_is_minimum_of_evaluations(self):
        values = []

        def recording(x):
            v = sphere(x)
            values.append(v)
            return v

        cfg = SpsaConfig(max_iters=60, a=0.3, seed=1)
        res = spsa_minimize(recording, np.full(3, 2.0), cfg)
        assert res.best_value == min(values)
        assert sphere(res.best_params) == res.best_value

    def test_constant_objective_leaves_params_unchanged(self):
        cfg = SpsaConfig(max_iters=30, a=0.5, seed=0)
        x0 = np.array([0.3, -0.7, 1.1])
        res = spsa_minimize(lambda x: 4.25, x0, cfg)
        np.testing.assert_array_equal(res.best_params, x0)
        assert res.best_value == 4.25
        assert np.all(res.trace == 4.25)

    def test_deterministic_given_seed(self):
        cfg = SpsaConfig(max_iters=50, a=0.2, seed=9)
        r1 = spsa_minimize(sphere, np.ones(4), cfg)
        r2 = spsa_minimize(sphere, np.ones(4), cfg)
        np.testing.assert_array_equal(r1.best_params, r2.best_params)
        np.testing.assert_array_equal(r1.trace, r2.trace)
        assert r1.best_value == r2.best_value

    def test_nonfinite_objective_aborts_with_params(self):
        def bad(x):
            return np.nan

        cfg = SpsaConfig(max_iters=10, a=0.1, seed=0)
        with pytest.raises(EvaluationError, match="non-finite"):
            spsa_minimize(bad, np.ones(2), cfg)

    def test_rejects_empty_initial(self):
        cfg = SpsaConfig(max_iters=10, a=0.1)
        with pytest.raises(ValidationError):
            spsa_minimize(sphere, np.array([]), cfg)

    def test_gradient_estimator_is_unbiased(self):
        # quadratic objective: the two-point estimate has mean equal to
        # the true gradient; averaging 10_000 Rademacher draws at a
        # fixed seed lands within 2% relative error
        rng = np.random.default_rng(2)
        d = 4
        m = rng.normal(size=(d, d))
        m = m @ m.T
        b = rng.normal(size=d)
        x0 = rng.normal(size=d)

        def f(x):
            return float(x @ m @ x + b @ x)

        true_grad = 2 * m @ x0 + b
        c = 0.01
        acc = np.zeros(d)
        n = 10_000
        for _ in range(n):
            delta = rng.integers(0, 2, size=d) * 2 - 1
            acc += (f(x0 + c * delta) - f(x0 - c * delta)) / (2 * c) * delta
        rel = np.linalg.norm(acc / n - true_grad) / np.linalg.norm(true_grad)
        assert rel < 0.02


class TestCalibration:
    def test_first_step_magnitude(self):
        # on the sphere at all-ones the calibrated gain should make the
        # first per-coordinate update land near the requested size
        x0 = np.ones(5)
        cfg = SpsaConfig(max_iters=500, seed=0)
        a = calibrate_step_gain(sphere, x0, cfg, target_step=0.1)
        stability = cfg.resolved_stability()
        a_0 = a / (stability + 1.0) ** cfg.alpha
        rng = np.random.default_rng(cfg.seed)
        delta = rng.integers(0, 2, size=5) * 2 - 1
        f_plus = sphere(x0 + cfg.c * delta)
        f_minus = sphere(x0 - cfg.c * delta)
        step = a_0 * abs(f_plus - f_minus) / (2 * cfg.c)
        assert 0.02 < step < 0.5

    def test_flat_objective_falls_back(self):
        cfg = SpsaConfig(max_iters=100, seed=0)
        a = calibrate_step_gain(lambda x: 1.0, np.ones(3), cfg)
        assert a > 0
        assert np.isfinite(a)

    def test_deterministic(self):
        cfg = SpsaConfig(max_iters=100, seed=5)
        a1 = calibrate_step_gain(sphere, np.ones(4), cfg)
        a2 = calibrate_step_gain(sphere, np.ones(4), cfg)
        assert a1 == a2


class TestExactSolve:
    def test_single_edge(self):
        g = WeightedGraph(weights=np.array([[0.0, 5.0], [5.0, 0.0]]))
        sol = exact_solve(ising_from_graph(g))
        assert sol.ground_energy == -5.0
        assert sol.max_cut == 5.0
        assert sol.ground_states == (1, 2)

    def test_empty_graph_all_states_ground(self):
        g = WeightedGraph(weights=np.zeros((3, 3)))
        sol = exact_solve(ising_from_graph(g))
        assert sol.ground_energy == 0.0
        assert sol.ground_states == tuple(range(8))

    def test_unit_triangle_six_ground_states(self):
        w = np.ones((3, 3)) - np.eye(3)
        sol = exact_solve(ising_from_graph(WeightedGraph(weights=w)))
        assert sol.ground_energy == -2.0
        assert sol.ground_states == (1, 2, 3, 4, 5, 6)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            sol = exact_solve(ising_from_graph(g))
            best, argmax = enumerate_max_cut(g.weights)
            assert sol.max_cut == pytest.approx(best, abs=1e-9)
            assert list(sol.ground_states) == argmax

    def test_ground_states_closed_under_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n)
            sol = exact_solve(ising_from_graph(g))
            mask = (1 << n) - 1
            states = set(sol.ground_states)
            assert {s ^ mask for s in states} == states

    def test_result_is_frozen(self):
        sol = ExactSolution(ground_energy=-1.0, ground_states=(1, 2), max_cut=1.0)
        with pytest.raises(AttributeError):
            sol.max_cut = 2.0


class TestMakeObjective:
    def setup_method(self):
        w = np.array(
            [
                [0.0, 1.0, 2.0],
                [1.0, 0.0, 3.0],
                [2.0, 3.0, 0.0],
            ]
        )
        self.ising = ising_from_graph(WeightedGraph(weights=w))

    def test_qaoa_zero_params_gives_uniform_mean(self):
        obj, dim = make_objective("qaoa", self.ising, p=1)
        assert dim == 2
        mean = float(self.ising.energies.mean())
        assert obj(np.zeros(2)) == pytest.approx(mean, abs=1e-12)

    def test_qaoa_dimension_scales_with_depth(self):
        _, dim = make_objective("qaoa", self.ising, p=3)
        assert dim == 6

    def test_ws_qaoa_requires_warm_start(self):
        with pytest.raises(ValidationError, match="warm start"):
            make_objective("ws-qaoa", self.ising)

    def test_ws_qaoa_size_mismatch(self):
        warm = WarmStart.from_cstar(np.array([0.3, 0.7]))
        with pytest.raises(ValidationError, match="qubits"):
            make_objective("ws-qaoa", self.ising, warm=warm)

    def test_ws_qaoa_zero_params_matches_initial_product_state(self):
        c = np.array([0.9, 0.1, 0.5])
        warm = WarmStart.from_cstar(c)
        obj, _ = make_objective("ws-qaoa", self.ising, warm=warm)
        # expectation of the bare warm-start product state
        probs1 = np.stack([1 - c, c])
        expected = 0.0
        for k in range(8):
            pk = 1.0
            for q in range(3):
                pk *= probs1[(k >> q) & 1, q]
            expected += pk * self.ising.energies[k]
        assert obj(np.zeros(2)) == pytest.approx(expected, abs=1e-12)

    def test_vqe_dimension(self):
        obj, dim = make_objective("vqe", self.ising, vqe_reps=2)
        assert dim == 9
        assert obj(np.zeros(9)) == pytest.approx(self.ising.energies[0], abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown"):
            make_objective("annealer", self.ising)

    def test_wrong_param_count(self):
        obj, _ = make_objective("qaoa", self.ising, p=1)
        with pytest.raises(ValidationError, match="parameters"):
            obj(np.zeros(5))

    def test_variational_bound(self):
        sol = exact_solve(self.ising)
        rng = np.random.default_rng(0)
        for kind in ("qaoa", "vqe"):
            obj, dim = make_objective(kind, self.ising, p=2, vqe_reps=2)
            for _ in range(25):
                val = obj(rng.uniform(-np.pi, np.pi, size=dim))
                assert val >= sol.ground_energy - 1e-9


class TestSpsaOnEnergy:
    def test_qaoa_single_edge_improves_from_random_start(self):
        g = WeightedGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        ising = ising_from_graph(g)
        obj, dim = make_objective("qaoa", ising, p=1)
        x0 = np.array([0.2, 0.2])
        start = obj(x0)
        a = calibrate_step_gain(obj, x0, SpsaConfig(max_iters=200, seed=0))
        res = spsa_minimize(obj, x0, SpsaConfig(max_iters=200, a=a, seed=0))
        assert res.best_value < start
        # p=1 on a single edge can reach the ground state exactly
        assert res.best_value == pytest.approx(-1.0, abs=1e-2)
