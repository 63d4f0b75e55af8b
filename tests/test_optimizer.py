"""Tests for SPSA and the exhaustive solver.

The exhaustive solver is checked against an independent enumeration
that scores every bipartition with an explicit pair loop, sharing no
code with the library path.
"""

import inspect
import re

import numpy as np
import pytest

from cutclust.ansatz import WarmStart
from cutclust.errors import EvaluationError, ValidationError
from cutclust.graph_model import WeightedGraph, ising_from_graph
from cutclust.optimizer import (
    ALPHA,
    DRAW_BLOCK,
    GAMMA,
    PROBES,
    C,
    ExactSolution,
    exact_solve,
    make_ansatz,
    make_objective,
    row_energies,
    spsa_lockstep,
    spsa_minimize,
    stability,
)
from cutclust.simulator import row_cap


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


def one_seed(objective):
    """A scalar objective as a batch objective over its rows."""
    return lambda points, owners: np.array([objective(x) for x in points])


def lone_spsa(objective, initial, max_iters, seed):
    """A one-seed lockstep run on a scalar objective, its gain calibrated
    by the run."""
    initial = np.asarray(initial, dtype=float)[None]
    (result,) = spsa_lockstep(one_seed(objective), initial, max_iters, [seed])
    return result


class TestSpsaMinimize:
    def test_defaults(self):
        params = inspect.signature(spsa_minimize).parameters
        assert params["max_iters"].default == 250
        assert params["seed"].default == 0
        assert C == 0.1
        assert ALPHA == 0.602
        assert GAMMA == 0.101
        assert stability(250) == 25.0

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValidationError, match="max_iters must be >= 1"):
            spsa_minimize(sphere, np.ones(3), max_iters=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
            ({"max_iters": True}, "max_iters must be an integer, got True"),
        ],
    )
    def test_rejects_bad_arguments_before_evaluating(self, kwargs, message):
        # the one count rule, errors.check_count: an int or np.integer, not a
        # bool, and a seed numpy's generators accept
        calls = []

        def counting(x):
            calls.append(x)
            return sphere(x)

        with pytest.raises(ValidationError, match=f"^{message}$"):
            spsa_minimize(counting, np.ones(2), **kwargs)
        assert calls == []

    def test_sphere_converges(self):
        # reference run: seeds 0-5 all land below 1e-5 with this setup
        res = spsa_minimize(sphere, np.ones(5), max_iters=500, seed=0)
        assert res.best_value < 1e-2

    def test_evaluation_count(self):
        calls = []

        def counting(x):
            calls.append(x.copy())
            return sphere(x)

        res = spsa_minimize(counting, np.ones(4), max_iters=40, seed=3)
        assert res.evaluations == 2 * 40 + 1
        # the calibration probes run first and are not counted
        assert len(calls) == 2 * PROBES + res.evaluations
        assert res.trace.shape == (41,)
        # last trace entry is the closing evaluation of the final iterate
        assert res.trace[-1] == sphere(calls[-1])

    def test_best_value_is_minimum_of_evaluations(self):
        values = []

        def recording(x):
            v = sphere(x)
            values.append(v)
            return v

        res = lone_spsa(recording, np.full(3, 2.0), 60, 1)
        # the calibration probes come first and are not candidates
        assert res.best_value == min(values[2 * PROBES :])
        assert sphere(res.best_params) == res.best_value

    def test_constant_objective_leaves_params_unchanged(self):
        x0 = np.array([0.3, -0.7, 1.1])
        res = spsa_minimize(lambda x: 4.25, x0, max_iters=30, seed=0)
        np.testing.assert_array_equal(res.best_params, x0)
        assert res.best_value == 4.25
        assert np.all(res.trace == 4.25)

    def test_deterministic_given_seed(self):
        r1 = spsa_minimize(sphere, np.ones(4), max_iters=50, seed=9)
        r2 = spsa_minimize(sphere, np.ones(4), max_iters=50, seed=9)
        np.testing.assert_array_equal(r1.best_params, r2.best_params)
        np.testing.assert_array_equal(r1.trace, r2.trace)
        assert r1.best_value == r2.best_value

    def test_nonfinite_objective_aborts_with_params(self):
        def bad(x):
            return np.nan

        with pytest.raises(EvaluationError, match="non-finite value nan at params"):
            spsa_minimize(bad, np.ones(2), max_iters=10, seed=0)

    def test_rejects_empty_initial(self):
        with pytest.raises(ValidationError, match="non-empty vector"):
            spsa_minimize(sphere, np.array([]), max_iters=10)

    @pytest.mark.parametrize("shape", [(), (2, 3), (0,), (3, 0)], ids=["scalar", "matrix", "empty", "empty-rows"])
    def test_start_point_is_a_non_empty_vector(self, shape):
        # checked once, by spsa_lockstep on the one-row batch; the objective is never called
        def objective(x):
            raise AssertionError("evaluated a malformed start")

        message = f"initial params must be a non-empty vector, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            spsa_minimize(objective, np.ones(shape), max_iters=10)

    def test_is_a_calibrated_lone_run(self):
        x0 = np.random.default_rng(4).uniform(-1, 1, 6)
        res = spsa_minimize(bumpy, x0, max_iters=70, seed=8)
        lone = lone_spsa(bumpy, x0, 70, 8)
        assert np.array_equal(res.best_params, lone.best_params)
        assert res.best_value == lone.best_value
        assert np.array_equal(res.trace, lone.trace)
        assert res.evaluations == lone.evaluations
        gain = reference_gain(bumpy, x0, 70, 8, PROBES)
        assert res.gain == lone.gain == gain
        # and both are SPSA written out at the written-out gain
        best_x, best_v, trace = reference_spsa(bumpy, x0, 70, gain, 8)
        assert np.array_equal(res.best_params, best_x)
        assert res.best_value == best_v
        assert np.array_equal(res.trace, trace)

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
        # first per-coordinate update land near TARGET_STEP
        x0 = np.ones(5)
        max_iters, seed = 500, 0
        a = lone_spsa(sphere, x0, max_iters, seed).gain
        a_0 = a / (stability(max_iters) + 1.0) ** ALPHA
        rng = np.random.default_rng(seed)
        delta = rng.integers(0, 2, size=5) * 2 - 1
        f_plus = sphere(x0 + C * delta)
        f_minus = sphere(x0 - C * delta)
        step = a_0 * abs(f_plus - f_minus) / (2 * C)
        assert 0.02 < step < 0.5

    def test_flat_objective_falls_back(self):
        a = lone_spsa(lambda x: 1.0, np.ones(3), 100, 0).gain
        assert a > 0
        assert np.isfinite(a)

    def test_deterministic(self):
        a1 = lone_spsa(sphere, np.ones(4), 100, 5).gain
        a2 = lone_spsa(sphere, np.ones(4), 100, 5).gain
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
        warm = WarmStart(np.array([0.3, 0.7]))
        with pytest.raises(ValidationError, match="qubits"):
            make_objective("ws-qaoa", self.ising, warm=warm)

    def test_ws_qaoa_zero_params_matches_initial_product_state(self):
        c = np.array([0.9, 0.1, 0.5])
        warm = WarmStart(c)
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

    @pytest.mark.parametrize(
        "kind, depth",
        [
            ("qaoa", {"p": 0}),
            ("qaoa", {"p": 1.5}),
            ("qaoa", {"p": True}),
            ("vqe", {"vqe_reps": -1}),
            ("vqe", {"vqe_reps": 2.0}),
            ("vqe", {"vqe_reps": False}),
        ],
    )
    def test_bad_depth_rejected(self, kind, depth):
        (name,) = depth
        with pytest.raises(ValidationError, match=name):
            make_objective(kind, self.ising, **depth)

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
        res = spsa_minimize(obj, x0, max_iters=200, seed=0)
        assert res.best_value < start
        # p=1 on a single edge can reach the ground state exactly
        assert res.best_value == pytest.approx(-1.0, abs=1e-2)


class TestLockstep:
    """Seeds advancing together give each seed exactly its lone result."""

    seeds = (4, 9, 1, 7)

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.ising = ising_from_graph(random_graph(rng, 4))
        self.warms = [WarmStart(rng.uniform(0.1, 0.9, 4)) for _ in self.seeds]

    def batch(self, kind):
        prepare, dim = make_ansatz(kind, self.ising, p=2, warm=self.warms, vqe_reps=2)
        initial = np.array([np.random.default_rng([s, 1]).uniform(-0.1, 0.1, dim) for s in self.seeds])
        return (lambda points, owners: row_energies(prepare, self.ising, points, owners)), initial

    def alone(self, kind, slot):
        objective, _ = make_objective(kind, self.ising, p=2, warm=self.warms[slot], vqe_reps=2)
        return objective

    @pytest.mark.parametrize(
        "shape, got", [((4,), "()"), ((4, 0), "(0,)"), ((4, 2, 3), "(2, 3)")], ids=["1-D", "empty", "3-D"]
    )
    def test_start_points_are_non_empty_vectors(self, shape, got):
        # row s of initial is seed s's start point; the objective is never called
        def objective(points, owners):
            raise AssertionError("evaluated a malformed start")

        message = f"initial params must be a non-empty vector, got shape {got}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            spsa_lockstep(objective, np.ones(shape), 5, self.seeds)

    @pytest.mark.parametrize("kind", ["qaoa", "ws-qaoa", "vqe"])
    def test_calibration_equals_sequential_runs(self, kind):
        objective, initial = self.batch(kind)
        results = spsa_lockstep(objective, initial, 30, self.seeds)
        for slot, seed in enumerate(self.seeds):
            lone = lone_spsa(self.alone(kind, slot), initial[slot], 30, seed)
            assert results[slot].gain == lone.gain

    @pytest.mark.parametrize("kind", ["qaoa", "ws-qaoa", "vqe"])
    def test_spsa_equals_sequential_runs(self, kind):
        objective, initial = self.batch(kind)
        results = spsa_lockstep(objective, initial, 30, self.seeds)
        for slot, seed in enumerate(self.seeds):
            lone = lone_spsa(self.alone(kind, slot), initial[slot], 30, seed)
            got = results[slot]
            assert np.array_equal(got.best_params, lone.best_params)
            assert got.best_value == lone.best_value
            assert np.array_equal(got.trace, lone.trace)
            assert got.evaluations == lone.evaluations == 61


class TestRepeatedRows:
    """row_energies at the row cap (row_cap(n) == 1) prepares each distinct
    (owner, params) row once, told apart by bytes, and gives every repeat
    that row's energy; a batch of distinct rows, and any batch below the
    cap, reaches prepare as slices of itself in row_cap chunks."""

    def prepared(self, n, kind="ws-qaoa"):
        rng = np.random.default_rng(n)
        ising = ising_from_graph(random_graph(rng, n))
        warms = [WarmStart(rng.uniform(0.1, 0.9, n)) for _ in range(2)]
        prepare, _ = make_ansatz(kind, ising, warm=warms)
        calls = []

        def counting(params, owners):
            calls.append((params.copy(), owners.copy(), params.base))
            return prepare(params, owners)

        return ising, prepare, counting, calls

    @staticmethod
    def batch():
        """Rows 0-5 repeat, reversed, as rows 6-11.  Row 1 is row 0 at the
        other owner, row 2 is row 0 with -0.0 for 0.0, and row 3 is row 2
        at the other owner."""
        x = np.array([[0.0, 0.3], [0.0, 0.3], [-0.0, 0.3], [-0.0, 0.3], [0.2, -0.1], [0.2, 0.1]])
        owners = np.array([0, 1, 0, 1, 1, 1])
        return np.concatenate([x, x[::-1]]), np.concatenate([owners, owners[::-1]])

    @pytest.mark.parametrize("kind", ["qaoa", "ws-qaoa"])
    @pytest.mark.parametrize("n", [13, 14])
    def test_each_distinct_row_prepared_once(self, n, kind):
        assert row_cap(n) == 1
        ising, prepare, counting, calls = self.prepared(n, kind)
        params, owners = self.batch()
        got = row_energies(counting, ising, params, owners)
        for r in range(len(params)):
            lone = row_energies(prepare, ising, params[r : r + 1], owners[r : r + 1])
            assert got[r].tobytes() == lone[0].tobytes(), r
        # the first six rows, each alone and in order: owner and the sign
        # of a zero keep rows apart, and rows 6-11 repeat them
        if kind == "ws-qaoa":  # the owner picks the warm start
            assert got[0] != got[1]
        assert len(calls) == 6
        for r, (x, o, _) in enumerate(calls):
            assert x.tobytes() == params[r : r + 1].tobytes()
            assert o.tolist() == [owners[r]]

    @pytest.mark.parametrize("n", [5, 12, 13, 14])
    def test_chunks_are_slices_of_the_batch(self, n):
        # below the cap even a batch with repeats, at the cap one whose
        # rows are all distinct
        ising, prepare, counting, calls = self.prepared(n)
        params, owners = self.batch()
        if row_cap(n) == 1:
            params, owners = params[:6].copy(), owners[:6].copy()
        row_energies(counting, ising, params, owners)
        step = row_cap(n)
        starts = range(0, len(params), step)
        assert len(calls) == len(starts)
        for lo, (x, o, base) in zip(starts, calls):
            assert x.tobytes() == params[lo : lo + step].tobytes()
            assert o.tobytes() == owners[lo : lo + step].tobytes()
            assert base is params  # not a gathered copy


def reference_spsa(objective, initial, max_iters, a, seed):
    """SPSA written out for one seed, drawing one sign vector per
    iteration from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    x = np.array(initial, dtype=float)
    best_x, best_v, trace = x.copy(), np.inf, []
    for k in range(max_iters):
        a_k = a / (stability(max_iters) + k + 1.0) ** ALPHA
        c_k = C / (k + 1.0) ** GAMMA
        delta = rng.integers(0, 2, size=x.size) * 2 - 1
        plus, minus = x + c_k * delta, x - c_k * delta
        f_plus, f_minus = objective(plus), objective(minus)
        for value, point in ((f_plus, plus), (f_minus, minus)):
            if value < best_v:
                best_x, best_v = point, value
        trace.append(min(f_plus, f_minus))
        x = x - a_k * ((f_plus - f_minus) / (2.0 * c_k) * delta.astype(float))
    final = objective(x)
    trace.append(final)
    if final <= best_v:
        best_x, best_v = x, final
    return best_x, best_v, np.array(trace)


def reference_gain(objective, initial, max_iters, seed, probes, target_step=0.1):
    """Step-gain calibration written out, one draw per probe."""
    rng = np.random.default_rng([seed, 0x5CA1])
    mags = []
    for _ in range(probes):
        delta = rng.integers(0, 2, size=initial.size) * 2 - 1
        f_plus = objective(initial + C * delta)
        f_minus = objective(initial - C * delta)
        mags.append(abs(f_plus - f_minus) / (2.0 * C))
    return target_step * (stability(max_iters) + 1.0) ** ALPHA / float(np.mean(mags))


def bumpy(x):
    return float(np.sin(3.0 * x).sum() + x @ x)


class TestDrawBlocks:
    """Perturbations drawn a block of iterations at a time equal one draw
    per iteration, across block boundaries."""

    iters = 2 * DRAW_BLOCK + 5

    @pytest.mark.parametrize("dim", [7, 8])
    def test_spsa_equals_one_draw_per_iteration(self, dim):
        initial = np.random.default_rng(dim).uniform(-1, 1, dim)
        res = lone_spsa(bumpy, initial, self.iters, 3)
        best_x, best_v, trace = reference_spsa(bumpy, initial, self.iters, res.gain, 3)
        assert np.array_equal(res.best_params, best_x)
        assert res.best_value == best_v
        assert np.array_equal(res.trace, trace)

    @pytest.mark.parametrize("dim", [7, 8])
    def test_calibration_equals_one_draw_per_probe(self, dim):
        initial = np.random.default_rng(dim).uniform(-1, 1, dim)
        # calibration draws PROBES vectors in one call, fewer than a block
        gain = lone_spsa(bumpy, initial, 250, 5).gain
        assert gain == reference_gain(bumpy, initial, 250, 5, PROBES)


# each seed's calls: 2 * PROBES calibration probes (probe k's plus point is
# call 2k + 1, its minus point 2k + 2), then a plus and a minus point per
# iteration, then the final point
FAIL_ITERS = 2 * DRAW_BLOCK + 5
SPSA_CALL = 2 * PROBES


class TestNonFinite:
    """A non-finite value ends every seed of the batch with the error a
    lone run of the seed it belongs to raises, plus that seed's number."""

    seeds, dim = (4, 9, 2, 6), 5

    @pytest.mark.parametrize(
        "poison, first, start_value",
        [
            # calibration: the first non-finite probe in probe order, plus
            # before minus, each reported at the seed's start point
            ({1: {2 * 3 + 2: -np.inf, 2 * 5 + 1: np.nan}}, 1, -np.inf),
            ({1: {2 * 4 + 1: np.nan, 2 * 4 + 2: -np.inf}}, 1, np.nan),
            # an earlier probe of a later seed comes first
            ({0: {2 * 4 + 1: np.nan}, 2: {2 * 1 + 2: np.inf}}, 2, np.inf),
            # SPSA: the plus point of iteration 0, for one seed and for two
            ({1: {SPSA_CALL + 1: np.nan}}, 1, None),
            ({3: {SPSA_CALL + 1: np.nan}, 2: {SPSA_CALL + 1: np.inf}}, 2, None),
            # the plus point of iteration DRAW_BLOCK + 10, in the second block
            ({1: {SPSA_CALL + 2 * (DRAW_BLOCK + 10) + 1: np.nan}}, 1, None),
            # the minus point of the last iteration, and the final point
            ({1: {SPSA_CALL + 2 * FAIL_ITERS: np.nan}}, 1, None),
            ({3: {SPSA_CALL + 2 * FAIL_ITERS + 1: np.inf}}, 3, None),
        ],
        ids=[
            "probe-order", "probe-plus-before-minus", "probe-sets-before-slots",
            "iteration-0-plus", "slots-in-order", "later-block", "last-minus", "final",
        ],
    )
    def test_fails_every_seed_as_the_first_alone(self, poison, first, start_value):
        initial = np.random.default_rng(2).uniform(-1, 1, (len(self.seeds), self.dim))
        calls = dict.fromkeys(poison, 0)

        def objective(points, owners):
            values = np.array([bumpy(x) for x in points])
            for slot, at in poison.items():
                for r in np.flatnonzero(owners == slot):  # in call order
                    calls[slot] += 1
                    values[r] = at.get(calls[slot], values[r])
            return values

        count = {"n": 0}

        def alone(x):
            count["n"] += 1
            return poison[first].get(count["n"], bumpy(x))

        with pytest.raises(EvaluationError) as lone:
            lone_spsa(alone, initial[first], FAIL_ITERS, self.seeds[first])
        if start_value is not None:
            assert str(lone.value) == (
                f"objective returned non-finite value {start_value!r} "
                f"at params {initial[first].tolist()}"
            )
        with pytest.raises(EvaluationError) as batch:
            spsa_lockstep(objective, initial, FAIL_ITERS, self.seeds)
        assert str(batch.value) == f"{lone.value} (seed {self.seeds[first]})"
