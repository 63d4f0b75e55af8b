import itertools

import numpy as np
import pytest

from cutclust import relaxation
from cutclust.ansatz import WarmStart
from cutclust.errors import ValidationError
from cutclust.graph_model import WeightedGraph, qubo_from_graph
from cutclust.relaxation import (
    clip_cstar,
    relax_qubo,
)


def single_edge_qubo(w=1.0):
    return qubo_from_graph(WeightedGraph(weights=np.array([[0.0, w], [w, 0.0]])))


def triangle_qubo(w=1.0):
    m = np.full((3, 3), w)
    np.fill_diagonal(m, 0.0)
    return qubo_from_graph(WeightedGraph(weights=m))


def random_qubo(rng, n):
    w = rng.uniform(0.0, 10.0, size=(n, n))
    w = np.triu(w, k=1)
    return qubo_from_graph(WeightedGraph(weights=w + w.T))


def grid_search_max(qubo, points_per_axis):
    """Independent oracle: exhaustive grid over the unit box."""
    axis = np.linspace(0.0, 1.0, points_per_axis)
    best = -np.inf
    arg = None
    for x in itertools.product(axis, repeat=qubo.n):
        val = qubo.objective(np.array(x))
        if val > best:
            best, arg = val, np.array(x)
    return best, arg


def best_binary_vertex(qubo):
    return max(
        qubo.objective(np.array(bits))
        for bits in itertools.product((0.0, 1.0), repeat=qubo.n)
    )


class TestRelaxQubo:
    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
         (True, "seed must be an integer, got True")],
        ids=["-1", "1.5", "True"],
    )
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            relax_qubo(single_edge_qubo(1.0), seed=seed)

    def test_zero_weights(self):
        qubo = qubo_from_graph(WeightedGraph(weights=np.zeros((3, 3))))
        result = relax_qubo(qubo, seed=1)
        assert result.objective == pytest.approx(0.0)
        assert np.all((result.c_star >= 0.0) & (result.c_star <= 1.0))

    def test_single_edge_grid_oracle(self):
        qubo = single_edge_qubo(1.0)
        oracle_best, _ = grid_search_max(qubo, 201)
        assert oracle_best == pytest.approx(1.0, abs=1e-9)
        result = relax_qubo(qubo, seed=2)
        assert result.objective == pytest.approx(1.0, abs=1e-6)
        hit = np.allclose(result.c_star, [1.0, 0.0], atol=1e-3) or np.allclose(
            result.c_star, [0.0, 1.0], atol=1e-3
        )
        assert hit

    def test_triangle_grid_oracle(self):
        qubo = triangle_qubo(1.0)
        oracle_best, _ = grid_search_max(qubo, 51)
        assert oracle_best == pytest.approx(2.0, abs=1e-9)
        result = relax_qubo(qubo, seed=3)
        assert result.objective == pytest.approx(2.0, abs=1e-6)

    def test_dominates_best_vertex_up_to_n10(self):
        rng = np.random.default_rng(4)
        for n in range(2, 11):
            qubo = random_qubo(rng, n)
            result = relax_qubo(qubo, seed=5)
            assert result.objective >= best_binary_vertex(qubo) - 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        qubo = random_qubo(rng, 5)
        a = relax_qubo(qubo, seed=7)
        b = relax_qubo(qubo, seed=7)
        assert np.array_equal(a.c_star, b.c_star)
        assert a.objective == b.objective

    def test_feasible_exactly(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 8):
            result = relax_qubo(random_qubo(rng, n), seed=9)
            assert np.all(result.c_star >= 0.0)
            assert np.all(result.c_star <= 1.0)

    def test_capped_flag_on_tiny_budget(self, monkeypatch):
        rng = np.random.default_rng(10)
        qubo = random_qubo(rng, 6)
        monkeypatch.setattr(relaxation, "MAX_ITERS", 1)
        monkeypatch.setattr(relaxation, "RESTARTS", 1)
        result = relax_qubo(qubo, seed=11)
        assert result.capped


class TestClipCstar:
    def test_zero_margin_identity(self):
        c = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(clip_cstar(c, 0.0), c)

    def test_binary_pair(self):
        assert np.allclose(clip_cstar([1.0, 0.0], 0.1), [0.9, 0.1])

    def test_interior_fixed_point(self):
        for eps in (0.0, 0.1, 0.49):
            assert clip_cstar([0.5], eps)[0] == 0.5

    @pytest.mark.parametrize("eps", [-0.1, 0.7, float("nan")])
    def test_margin_outside_range_rejected(self, eps):
        # at 0.7 np.clip's lower bound passes its upper one, and every
        # entry would come back as 0.3
        with pytest.raises(ValidationError, match=r"epsilon must lie in \[0, 0.5\]"):
            clip_cstar([0.0, 1.0, 0.3], eps)


class TestThetasFromCstar:
    """Angles of WarmStart: theta_i = 2 arcsin(sqrt(c_i)), set by c_star alone."""

    def test_thetas_come_from_cstar(self):
        c = np.linspace(0.0, 1.0, 11)
        assert WarmStart(c).thetas.tobytes() == (2.0 * np.arcsin(np.sqrt(c))).tobytes()
        # angles that could disagree with c_star are not accepted
        with pytest.raises(TypeError):
            WarmStart(c_star=c, thetas=np.zeros(11))

    def test_endpoints_and_middle(self):
        thetas = WarmStart([0.0, 0.5, 1.0]).thetas
        assert np.allclose(thetas, [0.0, np.pi / 2.0, np.pi])

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 101)
        thetas = WarmStart(grid).thetas
        assert np.all(np.diff(thetas) > 0.0)

    def test_round_trip(self):
        grid = np.linspace(0.0, 1.0, 1001)
        thetas = WarmStart(grid).thetas
        assert np.allclose(np.sin(thetas / 2.0) ** 2, grid, atol=1e-12)

    def test_out_of_range(self):
        # checked before arcsin, so no invalid-value warning is emitted
        for c in ([1.2], [-0.1]):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                WarmStart(c)

    @pytest.mark.parametrize(
        "c, shape",
        [(np.full((2, 2), 0.4), "(2, 2)"), (0.3, "()"), ([], "(0,)")],
        ids=["matrix", "scalar", "empty"],
    )
    def test_not_a_vector(self, c, shape):
        # rejected before make_objective could fail unpacking the shape
        with pytest.raises(ValidationError) as exc:
            WarmStart(c)
        assert str(exc.value) == f"c_star must be a non-empty vector, got shape {shape}"


class TestSharedRestarts:
    def test_shared_ascents_equal_lone_runs(self, monkeypatch):
        # restart r of seed s starts from default_rng(s + r): seeds 1-10
        # with 32 restarts have 41 distinct starts
        rng = np.random.default_rng(12)
        qubo = random_qubo(rng, 6)
        lone = [relax_qubo(qubo, seed=seed) for seed in range(1, 11)]
        calls = {"n": 0}
        ascend = relaxation._ascend

        def counted(*args):
            calls["n"] += 1
            return ascend(*args)

        monkeypatch.setattr(relaxation, "_ascend", counted)
        ascents = {}
        for seed, alone in zip(range(1, 11), lone):
            shared = relax_qubo(qubo, seed, ascents)
            assert np.array_equal(shared.c_star, alone.c_star)
            assert shared.objective == alone.objective
            assert shared.capped == alone.capped
        assert calls["n"] == 41
        assert sorted(ascents) == list(range(1, 42))
