import itertools

import numpy as np
import pytest

from cutclust.ansatz import WarmStart
from cutclust.errors import ValidationError
from cutclust.graph_model import WeightedGraph, qubo_from_graph
from cutclust.relaxation import (
    RelaxConfig,
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
    def test_zero_weights(self):
        qubo = qubo_from_graph(WeightedGraph(weights=np.zeros((3, 3))))
        result = relax_qubo(qubo, RelaxConfig(seed=1))
        assert result.objective == pytest.approx(0.0)
        assert np.all((result.c_star >= 0.0) & (result.c_star <= 1.0))

    def test_single_edge_grid_oracle(self):
        qubo = single_edge_qubo(1.0)
        oracle_best, _ = grid_search_max(qubo, 201)
        assert oracle_best == pytest.approx(1.0, abs=1e-9)
        result = relax_qubo(qubo, RelaxConfig(seed=2))
        assert result.objective == pytest.approx(1.0, abs=1e-6)
        hit = np.allclose(result.c_star, [1.0, 0.0], atol=1e-3) or np.allclose(
            result.c_star, [0.0, 1.0], atol=1e-3
        )
        assert hit

    def test_triangle_grid_oracle(self):
        qubo = triangle_qubo(1.0)
        oracle_best, _ = grid_search_max(qubo, 51)
        assert oracle_best == pytest.approx(2.0, abs=1e-9)
        result = relax_qubo(qubo, RelaxConfig(seed=3))
        assert result.objective == pytest.approx(2.0, abs=1e-6)

    def test_dominates_best_vertex_up_to_n10(self):
        rng = np.random.default_rng(4)
        for n in range(2, 11):
            qubo = random_qubo(rng, n)
            result = relax_qubo(qubo, RelaxConfig(seed=5))
            assert result.objective >= best_binary_vertex(qubo) - 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        qubo = random_qubo(rng, 5)
        a = relax_qubo(qubo, RelaxConfig(seed=7))
        b = relax_qubo(qubo, RelaxConfig(seed=7))
        assert np.array_equal(a.c_star, b.c_star)
        assert a.objective == b.objective

    def test_feasible_exactly(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 8):
            result = relax_qubo(random_qubo(rng, n), RelaxConfig(seed=9))
            assert np.all(result.c_star >= 0.0)
            assert np.all(result.c_star <= 1.0)

    def test_capped_flag_on_tiny_budget(self):
        rng = np.random.default_rng(10)
        qubo = random_qubo(rng, 6)
        result = relax_qubo(qubo, RelaxConfig(restarts=1, max_iters=1, step=1e-6, seed=11))
        assert result.capped


class TestRelaxConfig:
    def test_epsilon_range(self):
        for eps in (0.5, -0.01, 0.0):
            with pytest.raises(ValidationError, match="epsilon"):
                RelaxConfig(epsilon=eps)

    def test_restarts_positive(self):
        with pytest.raises(ValidationError):
            RelaxConfig(restarts=0)


class TestClipCstar:
    def test_zero_margin_identity(self):
        c = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(clip_cstar(c, 0.0), c)

    def test_binary_pair(self):
        assert np.allclose(clip_cstar([1.0, 0.0], 0.1), [0.9, 0.1])

    def test_interior_fixed_point(self):
        for eps in (0.0, 0.1, 0.49):
            assert clip_cstar([0.5], eps)[0] == 0.5


class TestThetasFromCstar:
    """Angles of WarmStart.from_cstar: theta_i = 2 arcsin(sqrt(c_i))."""

    def test_endpoints_and_middle(self):
        thetas = WarmStart.from_cstar([0.0, 0.5, 1.0]).thetas
        assert np.allclose(thetas, [0.0, np.pi / 2.0, np.pi])

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 101)
        thetas = WarmStart.from_cstar(grid).thetas
        assert np.all(np.diff(thetas) > 0.0)

    def test_round_trip(self):
        grid = np.linspace(0.0, 1.0, 1001)
        thetas = WarmStart.from_cstar(grid).thetas
        assert np.allclose(np.sin(thetas / 2.0) ** 2, grid, atol=1e-12)

    def test_out_of_range(self):
        # checked before arcsin, so no invalid-value warning is emitted
        for c in ([1.2], [-0.1]):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                WarmStart.from_cstar(c)
