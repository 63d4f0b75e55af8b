"""Data -> weighted graph -> Ising / QUBO conversions.

Bit convention used everywhere in this package: bit i of an integer basis
index is the value of qubit i, with qubit 0 the least significant bit.
Data row i maps to qubit i.

Energies are diagonal: for a weighted graph with weights w_ij, the cost of
bitstring x is E(x) = -sum_{i<j} w_ij * [x_i != x_j] = -cut(x), so the
ground states of the Ising diagonal are exactly the maximum cuts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

QUBIT_CAP = 14


def bits_from_index(index: int, n: int) -> np.ndarray:
    """Per-qubit bits (qubit 0 first) of a basis-state index."""
    return (index >> np.arange(n)) & 1


def all_bitstrings(n: int) -> np.ndarray:
    """(2^n, n) matrix whose row k is bits_from_index(k, n)."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


@dataclass(frozen=True)
class Dataset:
    """N rows of d real features, with optional names, class labels and
    feature column names."""

    points: np.ndarray
    labels: tuple[int, ...] | None = None
    names: tuple[str, ...] | None = None
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2:
            raise ValidationError("points must be a 2-D array of shape (N, d)")
        n, d = points.shape
        if n < 2:
            raise ValidationError(f"need at least 2 rows, got {n}")
        if d < 1:
            raise ValidationError("need at least 1 feature column")
        bad = np.where(~np.isfinite(points).all(axis=1))[0]
        if bad.size:
            raise ValidationError(f"non-finite feature in row {bad[0]}")
        if self.labels is not None and len(self.labels) != n:
            raise ValidationError("labels length must match row count")
        if self.names is not None and len(self.names) != n:
            raise ValidationError("names length must match row count")
        if self.columns is not None and len(self.columns) != d:
            raise ValidationError("columns length must match feature count")
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative edge weights over n nodes, zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError("weights must be a square matrix")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if not np.allclose(w, w.T, atol=1e-12):
            raise ValidationError("weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValidationError("weights must have a zero diagonal")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class IsingDiagonal:
    """Diagonal cost energies over all 2^n bitstrings.

    ``mirrored`` records that energies[2^n - 1 - k] == energies[k] exactly
    for every k, i.e. E(x) == E(~x), as for every diagonal that
    ising_from_graph builds; the cost phase then computes half of it."""

    n: int
    energies: np.ndarray
    mirrored: bool = field(init=False)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.shape != (2**self.n,):
            raise ValidationError(f"energies must have length 2^{self.n}")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "mirrored", bool(np.array_equal(e, e[::-1])))


@dataclass(frozen=True)
class QuboProblem:
    """Maximize linear . x + x^T quadratic x over binary (or boxed) x."""

    linear: np.ndarray
    quadratic: np.ndarray

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float)
        quad = np.asarray(self.quadratic, dtype=float)
        if lin.ndim != 1 or quad.shape != (lin.size, lin.size):
            raise ValidationError("linear must be length n and quadratic n x n")
        if not np.allclose(quad, quad.T, atol=1e-12):
            raise ValidationError("quadratic must be symmetric")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)

    @property
    def n(self) -> int:
        return self.linear.size

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.linear @ x + x @ self.quadratic @ x)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.linear + 2.0 * (self.quadratic @ x)


def euclidean_weights(dataset: Dataset) -> WeightedGraph:
    """Pairwise Euclidean distances between rows as edge weights."""
    x = dataset.points
    diff = x[:, None, :] - x[None, :, :]
    w = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(w, 0.0)
    w = 0.5 * (w + w.T)
    return WeightedGraph(weights=w)


def ising_from_graph(graph: WeightedGraph) -> IsingDiagonal:
    """Diagonal energies E(x) = -cut(x) for every bitstring x.

    Uses cut(x) = x^T W (1 - x); only the half with qubit n-1 = 0 is
    computed and the rest mirrored, so energies[x] == energies[~x] exactly.
    """
    n = graph.n
    if n > QUBIT_CAP:
        raise ValidationError(f"{n} qubits exceeds the cap of {QUBIT_CAP}")
    half = 2 ** (n - 1)
    bits = all_bitstrings(n)[:half].astype(float)
    cut = ((bits @ graph.weights) * (1.0 - bits)).sum(axis=1)
    energies = np.empty(2**n)
    energies[:half] = -cut
    energies[half:] = -cut[::-1]  # index 2^n - 1 - k is the complement of k
    return IsingDiagonal(n=n, energies=energies)


def qubo_from_graph(graph: WeightedGraph) -> QuboProblem:
    """MAXCUT as a maximization QUBO: f(x) = sum_{i<j} w_ij (x_i + x_j - 2 x_i x_j).

    On binary x this equals cut(x); the all-zeros point scores 0.
    """
    degree = graph.weights.sum(axis=1)
    return QuboProblem(linear=degree, quadratic=-graph.weights)


def cut_value(graph: WeightedGraph, assignment) -> float:
    """Total weight of edges whose endpoints get different bits."""
    bits = np.asarray(assignment)
    if bits.shape != (graph.n,):
        raise ValidationError(
            f"assignment length {bits.size} does not match {graph.n} nodes"
        )
    diff = bits[:, None] != bits[None, :]
    return float((graph.weights * diff).sum() / 2.0)
