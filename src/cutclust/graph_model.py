"""Data -> weighted graph -> Ising / QUBO conversions.

Bit convention used everywhere in this package: bit i of an integer basis
index is the value of qubit i, with qubit 0 the least significant bit.
Data row i maps to qubit i.

Energies are diagonal: for a weighted graph with weights w_ij, the cost of
bitstring x is E(x) = -sum_{i<j} w_ij * [x_i != x_j] = -cut(x), so the
ground states of the Ising diagonal are exactly the maximum cuts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count

QUBIT_CAP = 14


def bits_from_index(index, n: int) -> np.ndarray:
    """Per-qubit bits (qubit 0 first) of a basis-state index, or of an
    integer array of them of shape (..., 1), giving shape (..., n)."""
    bits = index >> np.arange(n)
    bits &= 1
    return bits


def mirror(half: np.ndarray) -> np.ndarray:
    """The vectors v over 2^n indices with v[x] == v[~x], from their first
    halves (qubit n-1 at 0) along the last axis of ``half``: index
    2^n - 1 - k is the complement of k, so the second half is the first reversed."""
    return np.concatenate([half, half[..., ::-1]], axis=-1)


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
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
            raise ValidationError(f"weights must be a non-empty square matrix, got shape {w.shape}")
        bad = np.argwhere(~np.isfinite(w))
        if bad.size:
            raise ValidationError(f"weights{bad[0].tolist()} = {w[tuple(bad[0])]} is not finite")
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
    """Finite cut energies over all 2^n bitstrings, n >= 1.

    A cut keeps its weight when its two sides swap, so energies[k] ==
    energies[2^n - 1 - k] exactly for every k, i.e. E(x) == E(~x); a
    diagonal without that symmetry is rejected, and the cost phase
    computes half of it."""

    n: int
    energies: np.ndarray

    def __post_init__(self):
        n = self.n
        check_count("n", n, 1)
        e = np.asarray(self.energies, dtype=float)
        if e.shape != (2**n,):
            raise ValidationError(f"energies must have length 2^{n}")
        bad = np.flatnonzero(~np.isfinite(e))
        if bad.size:
            raise ValidationError(f"energies[{bad[0]}] = {e[bad[0]]} is not finite")
        bad = np.flatnonzero(e != e[::-1])
        if bad.size:
            k = bad[0]
            raise ValidationError(f"energies[{k}] != energies[{e.size - 1 - k}]: not a cut diagonal")
        object.__setattr__(self, "energies", e)


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
        for name, a in (("linear", lin), ("quadratic", quad)):
            bad = np.argwhere(~np.isfinite(a))
            if bad.size:
                raise ValidationError(f"{name}{bad[0].tolist()} = {a[tuple(bad[0])]} is not finite")
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
    # a distance beyond float64 is reported below, without numpy's warning
    with np.errstate(over="ignore"):
        diff = x[:, None, :] - x[None, :, :]
        w = np.sqrt((diff**2).sum(axis=-1))
    if not np.isfinite(w).all():
        i, j = np.argwhere(~np.isfinite(w))[0]
        raise ValidationError(f"the distance between rows {i} and {j} overflows float64")
    return WeightedGraph(weights=w)


def ising_from_graph(graph: WeightedGraph) -> IsingDiagonal:
    """Diagonal energies E(x) = -cut(x) for every bitstring x.

    Uses cut(x) = x^T W (1 - x); only the half with qubit n-1 = 0 is
    computed and :func:`mirror` gives the rest, so energies[x] ==
    energies[~x] exactly.
    """
    n = graph.n
    if n > QUBIT_CAP:
        raise ValidationError(f"{n} qubits exceeds the cap of {QUBIT_CAP}")
    half = 2 ** (n - 1)
    # row k holds the bits of k; 1 - x overwrites x once x W is taken
    bits = bits_from_index(np.arange(half)[:, None], n).astype(float)
    cut = bits @ graph.weights
    np.subtract(1.0, bits, out=bits)
    cut *= bits
    cut = cut.sum(axis=1)
    return IsingDiagonal(n=n, energies=mirror(-cut))


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
    bad = np.flatnonzero((bits != 0) & (bits != 1))
    if bad.size:
        raise ValidationError(f"assignment entry {bits[bad[0]]} at node {bad[0]} is not 0 or 1")
    diff = bits[:, None] != bits[None, :]
    return float((graph.weights * diff).sum() / 2.0)
