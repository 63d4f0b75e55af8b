"""The three parameterized trial states.

- QAOA: alternating cost-phase / transverse-field mixer layers on the
  uniform superposition, depth p.
- Warm-start QAOA: per-qubit initial rotations theta_i = 2 arcsin(sqrt(c_i))
  from a relaxed QUBO solution c, and a per-qubit mixer built so that the
  initial product state is its -1 eigenvector. The mixer matrix is
      [[2c - 1,          -2 sqrt(c(1-c))],
       [-2 sqrt(c(1-c)),  1 - 2c       ]]
  which squares to the identity, so exp(-i beta H) = cos(beta) I - i sin(beta) H.
- VQE: hardware-efficient R_y + linear-chain CNOT circuit, `reps` repetitions
  after the initial rotation layer (no entangler after the last layer).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .graph_model import IsingDiagonal, mirror
from .simulator import (
    KRON_MIN_QUBITS,
    _gate,
    _half_phases,
    apply_kron_layer_rows,
    apply_layer_rows,
    apply_phase_rows,
    gather_rows,
    kron_factors,
    product_rows,
    ry,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)


@dataclass(frozen=True)
class WarmStart:
    """Relaxed solution c in [0,1]^n and the rotation angles it sets,
    theta_i = 2 arcsin(sqrt(c_i)), monotone on [0, pi]."""

    c_star: np.ndarray
    thetas: np.ndarray = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.c_star, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError(f"c_star must be a non-empty vector, got shape {c.shape}")
        # NaN fails both comparisons, so it is out of range too
        if not np.all((c >= 0.0) & (c <= 1.0)):
            raise ValidationError("c_star entries must lie in [0, 1]")
        object.__setattr__(self, "c_star", c)
        object.__setattr__(self, "thetas", 2.0 * np.arcsin(np.sqrt(c)))

    @property
    def n(self) -> int:
        return self.c_star.size


# row builders ----------------------------------------------------------------
#
# Each builder prepares one state per row of its parameter arrays, through
# the row kernels of the simulator.

def ws_mixer_hamiltonian(c) -> np.ndarray:
    """Per-qubit warm-start mixer H(c); an array of c gives a stack of them."""
    c = np.asarray(c, dtype=float)
    off = -2.0 * np.sqrt(c * (1.0 - c))
    return _gate(2.0 * c - 1.0, off, off, 1.0 - 2.0 * c)


def _check_interior(c) -> None:
    c = np.asarray(c, dtype=float)
    bad = c[~((c > 0.0) & (c < 1.0))]
    if bad.size:
        raise ValidationError(f"c={bad[0]} must lie strictly inside (0, 1); clip first")


def _mixer_unitaries(hams: np.ndarray, betas) -> np.ndarray:
    """exp(-i beta H) = cos(beta) I - i sin(beta) H, since H^2 = I; betas
    broadcast against the leading axes of the (..., 2, 2) Hamiltonians."""
    betas = np.asarray(betas)[..., None, None]
    return np.cos(betas) * IDENTITY - 1j * np.sin(betas) * hams


def warm_start_rows(warms: Sequence[WarmStart], n: int) -> tuple[np.ndarray, np.ndarray]:
    """ws-QAOA's per-qubit mixer Hamiltonians and R_y(theta_i) product
    start state, one row per warm start, for :func:`qaoa_rows`."""
    for w in warms:
        if w.n != n:
            raise ValidationError(f"warm start has {w.n} qubits but Hamiltonian has {n}")
    c_star = np.stack([w.c_star for w in warms])
    _check_interior(c_star)
    thetas = np.stack([w.thetas for w in warms])
    # the start state from the first column of each R_y(theta_i)
    return ws_mixer_hamiltonian(c_star), product_rows(ry(thetas)[..., 0])


def qaoa_rows(
    ising: IsingDiagonal,
    hams: np.ndarray,
    initial: np.ndarray,
    betas: np.ndarray,
    gammas: np.ndarray,
) -> np.ndarray:
    """Alternate exp(-i gamma H_C) and exp(-i beta H_q) on every qubit q,
    starting from the rows of ``initial``; one state per row of the
    (rows, p) angle arrays.  Row r uses the (n, 2, 2) mixer Hamiltonians
    ``hams[r]``; a single row of ``hams`` or ``initial`` serves every row."""
    psi = initial
    for layer in range(betas.shape[1]):
        psi = apply_phase_rows(psi, mirror(_half_phases(gammas[:, layer], ising)), ising.n)
        psi = apply_layer_rows(psi, _mixer_unitaries(hams, betas[:, layer, None]))
    return psi


def qaoa_half_rows(ising: IsingDiagonal, betas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Standard QAOA on half the state: :func:`qaoa_rows` from |+...+>
    with the mixer X on every qubit (exp(-i beta X) = R_x(2 beta)), bit
    for bit.

    The cut cost, |+...+> and the X mixer all commute with X on every
    qubit, so each state keeps psi[2^n - 1 - k] == psi[k]; only the first
    half, with qubit n-1 at 0, is simulated.  Gates 0..n-2 never pair it
    with the second half, which is the first reversed, so gate n-1 gives
    ``u00 * half + u01 * half[:, ::-1]``, the products and sum of the
    whole-state gate."""
    n = ising.n
    half = np.full((1, 2 ** (n - 1)), 2.0 ** (-n / 2.0))
    hams = np.broadcast_to(PAULI_X, (1, n, 2, 2))
    for layer in range(betas.shape[1]):
        half = apply_phase_rows(half, _half_phases(gammas[:, layer], ising), n)
        gates = _mixer_unitaries(hams, betas[:, layer, None])
        half = apply_layer_rows(half, gates[:, :-1])
        u = gates[:, -1, :, :, None]
        half = u[:, 0, 0] * half + u[:, 0, 1] * half[:, ::-1]
    return mirror(half)


def vqe_param_count(n: int, reps: int) -> int:
    return n * (reps + 1)


def vqe_rows(angles: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """R_y layer, then blocks of [CNOT chain, R_y layer], from |0...0>; one
    real state per row of the (rows, reps + 1, n) angle array.  ``chain``
    is ``cnot_chain_perm(n)``, built once by the caller.  The first layer
    acts on |0...0> and is built from the first column of each gate; from
    KRON_MIN_QUBITS on, the others are three matrix products each."""
    gates = ry(angles)
    psi = product_rows(gates[:, 0, :, :, 0])
    apply, layers = apply_layer_rows, gates[:, 1:].swapaxes(0, 1)
    if angles.shape[2] >= KRON_MIN_QUBITS:
        apply, layers = apply_kron_layer_rows, zip(*kron_factors(layers))
    for layer in layers:
        psi = apply(gather_rows(psi, chain), layer)
    return psi
