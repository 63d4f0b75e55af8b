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
from .graph_model import IsingDiagonal
from .simulator import (
    Statevector,
    _gate,
    apply_diagonal_phase_rows,
    apply_layer_rows,
    cnot_chain_perm,
    gather_rows,
    product_rows,
    ry,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)


@dataclass(frozen=True)
class QaoaParams:
    """Depth-p angle schedule: betas drive the mixer, gammas the cost phase."""

    betas: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        betas = np.atleast_1d(np.asarray(self.betas, dtype=float))
        gammas = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        if betas.size != gammas.size or betas.size < 1:
            raise ValidationError("betas and gammas must have equal length p >= 1")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gammas", gammas)


@dataclass(frozen=True)
class WarmStart:
    """Relaxed solution c in [0,1]^n and the rotation angles it sets,
    theta_i = 2 arcsin(sqrt(c_i)), monotone on [0, pi]."""

    c_star: np.ndarray
    thetas: np.ndarray = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.c_star, dtype=float)
        # NaN fails both comparisons, so it is out of range too
        if not np.all((c >= 0.0) & (c <= 1.0)):
            raise ValidationError("c_star entries must lie in [0, 1]")
        object.__setattr__(self, "c_star", c)
        object.__setattr__(self, "thetas", 2.0 * np.arcsin(np.sqrt(c)))

    @property
    def n(self) -> int:
        return self.c_star.size


@dataclass(frozen=True)
class VqeParams:
    """Flat rotation angles for the R_y/CNOT circuit: n * (reps + 1) of them."""

    angles: np.ndarray
    reps: int = 5

    def __post_init__(self):
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=float))
        if self.reps < 0:
            raise ValidationError("reps must be >= 0")


# row builders ----------------------------------------------------------------
#
# Each builder prepares one state per row of its parameter arrays, through
# the row kernels of the simulator; the build_*_state functions are one-row
# calls into them.

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


def transverse_field(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard QAOA's per-qubit mixer Hamiltonian X and start |+...+>, as
    one row each for :func:`qaoa_rows`; exp(-i beta X) = R_x(2 beta)."""
    uniform = np.full((1, 2**n), 2.0 ** (-n / 2.0))
    return np.broadcast_to(PAULI_X, (1, n, 2, 2)), uniform


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
        psi = apply_diagonal_phase_rows(psi, gammas[:, layer], ising)
        psi = apply_layer_rows(psi, _mixer_unitaries(hams, betas[:, layer, None]))
    return psi


def vqe_param_count(n: int, reps: int) -> int:
    return n * (reps + 1)


def vqe_rows(angles: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """R_y layer, then blocks of [CNOT chain, R_y layer], from |0...0>; one
    real state per row of the (rows, reps + 1, n) angle array.  ``chain``
    is ``cnot_chain_perm(n)``, built once by the caller.  The first layer
    acts on |0...0> and is built from the first column of each gate."""
    gates = ry(angles)
    psi = product_rows(gates[:, 0, :, :, 0])
    for layer in range(1, angles.shape[1]):
        psi = apply_layer_rows(gather_rows(psi, chain), gates[:, layer])
    return psi


# single-state builders --------------------------------------------------------

def build_qaoa_state(ising: IsingDiagonal, params: QaoaParams) -> Statevector:
    """Alternate exp(-i gamma H_C) and R_x(2 beta) layers on |+...+>."""
    psi = qaoa_rows(ising, *transverse_field(ising.n), params.betas[None], params.gammas[None])
    return Statevector(n=ising.n, amps=psi[0])


def build_ws_qaoa_state(
    ising: IsingDiagonal, ws: WarmStart, params: QaoaParams
) -> Statevector:
    """Warm-start circuit: R_y(theta_i) product state, then phased mixer layers."""
    hams, initial = warm_start_rows([ws], ising.n)
    psi = qaoa_rows(ising, hams, initial, params.betas[None], params.gammas[None])
    return Statevector(n=ising.n, amps=psi[0])


def build_vqe_state(n: int, params: VqeParams) -> Statevector:
    """R_y layer, then `reps` blocks of [CNOT chain, R_y layer], from |0...0>."""
    expected = vqe_param_count(n, params.reps)
    if params.angles.size != expected:
        raise ValidationError(
            f"expected {expected} angles for n={n}, reps={params.reps}; "
            f"got {params.angles.size}"
        )
    psi = vqe_rows(params.angles.reshape(1, params.reps + 1, n), cnot_chain_perm(n))
    return Statevector(n=n, amps=psi[0])
