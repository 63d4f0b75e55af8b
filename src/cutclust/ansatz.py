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

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph_model import IsingDiagonal
from .simulator import (
    Statevector,
    apply_1q,
    apply_cnot,
    apply_diagonal_phase,
    new_state,
    rx,
    ry,
)


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

    @property
    def p(self) -> int:
        return self.betas.size


@dataclass(frozen=True)
class WarmStart:
    """Relaxed solution c in [0,1]^n with its rotation angles."""

    c_star: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c_star, dtype=float)
        if np.any((c < 0.0) | (c > 1.0)):
            raise ValidationError("c_star entries must lie in [0, 1]")
        object.__setattr__(self, "c_star", c)
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))

    @classmethod
    def from_cstar(cls, c_star) -> "WarmStart":
        """Angles theta_i = 2 arcsin(sqrt(c_i)), monotone on [0, pi]."""
        c = np.asarray(c_star, dtype=float)
        if np.any((c < 0.0) | (c > 1.0)):
            raise ValidationError("c_star entries must lie in [0, 1]")
        return cls(c_star=c, thetas=2.0 * np.arcsin(np.sqrt(c)))

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


def build_qaoa_state(ising: IsingDiagonal, params: QaoaParams) -> Statevector:
    """Alternate exp(-i gamma H_C) and R_x(2 beta) layers on |+...+>."""
    state = new_state(ising.n, "plus")
    for beta, gamma in zip(params.betas, params.gammas):
        state = apply_diagonal_phase(state, gamma, ising)
        mixer = rx(2.0 * beta)
        for q in range(ising.n):
            state = apply_1q(state, q, mixer)
    return state


def ws_mixer_hamiltonian(c: float) -> np.ndarray:
    off = -2.0 * np.sqrt(c * (1.0 - c))
    return np.array([[2.0 * c - 1.0, off], [off, 1.0 - 2.0 * c]], dtype=complex)


def ws_mixer_unitary(c: float, beta: float) -> np.ndarray:
    """exp(-i beta H) for the per-qubit warm-start mixer H (H^2 = I)."""
    if not 0.0 < c < 1.0:
        raise ValidationError(f"c={c} must lie strictly inside (0, 1); clip first")
    h = ws_mixer_hamiltonian(c)
    return np.cos(beta) * np.eye(2) - 1j * np.sin(beta) * h


def build_ws_qaoa_state(
    ising: IsingDiagonal, ws: WarmStart, params: QaoaParams
) -> Statevector:
    """Warm-start circuit: R_y(theta_i) product state, then phased mixer layers."""
    if ws.n != ising.n:
        raise ValidationError(f"warm start has {ws.n} entries, diagonal has {ising.n}")
    state = new_state(ising.n, "zeros")
    for q in range(ising.n):
        state = apply_1q(state, q, ry(ws.thetas[q]))
    for beta, gamma in zip(params.betas, params.gammas):
        state = apply_diagonal_phase(state, gamma, ising)
        for q in range(ising.n):
            state = apply_1q(state, q, ws_mixer_unitary(float(ws.c_star[q]), beta))
    return state


def vqe_param_count(n: int, reps: int) -> int:
    return n * (reps + 1)


def build_vqe_state(n: int, params: VqeParams) -> Statevector:
    """R_y layer, then `reps` blocks of [CNOT chain, R_y layer], from |0...0>."""
    expected = vqe_param_count(n, params.reps)
    if params.angles.size != expected:
        raise ValidationError(
            f"expected {expected} angles for n={n}, reps={params.reps}; "
            f"got {params.angles.size}"
        )
    angles = params.angles.reshape(params.reps + 1, n)
    state = new_state(n, "zeros")
    for q in range(n):
        state = apply_1q(state, q, ry(angles[0, q]))
    for layer in range(1, params.reps + 1):
        for q in range(n - 1):
            state = apply_cnot(state, q, q + 1)
        for q in range(n):
            state = apply_1q(state, q, ry(angles[layer, q]))
    return state
