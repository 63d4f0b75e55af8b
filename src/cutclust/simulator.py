"""Dense statevector simulation for few-qubit circuits.

Conventions, fixed once and used everywhere:
  - bit i of a basis index is the value of qubit i (qubit 0 = LSB);
  - rotations use the half-angle form R_p(theta) = exp(-i theta P / 2)
    for P in {X, Y, Z};
  - sampling runs on numpy's PCG64 generator (RNG_ID below), so counts
    are reproducible from the seed alone.

All operations are pure: they return a new Statevector or array and never
mutate their input.  The work is done by row kernels over (rows, 2^n)
arrays, one state per row; the Statevector functions are one-row calls
into them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph_model import QUBIT_CAP, IsingDiagonal

RNG_ID = "numpy-pcg64"


@dataclass(frozen=True)
class Statevector:
    """2^n complex amplitudes of an n-qubit pure state."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if self.n < 1:
            raise ValidationError("need at least 1 qubit")
        if amps.shape != (2**self.n,):
            raise ValidationError(f"amplitudes must have length 2^{self.n}")
        object.__setattr__(self, "amps", amps)

    def norm_error(self) -> float:
        return abs(float(np.abs(self.amps).dot(np.abs(self.amps))) - 1.0)


def new_state(n: int, init: str = "zeros") -> Statevector:
    """Fresh register: 'zeros' -> |0...0>, 'plus' -> uniform superposition."""
    if n < 1:
        raise ValidationError("need at least 1 qubit")
    if n > QUBIT_CAP:
        raise ValidationError(f"{n} qubits exceeds the cap of {QUBIT_CAP}")
    amps = np.zeros(2**n, dtype=complex)
    if init == "zeros":
        amps[0] = 1.0
    elif init == "plus":
        amps[:] = 2.0 ** (-n / 2.0)
    else:
        raise ValidationError(f"unknown init {init!r}; use 'zeros' or 'plus'")
    return Statevector(n=n, amps=amps)


# 2x2 gate constructors -----------------------------------------------------
#
# ry takes a scalar angle or an array of angles; an array gives a stack of
# gates of shape (..., 2, 2), one per angle.

def _gate(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] stacked over the broadcast shape of the entries."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c), np.shape(d))
    out = np.empty(shape + (2, 2), np.result_type(a, b, c, d))
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(theta) -> np.ndarray:
    """Real-valued: R_y keeps real amplitudes real."""
    half = theta / 2.0
    c, s = np.cos(half), np.sin(half)
    return _gate(c, -s, s, c)


# row kernels ----------------------------------------------------------------
#
# A kernel acts on a C-contiguous (rows, 2^n) array: one state per row, real
# or complex.  Row r of a batch rounds exactly like the same state run alone,
# so batching is invisible in the results.  The single-state functions below
# are one-row calls into these kernels.

def row_cap(n: int) -> int:
    """Most rows one kernel call takes: a batch holds no more amplitudes
    than half a state at the qubit cap (128 KiB complex).  A state at or
    near the cap runs one row at a time.

    The cap keeps batches bit-identical to one-row calls, not only in
    cache: from 256 KiB on (2 complex rows at 13 qubits), numpy computes
    ``psi * phase`` in place in the phase temporary with the operands
    swapped, and its complex multiply rounds a*b and b*a differently.
    Past the cap a gate's buffers also fall out of cache and a row costs
    more batched than alone."""
    return 2 ** max(QUBIT_CAP - 1 - n, 0)


def apply_1q_rows(psi: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """Apply gate u[r] (shape (rows, 2, 2)) to the indexed qubit of row r."""
    rows = psi.shape[0]
    # view amplitudes as (row, high bits, target bit, low bits)
    v = psi.reshape(rows, -1, 2, 1 << qubit)
    a0, a1 = v[:, :, 0], v[:, :, 1]
    u = u[..., None, None]
    # allocate the output before the temporaries: the other order costs
    # 10-15% per gate at 14 qubits
    out = np.empty(v.shape, np.result_type(psi, u))
    out[:, :, 0] = u[:, 0, 0] * a0 + u[:, 0, 1] * a1
    out[:, :, 1] = u[:, 1, 0] * a0 + u[:, 1, 1] * a1
    return out.reshape(rows, -1)


def apply_layer_rows(psi: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """Apply gates[r, q] (shape (rows, n, 2, 2)) to qubit q of row r, for
    q = 0..n-1 in order.

    Each gate reads its amplitude pair as the lowest bit of the index and
    writes its output bit as the highest, so it rotates the index right by
    one bit (the perfect shuffle): the next qubit is then the lowest bit,
    every gate is two products and a sum over the whole state, and after
    the n gates the order is standard again.  Every amplitude gets
    u_b0·a0 + u_b1·a1 as in the loop of :func:`apply_1q_rows` calls, so
    the result is bit-identical to it."""
    rows, size = psi.shape
    for q in range(gates.shape[1]):
        # (row, 1, other bits, lowest bit) against (row, output bit, 1)
        pairs = psi.reshape(rows, 1, size >> 1, 2)
        u = gates[:, q, :, :, None]
        psi = (u[:, :, 0] * pairs[..., 0] + u[:, :, 1] * pairs[..., 1]).reshape(rows, size)
    return psi


def product_rows(columns: np.ndarray) -> np.ndarray:
    """The product states whose qubit q is in state columns[r, q] (shape
    (rows, n, 2)), built as a running outer product.

    With columns[r, q] the first column of gate q, this is the gate layer
    applied to |0...0>: it forms the same products u00·a0 and u10·a0 and
    skips only the products with the amplitudes that are still exactly
    zero, so probabilities are bit-identical to the gate loop's (only the
    sign of a zero amplitude may differ)."""
    rows, n, _ = columns.shape
    psi = np.ones((rows, 1), columns.dtype)
    for q in range(n):
        # new index b·2^q + k holds columns[r, q, b] · psi[r, k]
        psi = (columns[:, q, :, None] * psi[:, None, :]).reshape(rows, -1)
    return psi


def cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """Gather index of a CNOT: new[i] = old[perm[i]]."""
    idx = np.arange(2**n)
    return idx ^ (((idx >> control) & 1) << target)


def cnot_chain_perm(n: int) -> np.ndarray:
    """Gather index of the linear chain CNOT(0,1), CNOT(1,2), ..., CNOT(n-2,n-1)."""
    perm = np.arange(2**n)
    for q in range(n - 1):
        perm = perm[cnot_perm(n, q, q + 1)]
    return perm


def gather_rows(psi: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Permute the amplitudes of every row.  ``np.take`` keeps the result
    C-ordered; ``psi[:, perm]`` would not, and a strided row rounds its
    expectation differently."""
    return np.take(psi, perm, axis=1)


def _phases(gammas: np.ndarray, ising: IsingDiagonal) -> np.ndarray:
    energies = ising.energies
    if not ising.mirrored:
        return np.exp(-1j * gammas[:, None] * energies)
    half = energies.size // 2
    phase = np.empty((gammas.size, energies.size), complex)
    phase[:, :half] = np.exp(-1j * gammas[:, None] * energies[:half])
    phase[:, half:] = phase[:, half - 1 :: -1]
    return phase


def apply_diagonal_phase_rows(
    psi: np.ndarray, gammas: np.ndarray, ising: IsingDiagonal
) -> np.ndarray:
    """Multiply amplitude[r, x] by exp(-i gammas[r] E(x)).

    For a mirrored diagonal (``ising.mirrored``) the phases of the first
    half are computed and copied in reverse to the second, which holds
    the same values."""
    # the phases enter the product as a temporary either way: numpy may
    # then multiply into it in place with the operands swapped (for arrays
    # of 256 KiB and more), and its complex multiply rounds a*b and b*a
    # differently, so both ways must give numpy the same expression
    return psi * _phases(gammas, ising)


def probability_rows(psi: np.ndarray) -> np.ndarray:
    return np.abs(psi) ** 2


# longest vector summed as one dot product: OpenBLAS splits a longer ddot
# between its threads, so its rounding would depend on the thread count
DOT_PIECE = 2**13


def expectation_rows(probs: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """<H> per row of probabilities.

    One stacked (1, N) @ (N, 1) product, which numpy computes as one 1-D
    dot per row, as ``row @ energies`` does; a matrix-vector product sums
    in a different order and rounds differently.  A state longer than
    DOT_PIECE is summed as its DOT_PIECE-long pieces, added in order."""
    rows, size = probs.shape
    pieces = max(size // DOT_PIECE, 1)
    part = size // pieces
    dots = np.matmul(probs.reshape(rows, pieces, 1, part), energies.reshape(pieces, part, 1))
    total = dots[:, 0, 0, 0]
    for i in range(1, pieces):
        total = total + dots[:, i, 0, 0]
    return total


# single-state operations ----------------------------------------------------

def _check_qubit(state: Statevector, qubit: int) -> None:
    if not 0 <= qubit < state.n:
        raise ValidationError(f"qubit {qubit} out of range for n={state.n}")


def _check_diagonal(state: Statevector, ising: IsingDiagonal) -> None:
    if state.n != ising.n:
        raise ValidationError(f"state has {state.n} qubits, diagonal has {ising.n}")


def apply_1q(state: Statevector, qubit: int, u: np.ndarray) -> Statevector:
    """Apply a single-qubit unitary to the indexed qubit."""
    _check_qubit(state, qubit)
    u = np.asarray(u, dtype=complex)
    return Statevector(n=state.n, amps=apply_1q_rows(state.amps[None], qubit, u[None])[0])


def apply_cnot(state: Statevector, control: int, target: int) -> Statevector:
    """Flip the target bit on basis states whose control bit is 1."""
    if control == target:
        raise ValidationError("control and target must differ")
    for q in (control, target):
        _check_qubit(state, q)
    perm = cnot_perm(state.n, control, target)
    return Statevector(n=state.n, amps=gather_rows(state.amps[None], perm)[0])


def apply_diagonal_phase(state: Statevector, gamma: float, ising: IsingDiagonal) -> Statevector:
    """Multiply amplitude[x] by exp(-i gamma E(x))."""
    _check_diagonal(state, ising)
    amps = apply_diagonal_phase_rows(state.amps[None], np.array([gamma], dtype=float), ising)
    return Statevector(n=state.n, amps=amps[0])


# measurement-side operations ------------------------------------------------

def expectation_diagonal(state: Statevector, ising: IsingDiagonal) -> float:
    """<state| H |state> for a diagonal H."""
    _check_diagonal(state, ising)
    return float(expectation_rows(probability_rows(state.amps[None]), ising.energies)[0])


def probabilities(state: Statevector) -> np.ndarray:
    """|amplitude|^2 per basis index."""
    return probability_rows(state.amps[None])[0]


def draw_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Counts per basis index of ``shots`` i.i.d. samples from ``probs``,
    drawn from the PCG64 generator seeded with ``seed`` (an int or a
    sequence of ints)."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    return np.random.default_rng(seed).multinomial(shots, probs)
