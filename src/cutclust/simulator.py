"""Dense statevector simulation for few-qubit circuits.

Conventions, fixed once and used everywhere:
  - bit i of a basis index is the value of qubit i (qubit 0 = LSB);
  - rotations use the half-angle form R_p(theta) = exp(-i theta P / 2)
    for P in {X, Y, Z};
  - sampling runs on numpy's PCG64 generator (RNG_ID below), so counts
    are reproducible from the seed alone.

All operations are pure: they return a new array and never mutate their
input.  Every kernel acts on a (rows, 2^n) array, one state per row.
"""
from __future__ import annotations

import numpy as np

from .graph_model import QUBIT_CAP, IsingDiagonal

RNG_ID = "numpy-pcg64"


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


def ry(theta) -> np.ndarray:
    """Real-valued: R_y keeps real amplitudes real."""
    half = theta / 2.0
    c, s = np.cos(half), np.sin(half)
    return _gate(c, -s, s, c)


# row kernels ----------------------------------------------------------------
#
# A kernel acts on a C-contiguous (rows, 2^n) array: one state per row, real
# or complex.  Row r of a batch rounds exactly like the same state run alone,
# so batching is invisible in the results.

def row_cap(n: int) -> int:
    """Most rows one kernel call takes: a batch holds no more amplitudes
    than half a state at the qubit cap (128 KiB complex).  A state at or
    near the cap runs one row at a time.

    The cap serves cache and memory only: a batch of any size rounds as
    its rows alone (the cost phase's operand order is set by the state
    size, see :func:`apply_phase_rows`), but past the cap a gate's
    buffers fall out of cache and a row costs more batched than alone."""
    return 2 ** max(QUBIT_CAP - 1 - n, 0)


def apply_layer_rows(psi: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """Apply gates[r, q] (shape (rows, n, 2, 2)) to qubit q of row r, for
    q = 0..n-1 in order.

    Each gate reads its amplitude pair as the lowest bit of the index and
    writes its output bit as the highest, so it rotates the index right by
    one bit (the perfect shuffle): the next qubit is then the lowest bit,
    every gate is two products and a sum over the whole state, and after
    the n gates the order is standard again.  Every amplitude gets
    u_b0·a0 + u_b1·a1 as in a loop of one-gate kernels, one per qubit
    (the tests keep that loop as the reference), so the result is
    bit-identical to it."""
    rows, size = psi.shape
    for q in range(gates.shape[1]):
        # (row, 1, other bits, lowest bit) against (row, output bit, 1)
        pairs = psi.reshape(rows, 1, size >> 1, 2)
        u = gates[:, q, :, :, None]
        psi = (u[:, :, 0] * pairs[..., 0] + u[:, :, 1] * pairs[..., 1]).reshape(rows, size)
    return psi


# the fewest qubits on which vqe_rows applies its R_y layers as matrix
# products, which round differently from apply_layer_rows: smaller states,
# on which SPSA can turn a last-bit change into another result, keep its bytes
KRON_MIN_QUBITS = 10


def kron_rows(gates: np.ndarray) -> np.ndarray:
    """gates[r, k-1] ⊗ ... ⊗ gates[r, 0] for the (rows, k, 2, m) factors:
    the (rows, 2^k, m^k) matrices of the gates on qubits 0..k-1 (m = 2),
    or the 2^k-long columns of a product state (m = 1).

    Built as a running outer product with the new gate as the outer
    factor, so that numpy's inner loop runs over a row of the product so
    far, not over a gate's two entries."""
    rows, _, _, m = gates.shape
    out = gates[:, 0]
    for q in range(1, gates.shape[1]):
        # entry (b·a + i, c·a + j) holds gates[r, q, b, c] · out[r, i, j]
        out = gates[:, q, :, None, :, None] * out[:, None, :, None, :]
        out = out.reshape(rows, 2 * out.shape[2], m * out.shape[4])
    return out


def kron_factors(gates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (..., 2^k, 2^k) Kronecker products of the (..., n, 2, 2) gates on
    the high a, middle b and low c = n // 3 qubits, b = (n - c) // 2."""
    c = gates.shape[-3] // 3
    b = (gates.shape[-3] - c) // 2
    flat = gates.reshape(-1, *gates.shape[-3:])
    factors = kron_rows(flat[:, b + c :]), kron_rows(flat[:, c : b + c]), kron_rows(flat[:, :c])
    return tuple(f.reshape(gates.shape[:-3] + f.shape[1:]) for f in factors)


def apply_kron_layer_rows(psi: np.ndarray, factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """The layer of :func:`apply_layer_rows` as three matrix products.

    Read as the C-ordered (2^a, 2^b, 2^c) tensor X of its high, middle
    and low bits, a row meets the layer A ⊗ B ⊗ C, its ``factors`` from
    :func:`kron_factors`, as one product per axis: A·X over the high
    bits, X·Cᵀ over the low ones and B·X[i] for each high index i.  This
    is the identity (A ⊗ B) vec(Y) = vec(B Y Aᵀ) (Van Loan, J. Comput.
    Appl. Math. 123, 85, 2000) taken one axis at a time.  Three factors
    take 2^a + 2^b + 2^c multiply-adds per amplitude, 80 at 14 qubits,
    where two would take 256.  BLAS sums in another order than the gate
    loop, so the result matches it within rounding, not bit for bit; each
    row is its own product, so row r of a batch rounds as the row alone."""
    high, middle, low = factors
    rows, size = psi.shape
    x = np.matmul(high, psi.reshape(rows, high.shape[-1], -1))
    x = np.matmul(x.reshape(rows, -1, low.shape[-1]), low.transpose(0, 2, 1))
    x = np.matmul(middle[:, None], x.reshape(rows, -1, middle.shape[-1], low.shape[-1]))
    return x.reshape(rows, size)


def product_rows(columns: np.ndarray) -> np.ndarray:
    """The product states whose qubit q is in state columns[r, q] (shape
    (rows, n, 2)): the Kronecker product of the one-column factors.

    With columns[r, q] the first column of gate q, this is the gate layer
    applied to |0...0>: it forms the same products u00·a0 and u10·a0 and
    skips only the products with the amplitudes that are still exactly
    zero, so probabilities are bit-identical to the gate loop's (only the
    sign of a zero amplitude may differ)."""
    return kron_rows(columns[..., None])[..., 0]


def cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """Gather index of a CNOT: new[i] = old[perm[i]]."""
    idx = np.arange(2**n)
    return idx ^ (((idx >> control) & 1) << target)


def cnot_chain_perm(n: int) -> np.ndarray:
    """Gather index of the linear chain CNOT(0,1), CNOT(1,2), ..., CNOT(n-2,n-1),
    which sets bit k to the XOR of bits 0..k.  So bit k of the source of y
    is bit k of y XOR bit k-1 of y: the index is y ^ (y << 1), cut to n bits."""
    perm = np.arange(2**n)
    perm ^= perm << 1
    perm &= 2**n - 1
    return perm


def gather_rows(psi: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Permute the amplitudes of every row.  ``np.take`` keeps the result
    C-ordered; ``psi[:, perm]`` would not, and a strided row rounds its
    expectation differently."""
    return np.take(psi, perm, axis=1)


# numpy computes a product of this many bytes or more in place in an
# operand that is a temporary, swapping the operands to do so, and its
# complex multiply rounds a*b and b*a differently; apply_phase_rows fixes,
# for every batch, the order that this gives a single whole state
ELIDE_BYTES = 256 * 1024


def _half_phases(gammas: np.ndarray, ising: IsingDiagonal) -> np.ndarray:
    """exp(-i gammas[r] E(x)) for the first half of the basis, the
    indices with qubit n-1 at 0; ``mirror`` gives the whole basis."""
    return np.exp(-1j * gammas[:, None] * ising.energies[: ising.energies.size // 2])


def apply_phase_rows(psi: np.ndarray, phase: np.ndarray, n: int) -> np.ndarray:
    """The cost phase: psi times phase, amplitude by amplitude, on states
    of n qubits or on their first halves.

    The operand order depends on n alone, so a row rounds alike in every
    batch and in half and whole states: ``phase`` first when one row of a
    whole state holds ELIDE_BYTES or more (14 qubits), ``psi`` first
    below.  ``np.multiply`` never computes in place in a temporary, so
    numpy keeps that order."""
    if phase.itemsize * 2**n >= ELIDE_BYTES:
        return np.multiply(phase, psi)
    return np.multiply(psi, phase)


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


def draw_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Counts per basis index of ``shots`` i.i.d. samples from ``probs``,
    drawn from the PCG64 generator seeded with ``seed`` (an int or a
    sequence of ints).  ``RunConfig`` validates ``shots`` (at least 1)."""
    return np.random.default_rng(seed).multinomial(shots, probs)
