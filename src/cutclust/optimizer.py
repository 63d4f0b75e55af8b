"""Gradient-free optimization (SPSA) and the exhaustive reference solver.

SPSA minimizes a noisy scalar objective with two evaluations per
iteration regardless of dimension, which keeps shot-based energy
estimation affordable.  The exhaustive solver scans all 2**n diagonal
energies and is the ground truth every variational result is judged
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .ansatz import (
    WarmStart,
    qaoa_rows,
    transverse_field,
    vqe_param_count,
    vqe_rows,
    warm_start_rows,
)
from .errors import EvaluationError, ValidationError
from .graph_model import IsingDiagonal
from .simulator import (
    cnot_chain_perm,
    expectation_rows,
    probability_rows,
    row_cap,
)

Objective = Callable[[np.ndarray], float]
# (rows, dim) points and the seed slot of each row -> one value per row
BatchObjective = Callable[[np.ndarray, np.ndarray], np.ndarray]


# Spall's standard gain schedule (IEEE TAES 34(3), 1998): iteration k of a
# run of max_iters iterations with gain a perturbs by C / (k + 1)**GAMMA and
# steps by a / (stability(max_iters) + k + 1)**ALPHA
C = 0.1
ALPHA = 0.602
GAMMA = 0.101


def stability(max_iters: int) -> float:
    return 0.1 * max_iters


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of an SPSA run.

    ``best_value`` is the minimum over every point the optimizer
    evaluated, not the value at the final iterate; SPSA iterates are
    noisy and the best-seen point is the useful answer.  ``trace`` has
    one entry per iteration (the smaller of the two perturbed values)
    plus a final entry for the end-point evaluation, and ``evaluations``
    counts SPSA's objective calls, always ``2 * max_iters + 1``: SPSA has
    no convergence test and always spends its whole budget.  The
    ``2 * PROBES`` calibration calls made before them are not counted.
    ``gain`` is the step gain ``a`` that calibration chose for the run.
    """

    best_params: np.ndarray
    best_value: float
    evaluations: int
    trace: np.ndarray
    gain: float


def _check_finite(value: float, params: np.ndarray) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(
            f"objective returned non-finite value {value!r} at params {params.tolist()}"
        )
    return value


# iterations whose perturbations a seed draws in one call: one draw per
# iteration cost about 13 us per seed, and a bounded block keeps a long run
# from holding all of its draws at once (timings in BENCH_layers.json)
DRAW_BLOCK = 64

# calibration picks the gain whose first update moves each coordinate by
# about TARGET_STEP, from the mean gradient magnitude over PROBES probes
TARGET_STEP = 0.1
PROBES = 10


def _signs(rngs: Sequence[np.random.Generator], active: np.ndarray, count: int, dim: int):
    """The next ``count`` Rademacher vectors of each active seed s, drawn
    from ``rngs[s]`` in one call, as ±1.0 in a (active, count, dim) array.
    PCG64 keeps the spare half of a 64-bit draw in the generator, so one
    call of size (count, dim) returns the values of ``count`` calls of
    size ``dim``."""
    out = np.empty((len(active), count, dim))
    for i, s in enumerate(active):
        out[i] = rngs[s].integers(0, 2, size=(count, dim)) * 2.0 - 1.0
    return out


def _one_seed(objective: Objective) -> BatchObjective:
    """A scalar objective as a batch objective over its rows."""
    return lambda points, owners: np.array([objective(x) for x in points])


class _Lockstep:
    """``seeds`` seed slots that advance together; a seed whose evaluation
    is non-finite leaves the batch with its error and the others continue."""

    def __init__(self, objective: BatchObjective, seeds: int):
        self.objective = objective
        self.errors: dict[int, EvaluationError] = {}
        self.active = np.arange(seeds)
        # the seed slot of every row of a batch of that many point sets
        self._owners: dict[int, np.ndarray] = {}

    def evaluate(self, points: np.ndarray, at: np.ndarray | None = None):
        """Values of every active seed at each of the (active, dim) point
        sets of the (sets, active, dim) ``points``, all in one batch.  A
        non-finite value is reported at the matching point of ``at``
        (default: the points), checking the sets in order; the failed
        seeds are dropped.  Returns the (sets, survivors) values and the
        mask of survivors, or None when every seed survives."""
        sets, _, dim = points.shape
        owners = self._owners.get(sets)
        if owners is None:
            owners = self._owners[sets] = np.tile(self.active, sets)
        values = np.asarray(self.objective(points.reshape(-1, dim), owners), dtype=float)
        values = values.reshape(sets, -1)
        if np.isfinite(values).all():
            return values, None
        keep = np.isfinite(values).all(axis=0)
        for slot in np.flatnonzero(~keep):
            for i, vals in enumerate(values):
                try:
                    _check_finite(vals[slot], points[i, slot] if at is None else at[slot])
                except EvaluationError as exc:
                    self.errors[int(self.active[slot])] = exc
                    break
        self.active = self.active[keep]
        self._owners = {}
        return values[:, keep], keep


def spsa_lockstep(
    objective: BatchObjective,
    initial: np.ndarray,
    max_iters: int,
    seeds: Sequence[int],
) -> list[OptimizerResult | EvaluationError]:
    """SPSA for every seed at once, each at its own calibrated step gain.

    Row s of ``initial`` is seed ``seeds[s]``'s start point.  Each seed's
    gain ``a`` is calibrated first, from the mean of
    ``|f(x + C*delta) - f(x - C*delta)| / (2C)`` over ``PROBES`` Rademacher
    probes at its start point (a flat objective gets a neutral gain); the
    probes of all seeds are evaluated in one batch, and a seed whose probe
    value is non-finite fails at its start point.  Each SPSA iteration then
    evaluates the ± points of every seed in one batch.  Each seed draws its
    probes and perturbations from its own streams and keeps its own best
    point, so its result equals that of a run on its own.  Returns one
    result, or the error that ended the seed's run, per seed.
    """
    # the state of the active seeds, row i for seed slot batch.active[i];
    # a seed that fails is dropped from every array
    x = np.array(initial, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValidationError(f"initial params must be a non-empty vector, got shape {x.shape[1:]}")
    batch = _Lockstep(objective, len(seeds))
    # every probe starts from the seed's start point, so all probes of all
    # seeds run in one batch: the ± sets of probe 0, then probe 1, ...
    probe_rngs = [np.random.default_rng([seed, 0x5CA1]) for seed in seeds]
    deltas = (C * _signs(probe_rngs, batch.active, PROBES, x.shape[1])).transpose(1, 0, 2)
    points = np.stack([x + deltas, x - deltas], axis=1)
    values, keep = batch.evaluate(points.reshape(2 * PROBES, *x.shape), at=x)
    if keep is not None:
        x = x[keep]
    # one row per seed, each averaged on its own as a lone run does
    magnitudes = (np.abs(values[0::2] - values[1::2]) / (2.0 * C)).T.copy()
    scale = (stability(max_iters) + 1.0) ** ALPHA
    means = [float(mags.mean()) for mags in magnitudes]
    gain = np.array([TARGET_STEP * scale if m < 1e-12 else TARGET_STEP * scale / m for m in means])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    offset = stability(max_iters)
    best_x = x.copy()
    best_v = np.full(len(x), np.inf)
    trace = np.empty((len(x), max_iters + 1))

    for k in range(max_iters):
        if not batch.active.size:
            break
        c_k = C / (k + 1.0) ** GAMMA
        if k % DRAW_BLOCK == 0:
            signs = _signs(rngs, batch.active, min(DRAW_BLOCK, max_iters - k), x.shape[1])
        step = c_k * signs[:, k % DRAW_BLOCK]
        points = np.empty((2, *x.shape))
        np.add(x, step, out=points[0])
        np.subtract(x, step, out=points[1])
        values, keep = batch.evaluate(points)
        if keep is not None:
            x, gain, best_x, best_v, trace = x[keep], gain[keep], best_x[keep], best_v[keep], trace[keep]
            signs, points = signs[keep], points[:, keep]
        for v, pts in zip(values, points):
            better = v < best_v
            np.copyto(best_v, v, where=better)
            np.copyto(best_x, pts, where=better[:, None])
        f_plus, f_minus = values
        trace[:, k] = np.minimum(f_plus, f_minus)
        grad = ((f_plus - f_minus) / (2.0 * c_k))[:, None] * signs[:, k % DRAW_BLOCK]
        # a Python float power: a numpy power of the same numbers may
        # round the last bit differently
        a_k = gain / (offset + k + 1.0) ** ALPHA
        x = x - a_k[:, None] * grad

    if batch.active.size:
        (f_final,), keep = batch.evaluate(x[None])
        if keep is not None:
            x, gain, best_x, best_v, trace = x[keep], gain[keep], best_x[keep], best_v[keep], trace[keep]
        trace[:, -1] = f_final
        # ties go to the final iterate so an unmoved run reports its start
        final = f_final <= best_v
        np.copyto(best_v, f_final, where=final)
        np.copyto(best_x, x, where=final[:, None])

    outcomes: dict[int, Any] = dict(batch.errors)
    for i, s in enumerate(batch.active.tolist()):
        outcomes[s] = OptimizerResult(
            best_params=best_x[i].copy(),
            best_value=float(best_v[i]),
            evaluations=2 * max_iters + 1,
            trace=trace[i].copy(),
            gain=float(gain[i]),
        )
    return [outcomes[s] for s in range(len(seeds))]


def spsa_minimize(
    objective: Objective,
    initial: np.ndarray,
    max_iters: int = 250,
    seed: int = 0,
) -> OptimizerResult:
    """Minimize ``objective`` with simultaneous-perturbation gradient
    estimates: one :func:`spsa_lockstep` call for ``seed`` alone, which
    calibrates its gain as the benchmark calibrates each seed's.

    Iteration k perturbs the current point along a random sign vector,
    estimates the gradient from the two evaluations, and steps downhill
    with gains ``a / (stability(max_iters) + k + 1)**ALPHA`` and
    ``C / (k + 1)**GAMMA``.  The best evaluated point wins; a closing
    evaluation of the final iterate lets it compete.
    """
    # the rule RunConfig applies to its counts and seeds
    for name, value in {"max_iters": max_iters, "seed": seed}.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    initial = np.asarray(initial, dtype=float)
    if initial.ndim != 1 or initial.size == 0:
        raise ValidationError(f"initial params must be a non-empty vector, got shape {initial.shape}")
    (outcome,) = spsa_lockstep(_one_seed(objective), initial[None], max_iters, [seed])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(frozen=True)
class ExactSolution:
    """Full-scan ground truth for a diagonal Hamiltonian.

    ``ground_states`` holds every minimizing basis index in increasing
    order; cut problems make this set closed under bit complement.
    ``max_cut`` is the negated ground energy, i.e. the optimal cut
    weight.
    """

    ground_energy: float
    ground_states: tuple[int, ...]
    max_cut: float


def exact_solve(ising: IsingDiagonal) -> ExactSolution:
    """Scan all 2**n energies and return the exact minimum and its
    attaining bitstrings."""
    energies = ising.energies
    ground = float(energies.min())
    states = np.flatnonzero(energies == ground)
    return ExactSolution(
        ground_energy=ground,
        ground_states=tuple(int(s) for s in states),
        max_cut=-ground,
    )


def make_ansatz(
    kind: str,
    ising: IsingDiagonal,
    *,
    p: int = 1,
    warm: Sequence[WarmStart] | None = None,
    vqe_reps: int = 5,
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], int]:
    """Map an algorithm name to its row builder.

    Returns ``(prepare, dimension)``.  ``prepare(params, owners)`` turns a
    (rows, dimension) parameter array into (rows, 2^n) amplitudes; row r
    belongs to seed slot ``owners[r]``, which picks its warm start from
    ``warm``, one per slot.  QAOA and ws-QAOA take
    ``[beta_1..beta_p, gamma_1..gamma_p]``; VQE takes the stacked rotation
    angles.  This is the only place that knows which builder belongs to
    which algorithm.
    """
    if kind == "qaoa":
        dim = 2 * p
        hams, initial = transverse_field(ising.n)

        def prepare(params: np.ndarray, owners: np.ndarray) -> np.ndarray:
            return qaoa_rows(ising, hams, initial, params[:, :p], params[:, p:])

    elif kind == "ws-qaoa":
        if warm is None:
            raise ValidationError("ws-qaoa objective requires a warm start")
        # per-seed mixer Hamiltonians and start states, built once
        hams, initial = warm_start_rows(warm, ising.n)
        dim = 2 * p

        def prepare(params: np.ndarray, owners: np.ndarray) -> np.ndarray:
            return qaoa_rows(ising, hams[owners], initial[owners], params[:, :p], params[:, p:])

    elif kind == "vqe":
        dim = vqe_param_count(ising.n, vqe_reps)
        chain = cnot_chain_perm(ising.n)

        def prepare(params: np.ndarray, owners: np.ndarray) -> np.ndarray:
            return vqe_rows(params.reshape(len(params), vqe_reps + 1, ising.n), chain)

    else:
        raise ValidationError(f"unknown ansatz kind {kind!r}")

    return prepare, dim


def row_probabilities(prepare, params: np.ndarray, owners: np.ndarray, n: int):
    """Probabilities of the prepared rows, yielded in chunks of at most
    ``row_cap(n)`` rows so that no kernel buffer outgrows half a state at
    the qubit cap."""
    step = row_cap(n)
    for lo in range(0, len(params), step):
        yield probability_rows(prepare(params[lo : lo + step], owners[lo : lo + step]))


def row_energies(
    prepare, ising: IsingDiagonal, params: np.ndarray, owners: np.ndarray
) -> np.ndarray:
    """Exact energy of every prepared row: a batch objective once
    ``prepare`` and ``ising`` are bound."""
    return np.concatenate(
        [
            expectation_rows(probs, ising.energies)
            for probs in row_probabilities(prepare, params, owners, ising.n)
        ]
    )


def make_objective(
    kind: str,
    ising: IsingDiagonal,
    *,
    p: int = 1,
    warm: WarmStart | None = None,
    vqe_reps: int = 5,
) -> tuple[Objective, int]:
    """Build the exact energy objective over a flat parameter vector.

    Returns ``(objective, dimension)``; the parameter layout is that of
    :func:`make_ansatz`.  Each call is a one-row batch.
    """
    warms = None if warm is None else [warm]
    prepare, dim = make_ansatz(kind, ising, p=p, warm=warms, vqe_reps=vqe_reps)
    owner = np.zeros(1, dtype=int)

    def objective(params: np.ndarray) -> float:
        params = np.asarray(params, dtype=float)
        if params.shape != (dim,):
            raise ValidationError(
                f"{kind} objective expects {dim} parameters, got shape {params.shape}"
            )
        return float(row_energies(prepare, ising, params[None], owner)[0])

    return objective, dim
