"""Gradient-free optimization (SPSA) and the exhaustive reference solver.

SPSA minimizes a noisy scalar objective with two evaluations per
iteration regardless of dimension, which keeps shot-based energy
estimation affordable.  The exhaustive solver scans all 2**n diagonal
energies and is the ground truth every variational result is judged
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ansatz import (
    QaoaParams,
    VqeParams,
    WarmStart,
    build_qaoa_state,
    build_vqe_state,
    build_ws_qaoa_state,
    vqe_param_count,
)
from .errors import EvaluationError, ValidationError
from .graph_model import IsingDiagonal
from .simulator import Statevector, expectation_diagonal

Objective = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class SpsaConfig:
    """SPSA hyperparameters.

    ``a`` is the step-size gain; leave it ``None`` and use
    :func:`calibrate_step_gain` to pick a value whose first update has a
    target magnitude.  ``stability`` is added to the iteration counter in
    the step-size schedule (``None`` resolves to ``0.1 * max_iters``).
    """

    max_iters: int = 250
    a: float | None = None
    c: float = 0.1
    stability: float | None = None
    alpha: float = 0.602
    gamma: float = 0.101
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.a is not None and self.a <= 0:
            raise ValidationError(f"step gain a must be > 0, got {self.a}")
        if self.c <= 0:
            raise ValidationError(f"perturbation size c must be > 0, got {self.c}")
        if not 0 < self.alpha <= 1:
            raise ValidationError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 < self.gamma <= 1:
            raise ValidationError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.stability is not None and self.stability < 0:
            raise ValidationError(f"stability must be >= 0, got {self.stability}")

    def resolved_stability(self) -> float:
        return 0.1 * self.max_iters if self.stability is None else self.stability


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of an SPSA run.

    ``best_value`` is the minimum over every point the optimizer
    evaluated, not the value at the final iterate; SPSA iterates are
    noisy and the best-seen point is the useful answer.  ``trace`` has
    one entry per iteration (the smaller of the two perturbed values)
    plus a final entry for the end-point evaluation, and ``evaluations``
    counts objective calls, always ``2 * iterations + 1``.  ``capped``
    records that the full iteration budget was consumed; SPSA has no
    convergence test, so this is the normal outcome.
    """

    best_params: np.ndarray
    best_value: float
    evaluations: int
    trace: np.ndarray
    capped: bool


def _check_finite(value: float, params: np.ndarray) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise EvaluationError(
            f"objective returned non-finite value {value!r} at params {params.tolist()}"
        )
    return value


def calibrate_step_gain(
    objective: Objective,
    initial: np.ndarray,
    config: SpsaConfig,
    target_step: float = 0.1,
    probes: int = 10,
) -> float:
    """Pick the gain ``a`` so the first SPSA update moves each coordinate
    by roughly ``target_step``.

    Averages ``|f(x + c*delta) - f(x - c*delta)| / (2c)`` over a few
    Rademacher probes; for unit perturbations this is the per-coordinate
    magnitude of the gradient estimate.  Flat objectives fall back to a
    neutral gain instead of dividing by zero.
    """
    if target_step <= 0:
        raise ValidationError(f"target_step must be > 0, got {target_step}")
    if probes < 1:
        raise ValidationError(f"probes must be >= 1, got {probes}")
    initial = np.asarray(initial, dtype=float)
    rng = np.random.default_rng([config.seed, 0x5CA1])
    magnitudes = np.empty(probes)
    for i in range(probes):
        delta = rng.integers(0, 2, size=initial.size) * 2 - 1
        f_plus = _check_finite(objective(initial + config.c * delta), initial)
        f_minus = _check_finite(objective(initial - config.c * delta), initial)
        magnitudes[i] = abs(f_plus - f_minus) / (2.0 * config.c)
    mean_mag = float(magnitudes.mean())
    scale = (config.resolved_stability() + 1.0) ** config.alpha
    if mean_mag < 1e-12:
        return target_step * scale
    return target_step * scale / mean_mag


def spsa_minimize(
    objective: Objective,
    initial: np.ndarray,
    config: SpsaConfig,
) -> OptimizerResult:
    """Minimize ``objective`` with simultaneous-perturbation gradient
    estimates.

    Iteration k perturbs the current point along a random sign vector,
    estimates the gradient from the two evaluations, and steps downhill
    with gains ``a / (stability + k + 1)**alpha`` and
    ``c / (k + 1)**gamma``.  The best evaluated point wins; a closing
    evaluation of the final iterate lets it compete.
    """
    if config.a is None:
        raise ValidationError(
            "config.a is unset; call calibrate_step_gain first or set it explicitly"
        )
    params = np.asarray(initial, dtype=float).copy()
    if params.ndim != 1 or params.size == 0:
        raise ValidationError(f"initial params must be a non-empty vector, got shape {params.shape}")
    rng = np.random.default_rng(config.seed)
    stability = config.resolved_stability()

    best_params = params.copy()
    best_value = np.inf
    trace = np.empty(config.max_iters + 1)
    evaluations = 0

    for k in range(config.max_iters):
        a_k = config.a / (stability + k + 1.0) ** config.alpha
        c_k = config.c / (k + 1.0) ** config.gamma
        delta = rng.integers(0, 2, size=params.size) * 2 - 1
        f_plus = _check_finite(objective(params + c_k * delta), params + c_k * delta)
        f_minus = _check_finite(objective(params - c_k * delta), params - c_k * delta)
        evaluations += 2
        if f_plus < best_value:
            best_value = f_plus
            best_params = params + c_k * delta
        if f_minus < best_value:
            best_value = f_minus
            best_params = params - c_k * delta
        trace[k] = min(f_plus, f_minus)
        grad = (f_plus - f_minus) / (2.0 * c_k) * delta.astype(float)
        params = params - a_k * grad

    f_final = _check_finite(objective(params), params)
    evaluations += 1
    trace[-1] = f_final
    # ties go to the final iterate so an unmoved run reports its start
    if f_final <= best_value:
        best_value = f_final
        best_params = params.copy()

    return OptimizerResult(
        best_params=best_params,
        best_value=best_value,
        evaluations=evaluations,
        trace=trace,
        capped=True,
    )


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
    warm: WarmStart | None = None,
    vqe_reps: int = 5,
) -> tuple[Callable[[np.ndarray], Statevector], int]:
    """Map an algorithm name to its trial-state builder.

    Returns ``(prepare, dimension)``, where ``prepare`` turns a flat
    parameter vector into the final state.  QAOA and ws-QAOA take
    ``[beta_1..beta_p, gamma_1..gamma_p]``; VQE takes the stacked
    rotation angles.  This is the only place that knows which builder
    belongs to which algorithm.
    """
    if kind == "qaoa":
        dim = 2 * p

        def prepare(params: np.ndarray) -> Statevector:
            return build_qaoa_state(
                ising, QaoaParams(betas=params[:p], gammas=params[p:])
            )

    elif kind == "ws-qaoa":
        if warm is None:
            raise ValidationError("ws-qaoa objective requires a warm start")
        if warm.n != ising.n:
            raise ValidationError(
                f"warm start has {warm.n} qubits but Hamiltonian has {ising.n}"
            )
        dim = 2 * p

        def prepare(params: np.ndarray) -> Statevector:
            return build_ws_qaoa_state(
                ising, warm, QaoaParams(betas=params[:p], gammas=params[p:])
            )

    elif kind == "vqe":
        dim = vqe_param_count(ising.n, vqe_reps)

        def prepare(params: np.ndarray) -> Statevector:
            return build_vqe_state(ising.n, VqeParams(angles=params, reps=vqe_reps))

    else:
        raise ValidationError(f"unknown ansatz kind {kind!r}")

    return prepare, dim


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
    :func:`make_ansatz`.
    """
    prepare, dim = make_ansatz(kind, ising, p=p, warm=warm, vqe_reps=vqe_reps)

    def objective(params: np.ndarray) -> float:
        params = np.asarray(params, dtype=float)
        if params.shape != (dim,):
            raise ValidationError(
                f"{kind} objective expects {dim} parameters, got shape {params.shape}"
            )
        return expectation_diagonal(prepare(params), ising)

    return objective, dim
