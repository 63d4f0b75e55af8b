"""Box relaxation of the MAXCUT QUBO and clipping of its solution.

The binary variables are relaxed to the unit box [0,1]^n and the (generally
indefinite) quadratic objective is maximized by projected gradient ascent
with backtracking, restarted from multiple random interior points. For the
cut objective the optimum sits at a binary vertex, so the best restart
typically lands exactly on an optimal cut.

Relaxed values on the open interval are required downstream: at c in {0, 1}
the warm-start mixer loses its off-diagonal and the circuit can never leave
its initial product state, hence clip_cstar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph_model import QuboProblem

_MIN_STEP = 1e-14


@dataclass(frozen=True)
class RelaxConfig:
    restarts: int = 32
    max_iters: int = 2000
    step: float = 1.0
    tol: float = 1e-8
    epsilon: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        # epsilon = 0 would leave binary entries that the warm-start mixer
        # rejects, so every ws-QAOA run would fail after the relaxation
        if not 0.0 < self.epsilon < 0.5:
            raise ValidationError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")


@dataclass(frozen=True)
class RelaxResult:
    c_star: np.ndarray
    objective: float
    capped: bool


def _projected_gradient(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ascent directions still available inside the box."""
    pg = g.copy()
    pg[(x <= 0.0) & (g < 0.0)] = 0.0
    pg[(x >= 1.0) & (g > 0.0)] = 0.0
    return pg


def _ascend(qubo: QuboProblem, x0: np.ndarray, config: RelaxConfig):
    x = x0.copy()
    fx = qubo.objective(x)
    for _ in range(config.max_iters):
        g = qubo.gradient(x)
        if np.abs(_projected_gradient(x, g)).max() < config.tol:
            return x, fx, False
        t = config.step
        while t > _MIN_STEP:
            x_new = np.clip(x + t * g, 0.0, 1.0)
            f_new = qubo.objective(x_new)
            if f_new > fx:
                x, fx = x_new, f_new
                break
            t *= 0.5
        else:
            # no ascent step improves: numerically stationary
            return x, fx, False
    return x, fx, True


def relax_qubo(qubo: QuboProblem, config: RelaxConfig | None = None) -> RelaxResult:
    """Best point over multi-start projected gradient ascent on [0,1]^n."""
    config = config or RelaxConfig()
    best_x, best_f, best_capped = None, -np.inf, False
    for restart in range(config.restarts):
        rng = np.random.default_rng(config.seed + restart)
        x0 = rng.uniform(0.0, 1.0, size=qubo.n)
        x, fx, capped = _ascend(qubo, x0, config)
        if fx > best_f:
            best_x, best_f, best_capped = x, fx, capped
    return RelaxResult(c_star=best_x, objective=best_f, capped=best_capped)


def clip_cstar(c_star, epsilon: float) -> np.ndarray:
    """Pull entries away from {0, 1} by the given margin."""
    c = np.asarray(c_star, dtype=float)
    return np.clip(c, epsilon, 1.0 - epsilon)
