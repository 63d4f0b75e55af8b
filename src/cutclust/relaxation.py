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

from .errors import ValidationError, check_count
from .graph_model import QuboProblem

# RESTARTS ascents, each stopped after MAX_ITERS steps or once its projected
# gradient is below TOL; each step tries the length STEP, halved to _MIN_STEP
RESTARTS = 32
MAX_ITERS = 2000
STEP = 1.0
TOL = 1e-8
_MIN_STEP = 1e-14


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


def _ascend(qubo: QuboProblem, x0: np.ndarray):
    x = x0.copy()
    fx = qubo.objective(x)
    for _ in range(MAX_ITERS):
        g = qubo.gradient(x)
        if np.abs(_projected_gradient(x, g)).max() < TOL:
            return x, fx, False
        t = STEP
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


def relax_qubo(
    qubo: QuboProblem,
    seed: int = 0,
    ascents: dict[int, tuple] | None = None,
) -> RelaxResult:
    """Best point over ``RESTARTS`` projected gradient ascents on [0,1]^n.

    Restart r starts from ``default_rng(seed + r)``, so runs whose seeds
    lie fewer than ``RESTARTS`` apart share starts.  ``ascents`` holds
    the ascent from each start seed already run; give every run of one
    problem the same dict, and each distinct start is ascended once.
    """
    # numpy's generators take only non-negative integer seeds
    check_count("seed", seed, 0)
    ascents = {} if ascents is None else ascents
    best_x, best_f, best_capped = None, -np.inf, False
    for start in range(seed, seed + RESTARTS):
        if start not in ascents:
            x0 = np.random.default_rng(start).uniform(0.0, 1.0, size=qubo.n)
            ascents[start] = _ascend(qubo, x0)
        x, fx, capped = ascents[start]
        if fx > best_f:
            best_x, best_f, best_capped = x, fx, capped
    return RelaxResult(c_star=best_x.copy(), objective=best_f, capped=best_capped)


def clip_cstar(c_star, epsilon: float) -> np.ndarray:
    """Pull entries away from {0, 1} by the given margin, in [0, 0.5]; a
    margin of 0 leaves the entries as they are."""
    # past 0.5 the lower bound would pass the upper one, and np.clip then
    # returns the upper bound everywhere
    if not 0.0 <= epsilon <= 0.5:
        raise ValidationError(f"epsilon must lie in [0, 0.5], got {epsilon}")
    c = np.asarray(c_star, dtype=float)
    return np.clip(c, epsilon, 1.0 - epsilon)
