"""The warm-start pipeline, stage by stage.

Warm-start QAOA replaces the uniform starting state with one built from
a classical relaxation: solve the cut problem with continuous variables
in [0,1], clip the solution away from the endpoints, and rotate each
qubit to encode its clipped value.  The mixer is adapted so that this
product state is its lowest eigenstate; at zero angles nothing moves,
and optimization only has to improve on an already good guess.

Run:  python3 demos/03_warm_start_pipeline.py
"""

import numpy as np

from cutclust import (
    WarmStart,
    clip_cstar,
    euclidean_weights,
    exact_solve,
    ising_from_graph,
    load_dataset,
    make_objective,
    qubo_from_graph,
    relax_qubo,
    resolve_dataset,
    spsa_minimize,
    state_probabilities,
)

dataset = load_dataset(resolve_dataset("cars"))
graph = euclidean_weights(dataset)
ising = ising_from_graph(graph)
solution = exact_solve(ising)
print(f"exact ground energy {solution.ground_energy:.4f}")

# Stage 1: continuous relaxation by projected gradient ascent.  On this
# instance the box maximum is an integral vertex, i.e. the relaxation
# already solves the problem.
qubo = qubo_from_graph(graph)
relaxed = relax_qubo(qubo, seed=0)
print(f"relaxed objective   {relaxed.objective:.4f}  c* = {relaxed.c_star}")

# Stage 2: clip so no qubit starts frozen at a pole.
clipped = clip_cstar(relaxed.c_star, 0.1)
warm = WarmStart(clipped)
print(f"clipped c*          {clipped}")
print(f"rotation angles     {np.round(warm.thetas, 4)}")

# Stage 3: before any optimization, at (beta, gamma) = (0, 0), the product
# state already puts most of its probability on the two optimal bitstrings.
probs0 = state_probabilities("ws-qaoa", ising, np.zeros(2), warm=warm)
mass0 = sum(probs0[s] for s in solution.ground_states)
print(f"\ninitial mass on optimal pair   {mass0:.4f}")
print(f"initial energy                 {probs0 @ ising.energies:.4f}")

# Stage 4: SPSA over (beta, gamma) narrows the remaining gap.  The
# start is jittered away from (0, 0), which is a stationary point.
objective, dim = make_objective("ws-qaoa", ising, warm=warm, p=1)
init = np.random.default_rng([1, 1]).uniform(-0.1, 0.1, dim)
result = spsa_minimize(objective, init, max_iters=250, seed=1)

probs1 = state_probabilities("ws-qaoa", ising, result.best_params, warm=warm)
mass1 = sum(probs1[s] for s in solution.ground_states)
print(f"\nafter 250 SPSA iterations")
print(f"optimized energy               {result.best_value:.4f}")
print(f"mass on optimal pair           {mass1:.4f}")
print(f"fraction of ground energy      {result.best_value / solution.ground_energy:.4f}")
