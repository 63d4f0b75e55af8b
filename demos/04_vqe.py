"""VQE on the same clustering Hamiltonian.

VQE makes no structural assumption about the problem: a stack of
single-qubit rotations and CNOT chains is optimized until its energy
stops improving.  It has many more parameters than depth-1 QAOA (here
n * (reps + 1) angles), which is both its strength and its cost.

Run:  python3 demos/04_vqe.py
"""

import numpy as np

from cutclust import (
    euclidean_weights,
    exact_solve,
    ising_from_graph,
    load_dataset,
    make_objective,
    resolve_dataset,
    spsa_minimize,
    state_probabilities,
    vqe_param_count,
)

ising = ising_from_graph(euclidean_weights(load_dataset(resolve_dataset("cars"))))
solution = exact_solve(ising)
reps = 5
n_params = vqe_param_count(ising.n, reps)
print(f"qubits {ising.n}, reps {reps} -> {n_params} angles")
print(f"ground energy {solution.ground_energy:.4f}")

objective, dim = make_objective("vqe", ising, vqe_reps=reps)
init = np.random.default_rng(1).uniform(-0.1, 0.1, dim)
result = spsa_minimize(objective, init, max_iters=250, seed=1)

print(f"\nSPSA best energy {result.best_value:.4f} "
      f"({result.best_value / solution.ground_energy:.1%} of ground, "
      f"{result.evaluations} evaluations)")

# energy trace, thinned: the steady descent is typical of SPSA
trace = result.trace
for k in range(0, len(trace), 25):
    bar = "#" * int(40 * (trace[k] - trace.min()) / (trace.max() - trace.min() + 1e-12))
    print(f"iter {k:4d}  {trace[k]:9.4f}  {bar}")

probs = state_probabilities("vqe", ising, result.best_params, vqe_reps=reps)
top = np.argsort(probs)[::-1][:4]
print("\nmost probable bitstrings:")
for k in top:
    print(f"  {format(int(k), f'0{ising.n}b')}  p={probs[k]:.4f}  E={ising.energies[k]:.4f}")
