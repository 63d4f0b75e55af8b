"""Variational clustering workbench.

Maps a real-valued dataset to a weighted max-cut instance via pairwise
Euclidean distances and solves it three ways on a dense statevector
simulator (QAOA, warm-start QAOA, VQE), benchmarked against an
exhaustive reference solver.
"""

from .ansatz import (
    WarmStart,
    vqe_param_count,
    ws_mixer_hamiltonian,
)
from .bench import (
    BenchmarkReport,
    RunConfig,
    assign_clusters,
    cluster_accuracy,
    emit_report,
    load_dataset,
    resolve_dataset,
    run_benchmark,
    shipped_datasets,
)
from .errors import EvaluationError, ValidationError
from .graph_model import (
    QUBIT_CAP,
    Dataset,
    IsingDiagonal,
    QuboProblem,
    WeightedGraph,
    cut_value,
    euclidean_weights,
    ising_from_graph,
    qubo_from_graph,
)
from .optimizer import (
    ExactSolution,
    exact_solve,
    make_objective,
    spsa_minimize,
    state_probabilities,
)
from .relaxation import (
    clip_cstar,
    relax_qubo,
)

__all__ = [
    "QUBIT_CAP",
    "BenchmarkReport",
    "Dataset",
    "EvaluationError",
    "ExactSolution",
    "IsingDiagonal",
    "QuboProblem",
    "RunConfig",
    "ValidationError",
    "WarmStart",
    "WeightedGraph",
    "assign_clusters",
    "clip_cstar",
    "cluster_accuracy",
    "cut_value",
    "emit_report",
    "euclidean_weights",
    "exact_solve",
    "ising_from_graph",
    "load_dataset",
    "make_objective",
    "qubo_from_graph",
    "relax_qubo",
    "resolve_dataset",
    "run_benchmark",
    "shipped_datasets",
    "spsa_minimize",
    "state_probabilities",
    "vqe_param_count",
    "ws_mixer_hamiltonian",
]
