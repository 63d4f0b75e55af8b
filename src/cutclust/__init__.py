"""Variational clustering workbench.

Maps a real-valued dataset to a weighted max-cut instance via pairwise
Euclidean distances and solves it three ways on a dense statevector
simulator (QAOA, warm-start QAOA, VQE), benchmarked against an
exhaustive reference solver.
"""

from .ansatz import (
    QaoaParams,
    VqeParams,
    WarmStart,
    build_qaoa_state,
    build_vqe_state,
    build_ws_qaoa_state,
    vqe_param_count,
    ws_mixer_hamiltonian,
)
from .bench import (
    ALGORITHMS,
    BenchmarkReport,
    RunConfig,
    RunRecord,
    assign_clusters,
    cluster_accuracy,
    emit_report,
    load_dataset,
    resolve_dataset,
    run_algorithm,
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
    OptimizerResult,
    SpsaConfig,
    calibrate_step_gain,
    exact_solve,
    make_objective,
    spsa_minimize,
)
from .relaxation import (
    RelaxConfig,
    RelaxResult,
    clip_cstar,
    relax_qubo,
)
from .simulator import (
    RNG_ID,
    Statevector,
    apply_cnot,
    apply_diagonal_phase,
    expectation_diagonal,
    new_state,
    probabilities,
)

__all__ = [
    "ALGORITHMS",
    "QUBIT_CAP",
    "RNG_ID",
    "BenchmarkReport",
    "Dataset",
    "EvaluationError",
    "ExactSolution",
    "IsingDiagonal",
    "OptimizerResult",
    "QaoaParams",
    "QuboProblem",
    "RelaxConfig",
    "RelaxResult",
    "RunConfig",
    "RunRecord",
    "SpsaConfig",
    "Statevector",
    "ValidationError",
    "VqeParams",
    "WarmStart",
    "WeightedGraph",
    "apply_cnot",
    "apply_diagonal_phase",
    "assign_clusters",
    "build_qaoa_state",
    "build_vqe_state",
    "build_ws_qaoa_state",
    "calibrate_step_gain",
    "clip_cstar",
    "cluster_accuracy",
    "cut_value",
    "emit_report",
    "euclidean_weights",
    "exact_solve",
    "expectation_diagonal",
    "ising_from_graph",
    "load_dataset",
    "make_objective",
    "new_state",
    "probabilities",
    "qubo_from_graph",
    "relax_qubo",
    "resolve_dataset",
    "run_algorithm",
    "run_benchmark",
    "shipped_datasets",
    "spsa_minimize",
    "vqe_param_count",
    "ws_mixer_hamiltonian",
]
