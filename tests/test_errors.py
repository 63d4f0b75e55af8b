import numpy as np
import pytest

from cutclust.bench import RunConfig
from cutclust.errors import ValidationError, check_count
from cutclust.graph_model import IsingDiagonal, WeightedGraph, qubo_from_graph
from cutclust.optimizer import make_ansatz, spsa_minimize
from cutclust.relaxation import relax_qubo

EDGE = WeightedGraph(weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
ISING = IsingDiagonal(n=2, energies=np.array([0.0, -1.0, -1.0, 0.0]))

# each entry point with one of its counts: (name, least, call with value)
ENTRY_POINTS = {
    "RunConfig": ("p", 1, lambda v: RunConfig(dataset="cars", p=v)),
    "spsa_minimize": ("max_iters", 1, lambda v: spsa_minimize(np.sum, np.ones(2), max_iters=v)),
    "make_ansatz": ("vqe_reps", 0, lambda v: make_ansatz("vqe", ISING, vqe_reps=v)),
    "relax_qubo": ("seed", 0, lambda v: relax_qubo(qubo_from_graph(EDGE), seed=v)),
    "IsingDiagonal": ("n", 1, lambda v: IsingDiagonal(n=v, energies=np.zeros(2))),
}


class TestCheckCount:
    """One count rule: an int or np.integer, never a bool, at least a bound."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("kind", ["bool", "float", "below"])
    def test_every_entry_point_gives_the_same_message(self, entry, kind):
        name, least, call = ENTRY_POINTS[entry]
        value = {"bool": True, "float": 2.0, "below": least - 1}[kind]
        expected = {
            "bool": f"{name} must be an integer, got True",
            "float": f"{name} must be an integer, got 2.0",
            "below": f"{name} must be >= {least}, got {least - 1}",
        }[kind]
        with pytest.raises(ValidationError) as direct:
            check_count(name, value, least)
        assert str(direct.value) == expected
        with pytest.raises(ValidationError) as raised:
            call(value)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_takes_a_numpy_integer(self, entry):
        _, least, call = ENTRY_POINTS[entry]
        call(np.int64(least))
