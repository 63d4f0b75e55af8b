"""Smoke test of benchmarks/bench_compare.py: its side-by-side layer
figures, with this tree on both sides."""

import importlib.util
from pathlib import Path

from cutclust import graph_model, simulator

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_compare.py"
LAYERS = {
    "ry_layer", "vqe_ry_layer", "mixer_layer", "vqe_first_layer", "cost_phase",
    "half_cost_phase", "cnot_gather", "expectation",
}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_figures_on_one_tree():
    modules = {"simulator": simulator, "graph_model": graph_model}
    loops = 2
    figures = load_script().layer_figures({"before": modules, "after": modules}, 5, loops)
    assert set(figures) == LAYERS
    for name, row in figures.items():
        assert row["identical"], name
        assert row["loops"] == loops
        assert 0 <= row["after_wins"] <= loops
        for side in ("before", "after"):
            q1, median, q3 = row[side]
            assert 0 < q1 <= median <= q3, (name, side)
