"""Before/after measurements of two checkouts of cutclust.

    python3 benchmarks/bench_compare.py --before DIR --out BENCH_<topic>.json

DIR is a checkout of the code to compare against (for example made with
``git clone`` and ``git checkout <commit>``); the oldest it can be is
commit 2e4cfe9, the change that added ``simulator.apply_half_phase_rows``.
The "after" side is the checkout this script lives in.  The topic
recorded in the output is the ``<topic>`` part of its file name.  Two
kinds of figure are written:

- end to end: for every workload of ``perfbench/run.py`` and each side,
  REPEATS interleaved runs of ``perfbench/run.py --trace 0``; each run's
  medians of ``wall_s``, ``setup_s`` and ``peak_anon_mb`` are kept, and
  per side their median and quartiles are reported, with the number of
  pairs the after side won and every run's correctness verdict;
- side by side in one process (the before tree imported under another
  package name): microseconds of one call of each layer kernel of an
  evaluation (a real and a complex rotation layer, the R_y layer that
  VQE applies at that size with its factor build, VQE's first layer on
  |0...0>, the cost phase on whole and on half states, the CNOT-chain
  gather and the expectation) on a batch of min(BATCH_ROWS, row cap)
  rows, seconds of one ``emit_report`` of a 14-qubit report,
  microseconds of one exact-energy evaluation of each ansatz, as a
  one-row ``make_objective`` call and per row of a lockstep batch of
  BATCH_ROWS rows (split into chunks of the row cap), and milliseconds
  of one ``spsa_lockstep`` run, both sides alternating AB_LOOPS times on
  the same input, with each side's median and quartiles, the share of
  loops the after side won and whether both sides' outputs are equal.

The kernel and evaluation figures are taken at n in QUBITS on a fixed
random graph.  Figures from separate processes spread more than many
changes move them, so every side-by-side figure shares one process, heap
and input.  Timing uses ``time.perf_counter`` only; every measurement
runs in a fresh process with ``OPENBLAS_NUM_THREADS=1``.  Both source
trees are byte-compiled first, so that neither side pays for compiling a
module whose cached bytecode is missing or stale.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

AFTER = Path(__file__).resolve().parent.parent
WORKLOADS = ("cars-default", "wine-ws-deep", "synth14-kernels")
METRICS = ("wall_s", "setup_s", "peak_anon_mb")
QUBITS = (5, 6, 7, 10, 14)
KINDS = ("qaoa", "ws-qaoa", "vqe")
BATCH_ROWS = 20
# the SPSA probe: seeds advancing together and the parameter counts
# (2 = QAOA at p = 1, 8 = ws-QAOA at p = 4, 30 = VQE on cars)
STEP_SEEDS = 10
STEP_DIMS = (2, 8, 30)
# interleaved before/after pairs per workload; a gain needs ten to show
REPEATS = 10
# alternations of the two sides in the side-by-side probes
AB_LOOPS = 30
OUT_NAME = re.compile(r"BENCH_(\w+)\.json")


# probes: they run in a child process with the after side's src/ first on
# sys.path --------------------------------------------------------------------

def _warm_heap() -> None:
    """Allocate and free a 4 MiB array, so that glibc's malloc serves
    state-sized buffers from its heap as it does in a full run; in a fresh
    process each 256 KiB buffer would be a new mapping whose pages fault
    in on every call."""
    import numpy as np

    np.ones(2**19)


def _ising(n: int):
    import numpy as np
    from cutclust import WeightedGraph, ising_from_graph

    rng = np.random.default_rng(n)
    w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), k=1)
    return rng, ising_from_graph(WeightedGraph(weights=w + w.T))


def _import_as(src: Path, name: str):
    """The cutclust package under ``src``, imported as the package
    ``name``: its relative imports resolve inside it, so it runs beside
    the ``cutclust`` on ``sys.path``."""
    init = src / "cutclust" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _side_by_side(fns: dict, loops: int, scale: float = 1.0) -> dict:
    """Seconds per call, times ``scale``, of the ``before`` and ``after``
    functions, alternating ``loops`` times, the side that goes first
    swapping every loop: each side's median and quartiles, and how many
    loops the after side won."""
    times: dict = {side: [] for side in fns}
    for r in range(loops):
        for side in (fns if r % 2 == 0 else reversed(list(fns))):
            t0 = time.perf_counter()
            fns[side]()
            times[side].append(time.perf_counter() - t0)
    out = {side: [q * scale for q in quartiles(ts)] for side, ts in times.items()}
    out["after_wins"] = sum(a < b for a, b in zip(times["after"], times["before"]))
    out["loops"] = loops
    return out


def _evaluators(modules: dict, kind: str, n: int, energies, c_stars):
    """``(one_row, batched, dim)`` through one side's ``modules``:
    ``one_row(params)`` evaluates each row of ``params`` as a one-row
    ``make_objective`` call from the first warm start, ``batched(params)``
    all rows as one ``row_energies`` batch, row r from warm start r."""
    import numpy as np

    optimizer = modules["optimizer"]
    ising = modules["graph_model"].IsingDiagonal(n, energies)
    warms = [modules["ansatz"].WarmStart(c) for c in c_stars]
    objective, dim = optimizer.make_objective(kind, ising, warm=warms[0])
    prepare, _ = optimizer.make_ansatz(kind, ising, warm=warms if kind == "ws-qaoa" else None)
    owners = np.arange(len(warms))

    def one_row(params):
        return np.array([objective(x) for x in params])

    def batched(params):
        return optimizer.row_energies(prepare, ising, params, owners)

    return one_row, batched, dim


def layer_figures(sides: dict, n: int, loops: int) -> dict:
    """{layer: figure} at ``n`` qubits: each layer kernel of an evaluation
    through both sides' ``simulator`` and ``graph_model`` modules (each
    side builds its own ``IsingDiagonal``) on the same batch of
    min(BATCH_ROWS, row cap) rows, in microseconds per call, each
    alternation of :func:`_side_by_side` timing 2^15 amplitudes or more,
    with ``identical`` set when both sides' outputs are equal byte for
    byte."""
    import numpy as np

    rng, ising = _ising(n)
    sim = sides["after"]["simulator"]
    rows = min(BATCH_ROWS, sim.row_cap(n))
    real = rng.normal(size=(rows, 2**n))
    real /= np.linalg.norm(real, axis=1, keepdims=True)
    cplx = real * np.exp(1j * rng.uniform(0, 2 * np.pi, size=real.shape))
    half = np.ascontiguousarray(cplx[:, : 2 ** (n - 1)])
    ry = sim.ry(rng.uniform(-np.pi, np.pi, size=(rows, n)))
    mixer = np.cos(0.3) * np.eye(2) - 1j * np.sin(0.3) * ry
    gammas = rng.uniform(-1, 1, rows)
    chain = sim.cnot_chain_perm(n)
    probs = sim.probability_rows(cplx)

    def kernels(modules: dict) -> dict:
        side = modules["simulator"]
        graph_model = modules["graph_model"]
        own = graph_model.IsingDiagonal(n, ising.energies)
        # the R_y layer vqe_rows applies at n, factors included: a side
        # without the constant has no matrix-product layer, and one without
        # kron_factors builds a layer's factors inside the layer
        vqe_layer = side.apply_layer_rows
        if n >= getattr(side, "KRON_MIN_QUBITS", n + 1):
            vqe_layer = side.apply_kron_layer_rows
            if hasattr(side, "kron_factors"):
                vqe_layer = lambda psi, gates: side.apply_kron_layer_rows(psi, side.kron_factors(gates))
        # the cost phase as the ansatz forms it: a side with the phase
        # kernels calls them, a later one forms the phases for its helper
        if hasattr(side, "apply_diagonal_phase_rows"):
            cost_phase = lambda: side.apply_diagonal_phase_rows(cplx, gammas, own)
            half_cost_phase = lambda: side.apply_half_phase_rows(half, gammas, own)
        else:
            mirror, half_phases = graph_model.mirror, side._half_phases
            cost_phase = lambda: side.apply_phase_rows(cplx, mirror(half_phases(gammas, own)), n)
            half_cost_phase = lambda: side.apply_phase_rows(half, half_phases(gammas, own), n)
        return {
            "ry_layer": lambda: side.apply_layer_rows(real, ry),
            "vqe_ry_layer": lambda: vqe_layer(real, ry),
            "mixer_layer": lambda: side.apply_layer_rows(cplx, mixer),
            "vqe_first_layer": lambda: side.product_rows(ry[..., 0]),
            "cost_phase": cost_phase,
            "half_cost_phase": half_cost_phase,
            "cnot_gather": lambda: side.gather_rows(real, chain),
            "expectation": lambda: side.expectation_rows(probs, own.energies),
        }

    fns = {side: kernels(modules) for side, modules in sides.items()}
    reps = max(3, 2**15 // (rows * 2**n))
    out = {}
    for name in fns["after"]:
        calls = {side: (lambda fn=k[name]: [fn() for _ in range(reps)]) for side, k in fns.items()}
        row = _side_by_side(calls, loops, 1e6 / reps)
        row["identical"] = fns["before"][name]().tobytes() == fns["after"][name]().tobytes()
        out[name] = row
    return out


def probe_side_by_side(before_src: str) -> dict:
    """{"layer_us": {layer: {n: ...}}, "emit_report_s": ..., "eval_us":
    {kind: {n: {"one_row" | "batched": ...}}}, "spsa_lockstep_ms": {d:
    ...}}: the side-by-side figures of :func:`_side_by_side`, with
    ``identical`` set when both sides' kernels returned the same bytes,
    wrote the same report.json and histograms, computed the same energies
    to the bit, or returned the same gains, traces and best points to the
    bit.

    The report is the after side's run of every algorithm with two seeds
    on a 14-qubit synthetic instance, emitted in every format; an
    evaluation figure is per point of BATCH_ROWS points at the defaults
    (p = 1, five VQE repetitions) on the graph of the layer figures, in
    rounds of 2^11 amplitudes or more; the SPSA figure is one
    ``spsa_lockstep`` run of STEP_SEEDS seeds and the default 250
    iterations on a sum of squares, at each dimension in STEP_DIMS."""
    import numpy as np
    from cutclust.bench import RunConfig, run_benchmark

    _import_as(Path(before_src), "cutclust_before")
    names = ("ansatz", "bench", "graph_model", "optimizer", "simulator")
    sides = {side: {m: importlib.import_module(f"{package}.{m}") for m in names}
             for side, package in (("before", "cutclust_before"), ("after", "cutclust"))}
    sys.path.insert(0, str(AFTER / "perfbench"))
    from workloads import synth_csv

    _warm_heap()
    out: dict = {"layer_us": {}}
    for n in QUBITS:
        for name, row in layer_figures(sides, n, AB_LOOPS).items():
            out["layer_us"].setdefault(name, {})[str(n)] = row

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "synth14.csv"
        data.write_text(synth_csv(1), encoding="utf-8")
        report = run_benchmark(RunConfig(dataset=str(data), seeds=(1, 2), spsa_iters=1))
        dirs = {"before": Path(tmp) / "before", "after": Path(tmp) / "after"}
        emits = {side: (lambda m=m, d=dirs[side]: m["bench"].emit_report(report, d)) for side, m in sides.items()}
        out["emit_report_s"] = _side_by_side(emits, AB_LOOPS)
        files = sorted(p.name for p in dirs["after"].iterdir() if p.name.startswith(("report", "histogram")))
        out["emit_report_s"]["identical"] = all(
            (dirs["before"] / f).read_bytes() == (dirs["after"] / f).read_bytes() for f in files
        )

    out["eval_us"] = {kind: {} for kind in KINDS}
    for kind in KINDS:
        for n in QUBITS:
            rng, ising = _ising(n)
            c_stars = rng.uniform(0.1, 0.9, size=(BATCH_ROWS, n))
            ways = {side: _evaluators(mods, kind, n, ising.energies, c_stars) for side, mods in sides.items()}
            params = rng.uniform(-0.1, 0.1, size=(BATCH_ROWS, ways["after"][2]))
            # both sides evaluate the same batches * BATCH_ROWS points
            batches = max(1, 2**11 // 2**n)
            figures = {}
            for i, way in enumerate(("one_row", "batched")):
                fns = {side: (lambda fn=w[i]: [fn(params) for _ in range(batches)]) for side, w in ways.items()}
                row = _side_by_side(fns, AB_LOOPS, 1e6 / (batches * BATCH_ROWS))
                row["identical"] = ways["before"][i](params).tobytes() == ways["after"][i](params).tobytes()
                figures[way] = row
            out["eval_us"][kind][str(n)] = figures

    def squares(points, owners):
        return np.square(points).sum(axis=1)

    out["spsa_lockstep_ms"] = {}
    seeds = tuple(range(1, STEP_SEEDS + 1))
    for dim in STEP_DIMS:
        initial = np.random.default_rng(dim).uniform(-0.1, 0.1, size=(STEP_SEEDS, dim))
        runs = {side: (lambda fn=m["optimizer"].spsa_lockstep: fn(squares, initial, RunConfig.spsa_iters, seeds))
                for side, m in sides.items()}
        row = _side_by_side(runs, AB_LOOPS, 1e3)
        results = {side: run() for side, run in runs.items()}
        row["identical"] = all(
            b.gain == a.gain
            and b.trace.tobytes() == a.trace.tobytes()
            and b.best_params.tobytes() == a.best_params.tobytes()
            for b, a in zip(results["before"], results["after"])
        )
        out["spsa_lockstep_ms"][str(dim)] = row
    return out


# driver ----------------------------------------------------------------------

def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_side_by_side(before: Path) -> dict:
    """:func:`probe_side_by_side` in a child whose cutclust is this
    checkout's, with the one under ``before`` imported beside it."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import bench_compare; "
        f"print(json.dumps(bench_compare.probe_side_by_side({str(before / 'src')!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=AFTER, capture_output=True, text=True,
        env=child_env(AFTER / "src"), check=True,
    )
    return json.loads(proc.stdout)


def perfbench_run(root: Path, workload: str) -> dict:
    """One ``perfbench/run.py --trace 0`` call in ``root``: its end-to-end
    medians and correctness verdict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0", "--seconds", "0"],
        cwd=root, capture_output=True, text=True, env=child_env(root / "src"),
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"perfbench failed in {root} on {workload}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {m: result["metrics"][m]["value"] for m in METRICS}
    row["correct"] = bool(result["correct"]) and result["failed"] == 0
    return row


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


def machine() -> dict:
    """The machine, with the CPU class: numpy's baseline and the dispatch
    targets it found (as ``np.show_runtime()`` reads them) and the core
    OpenBLAS picked.  Their kernels round differently on another class,
    so a result's last bits hold for one class only."""
    import ctypes

    import numpy as np
    from numpy._core import _multiarray_umath as umath

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    core = "unknown"
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {
        "cpu": cpu,
        # the CPUs this process may run on: a run forks at most one worker
        # per CPU and pins each to one of these; perfbench/run.py's header
        # reads the same count
        "nproc": len(os.sched_getaffinity(0)),
        "cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_cpu_baseline": list(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]],
        "openblas_core": core,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--out", required=True, type=Path, help="output file BENCH_<topic>.json")
    args = parser.parse_args()
    match = OUT_NAME.fullmatch(args.out.name)
    if match is None:
        parser.error(f"--out must be named BENCH_<topic>.json, got {args.out.name!r}")
    sides = {"before": args.before.resolve(), "after": AFTER}
    for root in sides.values():
        compileall.compile_dir(root / "src", quiet=1)

    runs: dict = {w: {side: [] for side in sides} for w in WORKLOADS}
    for r in range(REPEATS):
        # the side that goes first swaps every pair, so drift does not favour one
        for side in (sides if r % 2 == 0 else reversed(list(sides))):
            for workload in WORKLOADS:
                runs[workload][side].append(perfbench_run(sides[side], workload))
                print(f"pair {r + 1} {workload} {side}: {runs[workload][side][-1]}", file=sys.stderr)

    end_to_end = {}
    for workload, by_side in runs.items():
        end_to_end[workload] = {}
        for metric in METRICS:
            values = {side: [x[metric] for x in by_side[side]] for side in sides}
            stats = {side: quartiles(v) for side, v in values.items()}
            end_to_end[workload][metric] = {
                "before": stats["before"][1],
                "after": stats["after"][1],
                "after_over_before": stats["after"][1] / stats["before"][1],
                "quartiles": stats,
                "after_wins": sum(a < b for a, b in zip(values["after"], values["before"])),
                "runs": values,
            }
        end_to_end[workload]["all_correct"] = all(x["correct"] for s in sides for x in by_side[s])

    report = {
        "topic": match.group(1),
        "command": f"python3 benchmarks/bench_compare.py --before DIR --out {args.out.name}",
        "machine": machine(),
        "repeats": REPEATS,
        "statistic": "end_to_end: median and quartiles over repeats of each perfbench/run.py "
        "call's median, after_wins = pairs where after < before; side_by_side: quartiles "
        f"[q1, median, q3] per side over {AB_LOOPS} alternations in one process, after_wins "
        "= loops where after < before",
        "end_to_end": end_to_end,
        "side_by_side": run_side_by_side(sides["before"]),
        "batch_rows": BATCH_ROWS,
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
