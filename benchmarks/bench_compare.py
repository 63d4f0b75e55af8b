"""Before/after measurements of two checkouts of cutclust.

    python3 benchmarks/bench_compare.py --before DIR --out BENCH_<topic>.json

DIR is a checkout of the code to compare against (for example made with
``git clone`` and ``git checkout <commit>``); the oldest it can be is the
change that made ``spsa_lockstep(objective, initial, max_iters, seeds)``
calibrate each seed's step gain itself.  The "after" side is the
checkout this script lives in.  The topic recorded in the output is the
``<topic>`` part of its file name.  Five kinds of figure are written:

- end to end: for every workload of ``perfbench/run.py`` and each side,
  REPEATS interleaved runs of ``perfbench/run.py --trace 0``; each run's
  medians of ``wall_s``, ``setup_s`` and ``peak_anon_mb`` are kept, and
  per side their median and quartiles are reported, with the number of
  pairs the after side won and every run's correctness verdict;
- per layer: microseconds of one call of each layer of an evaluation (a
  real and a complex rotation layer, VQE's first layer on |0...0>, the
  cost phase, the CNOT-chain gather and the expectation) on a batch of
  min(BATCH_ROWS, row cap) rows;
- side by side in one process (the before tree imported under another
  package name): seconds of one ``emit_report`` of a 14-qubit report,
  microseconds of one exact-energy evaluation of each ansatz at each n
  in QUBITS, as a one-row ``make_objective`` call and per row of a
  lockstep batch of BATCH_ROWS rows (split into chunks of the row cap),
  and milliseconds of one ``spsa_lockstep`` run, both sides alternating
  AB_LOOPS times on the same input, with each side's median and
  quartiles, the share of loops the after side won and whether both
  sides' outputs are equal;
- per step: microseconds of the optimizer's own work per SPSA iteration
  and per calibration probe, for STEP_SEEDS seeds in lockstep on a
  trivial batch objective, at each dimension in STEP_DIMS, from
  ``spsa_lockstep`` runs of 250 iterations and of 1;
- constants (after side only): the timings behind SPSA's draw block.

The probes run at n in QUBITS on a fixed random graph; each figure but
the side-by-side ones is the fastest of PROBE_RUNS probe processes,
alternating sides, each keeping the best of PROBE_LOOPS alternating
timing loops.  Figures from separate processes spread more than many
changes move them; the side-by-side figures share one process, heap and
input.  Timing uses
``time.perf_counter`` only; every measurement runs in a fresh process
with ``OPENBLAS_NUM_THREADS=1``.  Both source trees are byte-compiled
first, so that neither side pays for compiling a module whose cached
bytecode is missing or stale.
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
# the per-step probe: seeds advancing together and the parameter counts
# (2 = QAOA at p = 1, 8 = ws-QAOA at p = 4, 30 = VQE on cars)
STEP_SEEDS = 10
STEP_DIMS = (2, 8, 30)
# probe processes per side: a process may run all of its small-state timings
# up to 1.5x slower than the next, so the fastest of several is kept
PROBE_RUNS = 8
PROBE_LOOPS = 7
# interleaved before/after pairs per workload; a gain needs ten to show
REPEATS = 10
# alternations of the two sides in the side-by-side probes
AB_LOOPS = 30
OUT_NAME = re.compile(r"BENCH_(\w+)\.json")


# probes: each runs in a child process with one side's src/ first on
# sys.path and returns a JSON-ready dict -------------------------------------

def _warm_heap() -> None:
    """Allocate and free a 4 MiB array, so that glibc's malloc serves
    state-sized buffers from its heap as it does in a full run; in a fresh
    process each 256 KiB buffer would be a new mapping whose pages fault
    in on every call."""
    import numpy as np

    np.ones(2**19)


def _best_us(fns, reps: int) -> list[float]:
    """Microseconds per call of each function: the best of PROBE_LOOPS
    timing loops of ``reps`` calls, the functions' loops alternating so
    that drift hits them alike."""
    times = [[] for _ in fns]
    for _ in range(PROBE_LOOPS):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            ts.append(time.perf_counter() - t0)
    return [min(ts) / reps * 1e6 for ts in times]


def _ising(n: int):
    import numpy as np
    from cutclust import WeightedGraph, ising_from_graph

    rng = np.random.default_rng(n)
    w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), k=1)
    return rng, ising_from_graph(WeightedGraph(weights=w + w.T))


def probe_layers() -> dict:
    """{layer: {n: us per call}} on a batch of min(BATCH_ROWS, row cap)
    rows, and {"emit_report": s} for a 14-qubit report."""
    import numpy as np
    from cutclust import simulator as sim

    _warm_heap()
    out: dict = {}
    for n in QUBITS:
        rng, ising = _ising(n)
        rows = min(BATCH_ROWS, sim.row_cap(n))
        real = rng.normal(size=(rows, 2**n))
        real /= np.linalg.norm(real, axis=1, keepdims=True)
        cplx = real * np.exp(1j * rng.uniform(0, 2 * np.pi, size=real.shape))
        ry = sim.ry(rng.uniform(-np.pi, np.pi, size=(rows, n)))
        mixer = np.cos(0.3) * np.eye(2) - 1j * np.sin(0.3) * ry
        gammas = rng.uniform(-1, 1, rows)
        chain = sim.cnot_chain_perm(n)
        probs = sim.probability_rows(cplx)
        layers = {
            "ry_layer": lambda: sim.apply_layer_rows(real, ry),
            "mixer_layer": lambda: sim.apply_layer_rows(cplx, mixer),
            "vqe_first_layer": lambda: sim.product_rows(ry[..., 0]),
            "cost_phase": lambda: sim.apply_diagonal_phase_rows(cplx, gammas, ising),
            "cnot_gather": lambda: sim.gather_rows(real, chain),
            "expectation": lambda: sim.expectation_rows(probs, ising.energies),
        }
        reps = max(3, 2**15 // (rows * 2**n))
        for name, us in zip(layers, _best_us(list(layers.values()), reps)):
            out.setdefault(name, {})[str(n)] = us
    return out


def probe_steps() -> dict:
    """{"spsa_us_per_iteration" | "calibration_us_per_probe": {d: us}}:
    ``spsa_lockstep`` runs of the default 250 iterations and of 1
    iteration, STEP_SEEDS seeds at a time, on a sum of squares, so that
    the time is the optimizer's own bookkeeping.  An iteration costs
    ``(t(250) - t(1)) / 249``; the remainder of ``t(1)`` after one
    iteration is the calibration's, over its ``optimizer.PROBES`` probes."""
    import numpy as np
    from cutclust.bench import RunConfig
    from cutclust.optimizer import PROBES, spsa_lockstep

    def objective(points, owners):
        return np.square(points).sum(axis=1)

    seeds = tuple(range(1, STEP_SEEDS + 1))
    iters = RunConfig.spsa_iters
    out: dict = {"spsa_us_per_iteration": {}, "calibration_us_per_probe": {}}
    for dim in STEP_DIMS:
        initial = np.random.default_rng(dim).uniform(-0.1, 0.1, size=(STEP_SEEDS, dim))
        full_us, one_us = _best_us(
            [
                lambda: spsa_lockstep(objective, initial, iters, seeds),
                lambda: spsa_lockstep(objective, initial, 1, seeds),
            ],
            1,
        )
        iteration_us = (full_us - one_us) / (iters - 1)
        out["spsa_us_per_iteration"][str(dim)] = iteration_us
        out["calibration_us_per_probe"][str(dim)] = (one_us - iteration_us) / PROBES
    return out


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


def _side_by_side(fns: dict, loops: int) -> dict:
    """Seconds per call of the ``before`` and ``after`` functions,
    alternating ``loops`` times, the side that goes first swapping every
    loop: each side's median and quartiles, and how many loops the after
    side won."""
    times: dict = {side: [] for side in fns}
    for r in range(loops):
        for side in (fns if r % 2 == 0 else reversed(list(fns))):
            t0 = time.perf_counter()
            fns[side]()
            times[side].append(time.perf_counter() - t0)
    out = {side: quartiles(ts) for side, ts in times.items()}
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


def probe_side_by_side(before_src: str) -> dict:
    """{"emit_report_s": ..., "eval_us": {kind: {n: {"one_row" | "batched":
    ...}}}, "spsa_lockstep_ms": {d: ...}}: the side-by-side figures of
    :func:`_side_by_side`, with ``identical`` set when both sides wrote the
    same report.json and histograms, computed the same energies to the
    bit, or returned the same gains, traces and best points to the bit.

    The report is the after side's run of every algorithm with two seeds
    on a 14-qubit synthetic instance, emitted in every format; an
    evaluation figure is per point of BATCH_ROWS points at the defaults
    (p = 1, five VQE repetitions) on the graph of the other probes, in
    rounds of 2^11 amplitudes or more; the SPSA figure is one
    ``spsa_lockstep`` run of STEP_SEEDS seeds and the default 250
    iterations on a sum of squares, at each dimension in STEP_DIMS."""
    import numpy as np
    from cutclust.bench import RunConfig, emit_report, run_benchmark

    _import_as(Path(before_src), "cutclust_before")
    names = ("ansatz", "bench", "graph_model", "optimizer")
    sides = {side: {m: importlib.import_module(f"{package}.{m}") for m in names}
             for side, package in (("before", "cutclust_before"), ("after", "cutclust"))}
    old = sides["before"]
    sys.path.insert(0, str(AFTER / "perfbench"))
    from workloads import synth_csv

    _warm_heap()
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "synth14.csv"
        data.write_text(synth_csv(1), encoding="utf-8")
        report = run_benchmark(RunConfig(dataset=str(data), seeds=(1, 2), spsa_iters=1))
        dirs = {"before": Path(tmp) / "before", "after": Path(tmp) / "after"}
        emit = {"before": old["bench"].emit_report, "after": emit_report}
        out["emit_report_s"] = _side_by_side(
            {side: (lambda side=side: emit[side](report, dirs[side])) for side in dirs}, AB_LOOPS
        )
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
            scale = 1e6 / (batches * BATCH_ROWS)
            figures = {}
            for i, way in enumerate(("one_row", "batched")):
                fns = {side: (lambda fn=w[i]: [fn(params) for _ in range(batches)]) for side, w in ways.items()}
                row = _side_by_side(fns, AB_LOOPS)
                for side in fns:
                    row[side] = [t * scale for t in row[side]]
                row["identical"] = ways["before"][i](params).tobytes() == ways["after"][i](params).tobytes()
                figures[way] = row
            out["eval_us"][kind][str(n)] = figures

    from cutclust.optimizer import spsa_lockstep

    def squares(points, owners):
        return np.square(points).sum(axis=1)

    out["spsa_lockstep_ms"] = {}
    seeds = tuple(range(1, STEP_SEEDS + 1))
    lockstep = {"before": old["optimizer"].spsa_lockstep, "after": spsa_lockstep}
    for dim in STEP_DIMS:
        initial = np.random.default_rng(dim).uniform(-0.1, 0.1, size=(STEP_SEEDS, dim))
        runs = {side: (lambda fn=fn: fn(squares, initial, RunConfig.spsa_iters, seeds))
                for side, fn in lockstep.items()}
        row = _side_by_side(runs, AB_LOOPS)
        for side in runs:
            row[side] = [t * 1e3 for t in row[side]]
        results = {side: run() for side, run in runs.items()}
        row["identical"] = all(
            b.gain == a.gain
            and b.trace.tobytes() == a.trace.tobytes()
            and b.best_params.tobytes() == a.best_params.tobytes()
            for b, a in zip(results["before"], results["after"])
        )
        out["spsa_lockstep_ms"][str(dim)] = row
    return out


def probe_constants() -> dict:
    """The timings behind optimizer.DRAW_BLOCK."""
    import numpy as np
    from cutclust import optimizer

    # per-iteration cost of drawing the sign vectors of 10 seeds of a
    # 30-parameter VQE (cars), by the number of iterations per draw
    seeds, dim = 10, 30
    by_block = {}
    for block in (1, 8, 64, 512):
        rngs = [np.random.default_rng(s) for s in range(seeds)]
        (us,) = _best_us([lambda: optimizer._signs(rngs, block, dim)], 20)
        by_block[str(block)] = us / block
    return {"draw_us_per_iteration_by_block": by_block, "draw_block": optimizer.DRAW_BLOCK}


# driver ----------------------------------------------------------------------

def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_probe(root: Path, name: str, *args: str) -> dict:
    """Run ``probe_<name>(*args)`` of this script in a child whose
    cutclust is the one under ``root``."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        f"import bench_compare; print(json.dumps(bench_compare.probe_{name}(*{args!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
        env=child_env(root / "src"), check=True,
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
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy as np

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def interleaved(sides: dict[str, Path], runs: int):
    """(run, side name, root) for ``runs`` runs of both sides; the side
    that goes first swaps every run, so drift does not favour one."""
    for r in range(runs):
        for side in (sides if r % 2 == 0 else reversed(list(sides))):
            yield r, side, sides[side]


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
    for r, side, root in interleaved(sides, REPEATS):
        for workload in WORKLOADS:
            runs[workload][side].append(perfbench_run(root, workload))
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

    probes: dict = {name: {side: [] for side in sides} for name in ("layers", "steps")}
    for _, side, root in interleaved(sides, PROBE_RUNS):
        for name in probes:
            probes[name][side].append(run_probe(root, name))
            print(f"probe {name} {side} done", file=sys.stderr)

    def fastest(name: str, side: str, *keys: str) -> float:
        def get(p):
            for key in keys:
                p = p[key]
            return p

        return min(get(p) for p in probes[name][side])

    layer_names = list(probes["layers"]["after"][0])
    per_layer = {
        name: {str(n): {side: fastest("layers", side, name, str(n)) for side in sides} for n in QUBITS}
        for name in layer_names
    }

    per_step = {
        kind: {str(d): {side: fastest("steps", side, kind, str(d)) for side in sides} for d in STEP_DIMS}
        for kind in ("spsa_us_per_iteration", "calibration_us_per_probe")
    }

    report = {
        "topic": match.group(1),
        "command": f"python3 benchmarks/bench_compare.py --before DIR --out {args.out.name}",
        "machine": machine(),
        "repeats": REPEATS,
        "statistic": "end_to_end: median and quartiles over repeats of each perfbench/run.py "
        "call's median, after_wins = pairs where after < before; per_layer_us and "
        f"per_step_us: fastest of {PROBE_RUNS} interleaved probe processes, each the best of "
        f"{PROBE_LOOPS} alternating loops; side_by_side: quartiles "
        f"[q1, median, q3] per side over {AB_LOOPS} alternations in one process, after_wins "
        "= loops where after < before",
        "end_to_end": end_to_end,
        "per_layer_us": per_layer,
        "per_step_us": per_step,
        "step_seeds": STEP_SEEDS,
        "side_by_side": run_probe(AFTER, "side_by_side", str(sides["before"] / "src")),
        "constants": run_probe(AFTER, "constants"),
        "batch_rows": BATCH_ROWS,
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
