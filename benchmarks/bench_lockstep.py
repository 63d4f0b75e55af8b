"""Before/after measurements for the row kernels and seed-lockstep SPSA.

    python3 benchmarks/bench_lockstep.py --before DIR [--out BENCH_lockstep.json]

DIR is a checkout of the code to compare against (for example made with
``git clone`` and ``git checkout <commit>``); the "after" side is the
checkout this script lives in.  Two kinds of figure are written:

- end to end: for every workload of ``perfbench/run.py`` and each side,
  REPEATS interleaved runs of ``perfbench/run.py --trace 0``; each
  run's medians of ``wall_s``, ``setup_s`` and ``peak_anon_mb`` are kept
  and their median is reported, with every run's correctness verdict;
- per evaluation: microseconds of one exact-energy evaluation of each
  ansatz at n in {5, 6, 10, 14} on a fixed random graph, as a one-row
  ``make_objective`` call on both sides and, on the after side, per row
  of a lockstep batch of 20 rows (split into chunks of the row cap);
  the fastest of PROBE_RUNS probe processes, alternating sides, each
  keeping the best of PROBE_LOOPS timing loops.  Within a process the
  one-row and batched loops alternate and evaluate the same number of
  points, so neither is favoured by drift or by taking its minimum over
  shorter loops.

Timing uses ``time.perf_counter`` only; every measurement runs in a
fresh process with ``OPENBLAS_NUM_THREADS=1``.  Both source trees are
byte-compiled first, so that neither side pays for compiling a module
whose cached bytecode is missing or stale: that costs set-up time and
peak memory in proportion to the code's size.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

AFTER = Path(__file__).resolve().parent.parent
WORKLOADS = ("cars-default", "wine-ws-deep", "synth14-kernels")
METRICS = ("wall_s", "setup_s", "peak_anon_mb")
QUBITS = (5, 6, 10, 14)
KINDS = ("qaoa", "ws-qaoa", "vqe")
BATCH_ROWS = 20
PROBE_RUNS = 4
PROBE_LOOPS = 7
# interleaved before/after pairs per workload; a gain needs ten to show
REPEATS = 10

# runs in a child with the side's src/ first on sys.path; prints one JSON
# object {kind: {n: {"one_row": us, "batched": us or None}}}
KERNEL_PROBE = r"""
import json, sys, time
import numpy as np
from cutclust import WarmStart, WeightedGraph, ising_from_graph, make_objective

try:
    from cutclust.optimizer import make_ansatz, row_energies
except ImportError:
    make_ansatz = None

def best_us(fns, evals):
    # alternate the timing loops of the functions so drift hits them alike
    times = [[] for _ in fns]
    for _ in range(LOOPS):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
    return [min(ts) / evals * 1e6 for ts in times]

out = {}
for kind in KINDS:
    out[kind] = {}
    for n in QUBITS:
        rng = np.random.default_rng(n)
        w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), k=1)
        ising = ising_from_graph(WeightedGraph(weights=w + w.T))
        warms = [WarmStart.from_cstar(rng.uniform(0.1, 0.9, n)) for _ in range(ROWS)]
        objective, dim = make_objective(kind, ising, warm=warms[0])
        params = rng.uniform(-0.1, 0.1, size=(ROWS, dim))
        batches = max(1, 2**11 // 2**n)
        # both loops evaluate the same batches * ROWS points
        fns = [lambda: [objective(x) for _ in range(batches) for x in params]]
        if make_ansatz is not None:
            prepare, _ = make_ansatz(kind, ising, warm=warms if kind == "ws-qaoa" else None)
            owners = np.arange(ROWS)
            fns.append(lambda: [row_energies(prepare, ising, params, owners) for _ in range(batches)])
        us = best_us(fns, batches * ROWS)
        out[kind][str(n)] = {"one_row": us[0], "batched": us[1] if len(us) > 1 else None}
print(json.dumps(out))
"""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


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


def kernel_probe(root: Path) -> dict:
    code = (
        f"KINDS = {KINDS!r}\nQUBITS = {QUBITS!r}\nROWS = {BATCH_ROWS}\nLOOPS = {PROBE_LOOPS}\n"
        + KERNEL_PROBE
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
        env=child_env(root / "src"), check=True,
    )
    return json.loads(proc.stdout)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--out", type=Path, default=AFTER / "BENCH_lockstep.json")
    args = parser.parse_args()
    sides = {"before": args.before.resolve(), "after": AFTER}
    for root in sides.values():
        compileall.compile_dir(root / "src", quiet=1)

    runs: dict = {w: {side: [] for side in sides} for w in WORKLOADS}
    for r in range(REPEATS):
        for workload in WORKLOADS:
            # alternate which side goes first so drift does not favour one
            for side in (sides if r % 2 == 0 else reversed(list(sides))):
                runs[workload][side].append(perfbench_run(sides[side], workload))
                print(f"repeat {r + 1} {workload} {side}: {runs[workload][side][-1]}", file=sys.stderr)

    end_to_end = {}
    for workload, by_side in runs.items():
        end_to_end[workload] = {}
        for metric in METRICS:
            medians = {side: statistics.median(x[metric] for x in by_side[side]) for side in sides}
            end_to_end[workload][metric] = {
                **medians,
                "after_over_before": medians["after"] / medians["before"],
                "runs": {side: [x[metric] for x in by_side[side]] for side in sides},
            }
        end_to_end[workload]["all_correct"] = all(x["correct"] for s in sides for x in by_side[s])

    probes: dict = {side: [] for side in sides}
    for r in range(PROBE_RUNS):
        for side in (sides if r % 2 == 0 else reversed(list(sides))):
            probes[side].append(kernel_probe(sides[side]))

    def fastest(side: str, kind: str, n: int, key: str) -> float:
        return min(p[kind][str(n)][key] for p in probes[side])

    per_eval = {
        kind: {
            str(n): {
                "before_one_row_us": fastest("before", kind, n, "one_row"),
                "after_one_row_us": fastest("after", kind, n, "one_row"),
                "after_batched_per_row_us": fastest("after", kind, n, "batched"),
            }
            for n in QUBITS
        }
        for kind in KINDS
    }

    report = {
        "topic": "lockstep",
        "command": "python3 benchmarks/bench_lockstep.py --before DIR",
        "machine": machine(),
        "repeats": REPEATS,
        "statistic": "end_to_end: median over repeats of each perfbench/run.py call's median; "
        f"per_eval_us: fastest of {PROBE_RUNS} interleaved probe processes, each the best of "
        f"{PROBE_LOOPS} alternating loops",
        "end_to_end": end_to_end,
        "per_eval_us": per_eval,
        "batch_rows": BATCH_ROWS,
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
