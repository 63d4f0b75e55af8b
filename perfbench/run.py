"""cutclust benchmark: time to solution, set-up cost and a layer trace.

    python3 perfbench/run.py --workload cars-default --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every metric, every workload

Each repeat is a fresh child process (child.py) acting as one
closed-loop caller: a single ``cutclust.cli.main`` call with the
workload's ``bench run`` argv, with BLAS pinned to one thread.  Repeats
continue while the next one would end within ``--seconds`` (at least
MIN_REPEATS), each preceded by a set-up-only child.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json from untraced
children; ``--trace 1`` pairs every untraced child with a traced one
and reports the per-layer metrics.  Every report.json is checked
against the golden reference and a brute-force max cut (check.py).  The
last line of stdout is one JSON object; the exit code is 1 if any check
failed and 2 if nothing could be measured.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
from workloads import WORKLOADS, Workload, prepare_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden"
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150

STAGES = ("graph_build", "relaxation", "optimization", "sampling")
VARIATIONAL = ("vqe", "qaoa", "ws-qaoa")
GATES = ("simulator.apply_1q", "simulator.apply_cnot", "simulator.apply_diagonal_phase")
# per-layer metric -> traced span or counter it is read from
SPAN_METRICS = {
    "simulator.apply_1q": ("calls", "self_s", "bytes"),
    "simulator.apply_cnot": ("calls", "self_s", "bytes"),
    "simulator.apply_diagonal_phase": ("calls", "self_s", "bytes"),
    "simulator.expectation_diagonal": ("calls", "self_s", "bytes"),
    "simulator.new_state": ("calls", "self_s", "bytes"),
    "ansatz.ws_mixer_unitary": ("calls", "self_s"),
    "ansatz.gate_ctors": ("calls", "self_s"),
    "ansatz.build_qaoa_state": ("self_s",),
    "ansatz.build_ws_qaoa_state": ("self_s",),
    "ansatz.build_vqe_state": ("self_s",),
    "relaxation.relax_qubo": ("self_s",),
    "graph_model.euclidean_weights": ("calls", "self_s"),
    "graph_model.ising_from_graph": ("calls", "self_s"),
    "bench.load_dataset": ("self_s",),
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(mode: str, workload: Workload, seed: int, work_dir: Path) -> dict:
    """Run one child process in work_dir and return its measurements,
    plus the report.json bytes and timings.json it wrote."""
    out = work_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    spec = {
        "mode": mode,
        "dataset": workload.input_name(seed),
        "argv": workload.program_argv(seed, "out"),
        "result": "result.json",
    }
    (work_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (work_dir / "result.json").unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "spec.json"],
            cwd=work_dir,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((work_dir / "result.json").read_text(encoding="utf-8"))
    if not Path(result["env"]["cutclust"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"child imported cutclust from {result['env']['cutclust']}, not {SRC}")
    if mode != "setup":
        report = out / "report.json"
        result["report_bytes"] = report.read_bytes() if report.is_file() else None
        timings = out / "timings.json"
        result["timings"] = json.loads(timings.read_text()) if timings.is_file() else None
        result["stderr"] = proc.stderr
    return result


def load_golden(workload: Workload, seed: int, text: str) -> dict:
    path = GOLDEN / f"{workload.name}.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    if golden["argv"] != list(workload.argv):
        raise BenchError(f"{path} was recorded for argv {golden['argv']}, not {list(workload.argv)}")
    ref = golden["instances"][workload.golden_key(seed)]
    sha = hashlib.sha256(text.encode()).hexdigest()
    if sha != ref["input_sha256"]:
        raise BenchError(f"input sha256 {sha} differs from the golden input {ref['input_sha256']}")
    return ref


class Gate:
    """Correctness state of one workload run: every report is checked."""

    def __init__(self, golden: dict, text: str):
        self.golden = golden
        self.weights = check.csv_weights(text)
        self.best, self.states = check.brute_force_max_cut(self.weights)
        self.first_bytes: bytes | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, child: dict) -> dict | None:
        """Count the items of one repeat and record those that fail;
        returns the parsed report, if there is one."""
        items = len(self.golden["runs"]) + 1  # every run, plus the exact block
        self.attempted += items
        data = child["report_bytes"]
        if data is None:
            self.failures += [f"no report.json (exit {child['rc']}): {child['stderr'][-500:]}"] * items
            return None
        report = json.loads(data)
        failures = check.compare_golden(report, self.golden)
        failures.update(check.compare_brute_force(report, self.weights, self.best, self.states))
        for algorithm, block in report["algorithms"].items():
            for f in block["failed"]:
                failures[check.run_key(algorithm, f["seed"])] = f["error"]
        messages = [f"{k}: {v}" for k, v in failures.items()]
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            # a nondeterministic report counts against every item of the repeat
            messages = ["report.json is not byte-identical to the first repeat's"] * items
        self.failures += messages[:items]
        return report


def _median(values):
    return statistics.median(values) if values else 0.0


def solve_times(timings: dict) -> dict[str, list[float]]:
    """Wall seconds of each (algorithm, seed) run, from timings.json."""
    return {
        algo: [sum(stages.values()) for stages in runs.values()]
        for algo, runs in timings["per_run"].items()
    }


def stage_totals(timings: dict) -> dict[str, float]:
    totals = dict.fromkeys(STAGES, 0.0)
    for runs in timings["per_run"].values():
        for stages in runs.values():
            for stage, seconds in stages.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


def quality(report: dict, gate: Gate) -> dict[str, float]:
    ground = report["exact"]["ground_energy"]
    metrics = {}
    for algo in VARIATIONAL:
        block = report["algorithms"].get(algo)
        ratio = block["median_energy_expectation"] / ground if block and block["runs"] else 0.0
        metrics[f"approx_ratio.{algo}"] = ratio
    optimal, runs = check.optimal_share(report, gate.states)
    metrics["optimal_rate"] = optimal / runs if runs else 0.0
    return metrics


def trace_metrics(traces: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from traced children: counts from the first
    (they repeat exactly), times as medians over all of them."""

    def med(get):
        return _median([get(t) for t in traces])

    def span(t, name, field):
        return t["spans"].get(name, {}).get(field, 0)

    first = traces[0]
    metrics: dict[str, float] = {}
    for name, fields in SPAN_METRICS.items():
        for field in fields:
            if field == "self_s":
                metrics[f"{name}.self_s"] = med(lambda t: span(t, name, "self_s"))
            else:
                metrics[f"{name}.{field}"] = span(first, name, field)
    metrics["simulator.statevectors"] = first["counts"].get("simulator.statevectors", 0)
    metrics["relaxation.qubo_evals"] = first["counts"].get("relaxation.qubo_evals", 0)
    evals = span(first, "optimizer.objective", "calls")
    metrics["optimizer.evals"] = evals
    gates = sum(first["in_objective"].get(g, 0) for g in GATES)
    metrics["ansatz.gates_per_eval"] = gates / evals if evals else 0.0
    for algo in VARIATIONAL:
        for q in ("p50", "p99"):
            metrics[f"optimizer.eval_us.{algo}.{q}"] = med(
                lambda t: t["samples"].get(f"eval.{algo}", {}).get(f"{q}_us", 0.0)
            )
    metrics["optimizer.spsa_self_s"] = med(lambda t: span(t, "optimizer.spsa_minimize", "self_s"))
    metrics["bench.emit_report.s"] = med(lambda t: span(t, "bench.emit_report", "total_s"))
    metrics["bench.emit_report.bytes"] = span(first, "bench.emit_report", "bytes")
    repeat = all(
        t["spans"].get(k, {}).get("calls") == v["calls"]
        for t in traces for k, v in first["spans"].items()
    )
    notes = [f"absent (target removed): {p}" for p in first["absent"]]
    if not repeat:
        notes.append("traced call counts differ between repeats")
    return metrics, notes


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its metrics, samples and gate."""
    work_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    text = prepare_input(workload, seed, work_dir, SRC)
    gate = Gate(load_golden(workload, seed, text), text)

    setups, ref, untraced, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.append(run_child("setup", workload, seed, work_dir)["setup_s"])
        for mode, bucket in (("run", untraced), ("trace", traced))[: 1 + trace]:
            child = run_child(mode, workload, seed, work_dir)
            child["report"] = gate.check(child)
            setups.append(child["setup_s"])
            ref.append(child["ref_s"])
            bucket.append(child)
        # stop before a round that would end past the time budget
        now = time.perf_counter()
        enough = len(untraced) >= (1 if trace else MIN_REPEATS)
        if enough and 2 * now - round_start - start > seconds:
            break
    shutil.rmtree(work_dir / "out", ignore_errors=True)

    per_seed: dict[str, list[float]] = {}
    stages: dict[str, list[float]] = {s: [] for s in STAGES}
    for child in untraced:
        if child["timings"] is None:
            continue
        for algo, times in solve_times(child["timings"]).items():
            per_seed.setdefault(algo, []).extend(times)
        for stage, total in stage_totals(child["timings"]).items():
            stages.setdefault(stage, []).append(total)
    solve = {a: per_seed[a] for a in VARIATIONAL if per_seed.get(a)}
    wall = [c["wall_s"] for c in untraced]
    metrics = {
        "wall_s": _median(wall),
        "setup_s": _median(setups),
        "peak_anon_mb": _median([c["peak_anon_mb"] for c in untraced]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
        "machine.ref_s": _median(ref),
        "env.src_lines": src_lines(),
        "failed_rate": len(gate.failures) / gate.attempted,
    }
    for algo in VARIATIONAL:
        metrics[f"solve_s.{algo}"] = _median(solve.get(algo, []))
    for stage, totals in stages.items():
        metrics[f"bench.stage.{stage}.s"] = _median(totals)
    report = next((c["report"] for c in untraced if c["report"] is not None), None)
    if report is not None:
        metrics.update(quality(report, gate))
    notes = []
    if traced:
        layer, notes = trace_metrics([c["trace"] for c in traced])
        metrics.update(layer)
        metrics["trace.overhead_s"] = _median([c["wall_s"] for c in traced]) - metrics["wall_s"]
    raw = {"wall_s": wall, "setup_s": setups, "ref_s": ref, "solve_s": per_seed,
           "traced_wall_s": [c["wall_s"] for c in traced]}
    (work_dir / "samples.json").write_text(json.dumps(raw), encoding="utf-8")
    samples = {
        "wall_s": f"median of {len(wall)}",
        "setup_s": f"median of {len(setups)}",
        "peak_anon_mb": f"median of {len(untraced)}",
        "peak_rss_mb": f"median of {len(untraced)}",
    }
    for algo, v in solve.items():
        samples[f"solve_s.{algo}"] = f"median of {len(v)}"
        # the highest percentile with at least ten samples above it
        q = 100 * (1 - 10 / len(v))
        if q > 50:
            samples[f"solve_s.{algo}"] += f"; p{q:.0f} {np.percentile(v, q):.4g} s"
    env = untraced[0]["env"]
    return {
        "metrics": metrics,
        "samples": samples,
        "gate": gate,
        "notes": notes,
        "env": {
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": env["numpy"],
            "blas": env["blas"],
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
            "repeats": len(untraced),
            "traced_repeats": len(traced),
        },
    }


def print_table(name: str, seed: int, result: dict, specs: list[dict]) -> None:
    env = result["env"]
    print(f"# {name}  seed {seed}  repeats {env['repeats']} untraced, {env['traced_repeats']} traced"
          "  (closed loop, 1 caller)")
    print(f"# cpu {env['cpu']}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}")
    metrics = result["metrics"]
    for spec in specs:
        value = metrics.get(spec["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        stat = result["samples"].get(spec["name"], "")
        print(f"{spec['name']:40s} {shown:>14s} {spec['unit']:10s} {spec['better']} is better  {stat}")
    for note in result["notes"]:
        print(f"note: {note}")
    gate = result["gate"]
    print(f"correctness: {gate.attempted} items checked, {len(gate.failures)} failed")
    for failure in gate.failures[:20]:
        print(f"  FAIL {failure}")


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cutclust" / "__init__.py").is_file():
        print(f"error: no cutclust sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # --trace 1 also measures untraced children, so it can print both sets
    specs = manifest["end_to_end"] + (manifest["per_layer"] if args.trace else [])
    reported = manifest["per_layer"] if args.trace else manifest["end_to_end"]

    out_metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print_table(name, args.seed, result, specs)
            attempted += result["gate"].attempted
            failed += len(result["gate"].failures)
            prefix = "" if len(names) == 1 else f"{name}:"
            for spec in reported:
                out_metrics[prefix + spec["name"]] = {
                    "value": result["metrics"].get(spec["name"], 0.0),
                    "unit": spec["unit"],
                }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
