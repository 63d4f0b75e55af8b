"""End-to-end clustering benchmark harness.

Loads a CSV dataset, maps it to a weighted max-cut instance, runs the
requested solvers (exhaustive reference, VQE, QAOA, warm-start QAOA)
over a seed grid, and emits tables plus eigenstate histograms.

Everything in report.json is a pure function of (config, seed): wall
clock timings live in a separate timings.json so the main report is
byte-reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .ansatz import WarmStart
from .errors import ValidationError
from .graph_model import (
    Dataset,
    WeightedGraph,
    bits_from_index,
    cut_value,
    euclidean_weights,
    ising_from_graph,
    qubo_from_graph,
)
from .optimizer import (
    SpsaConfig,
    calibrate_step_gain,
    exact_solve,
    make_ansatz,
    make_objective,
    spsa_minimize,
)
from .relaxation import RelaxConfig, clip_cstar, relax_qubo
from .simulator import RNG_ID, expectation_diagonal, probabilities

ALGORITHMS = ("exact", "vqe", "qaoa", "ws-qaoa")

SCHEMA_VERSION = 1

# behavioural identifiers embedded in every report so downstream readers
# can interpret bitstrings and re-derive states without guessing
CONVENTIONS = {
    "rotation": "R_P(theta) = exp(-i*theta*P/2)",
    "bit_order": (
        "qubit i is bit i of the integer state index (qubit 0 = least "
        "significant); data row i maps to qubit i; displayed bitstrings "
        "are most-significant-first"
    ),
    "rng": RNG_ID,
    "energy": "dimensionless cut weight; E(x) = -cut(x)",
    "ws_mixer": (
        "per-qubit warm-start mixer with Bloch vector "
        "(-2*sqrt(c(1-c)), 0, 2c-1); the R_y(2*arcsin(sqrt(c))) product "
        "state is its -1 eigenstate"
    ),
    "vqe_entanglement": "linear CNOT chain, no entangler after the final rotation layer",
    "objective": "solution objective = cut value of the most probable bitstring",
}


@dataclass(frozen=True)
class RunConfig:
    """Full benchmark configuration.

    ``dataset`` is a filesystem path or the name of a shipped file
    (``cars``, ``wine``).  ``columns=None`` selects every feature column
    in the file.  The per-run seed overrides the seeds inside ``relax``
    and ``spsa``.
    """

    dataset: str
    columns: tuple[str, ...] | None = None
    normalize: bool = True
    algorithm: str = "all"
    p: int = 1
    vqe_reps: int = 5
    shots: int = 4096
    seeds: tuple[int, ...] = tuple(range(1, 11))
    relax: RelaxConfig = field(default_factory=RelaxConfig)
    spsa: SpsaConfig = field(default_factory=SpsaConfig)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS + ("all",):
            raise ValidationError(
                f"algorithm must be one of {ALGORITHMS + ('all',)}, got {self.algorithm!r}"
            )
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        if self.p < 1:
            raise ValidationError(f"p must be >= 1, got {self.p}")
        if self.vqe_reps < 0:
            raise ValidationError(f"vqe_reps must be >= 0, got {self.vqe_reps}")
        if self.shots < 1:
            raise ValidationError(f"shots must be >= 1, got {self.shots}")

    def selected_algorithms(self) -> tuple[str, ...]:
        return ALGORITHMS if self.algorithm == "all" else (self.algorithm,)


def shipped_datasets() -> dict[str, Path]:
    """Name -> path of the CSV files bundled with the package."""
    data_dir = Path(__file__).parent / "data"
    return {p.stem: p for p in sorted(data_dir.glob("*.csv"))}


def resolve_dataset(spec: str) -> Path:
    """Interpret a dataset argument as a path, else as a shipped name."""
    p = Path(spec)
    if p.is_file():
        return p
    shipped = shipped_datasets()
    name = spec.removesuffix(".csv")
    if name in shipped:
        return shipped[name]
    raise ValidationError(
        f"dataset {spec!r} is neither a file nor a shipped name "
        f"(shipped: {', '.join(shipped)})"
    )


def load_dataset(
    path: str | Path,
    columns: tuple[str, ...] | None = None,
    normalize: bool = True,
) -> Dataset:
    """Read a CSV into a Dataset.

    The header row names the columns, each at most once; ``name`` and
    ``label`` are reserved for row identifiers and ground-truth classes
    and are never treated as features.  The feature columns used are
    recorded on the result as ``columns``.  Features are z-scored per
    column when ``normalize`` is set (population std; constant columns
    are centered and left unscaled).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    for i, h in enumerate(header):
        if h in header[:i]:
            raise ValidationError(f"{path}: column {h!r} appears more than once in the header")

    feature_cols = columns if columns is not None else tuple(
        h for h in header if h not in ("name", "label")
    )
    if not feature_cols:
        raise ValidationError(f"{path}: no feature columns")
    for c in feature_cols:
        if c not in header:
            raise ValidationError(
                f"{path}: no column named {c!r} (available: {', '.join(header)})"
            )
        if c in ("name", "label"):
            raise ValidationError(f"{path}: {c!r} is reserved, not a feature column")
    col_idx = {h: i for i, h in enumerate(header)}

    points = np.empty((len(rows), len(feature_cols)))
    names: list[str] = []
    labels: list[int] = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: row {r + 1} has {len(row)} cells, header has {len(header)}"
            )
        for j, c in enumerate(feature_cols):
            cell = row[col_idx[c]].strip()
            try:
                points[r, j] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: non-numeric value {cell!r} at row {r + 1}, column {c!r}"
                ) from None
        if "name" in col_idx:
            names.append(row[col_idx["name"]].strip())
        if "label" in col_idx:
            cell = row[col_idx["label"]].strip()
            if cell not in ("0", "1"):
                raise ValidationError(
                    f"{path}: label must be 0 or 1, got {cell!r} at row {r + 1}"
                )
            labels.append(int(cell))

    if normalize:
        std = points.std(axis=0)
        points = points - points.mean(axis=0)
        points = points / np.where(std > 0, std, 1.0)

    return Dataset(
        points=points,
        labels=tuple(labels) if labels else None,
        names=tuple(names) if names else None,
        columns=tuple(feature_cols),
    )


def assign_clusters(index: int, n: int) -> tuple[int, ...]:
    """Cluster label of each row: bit i of the basis-state index."""
    if not 0 <= index < 2**n:
        raise ValidationError(f"index {index} out of range for {n} qubits")
    return tuple(int(b) for b in bits_from_index(index, n))


def cluster_accuracy(labels, truth) -> float:
    """Fraction of rows assigned to the right cluster, up to a global
    flip of which side is called cluster 1."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.shape != truth.shape:
        raise ValidationError(
            f"labels have shape {labels.shape}, truth has shape {truth.shape}"
        )
    m = int((labels == truth).sum())
    n = labels.size
    return max(m, n - m) / n


def most_probable_index(probs: np.ndarray) -> int:
    """Argmax with deterministic tie-breaking.

    Exact ties between a string and its complement keep the one whose
    qubit-0 bit is 0 (the two label the same clustering); remaining ties
    go to the lowest index.
    """
    top = probs.max()
    ties = np.flatnonzero(probs == top)
    if ties.size > 1:
        mask = probs.size - 1
        tie_set = set(int(t) for t in ties)
        kept = [k for k in tie_set if (k ^ mask) not in tie_set or (k & 1) == 0]
        return min(kept)
    return int(ties[0])


def bitstring_str(index: int, n: int) -> str:
    """MSB-first display form of a basis-state index."""
    return format(index, f"0{n}b")


@dataclass
class RunRecord:
    """One (algorithm, seed) run."""

    algorithm: str
    seed: int
    bitstring_index: int
    labels: tuple[int, ...]
    accuracy: float | None
    energy_expectation: float
    energy_sampled: float
    solution_objective: float
    probabilities: np.ndarray
    params: np.ndarray | None
    calibrated_a: float | None
    evaluations: int
    timings: dict[str, float]

    def bitstring(self) -> str:
        return bitstring_str(self.bitstring_index, int(np.log2(self.probabilities.size)))


def run_algorithm(
    config: RunConfig,
    algorithm: str,
    seed: int,
    dataset: Dataset | None = None,
) -> RunRecord:
    """Execute one solver end to end for one seed.

    Stages and their wall times: graph_build (distances, Hamiltonian),
    relaxation (warm start only), optimization (SPSA, or the exhaustive
    scan for ``exact``), sampling (final-state measurement and scoring).
    The record is reproducible from (config, seed); only the timings
    vary between runs.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    if dataset is None:
        dataset = load_dataset(
            resolve_dataset(config.dataset), config.columns, config.normalize
        )

    timings: dict[str, float] = {}
    stage = "graph_build"
    try:
        t0 = time.perf_counter()
        graph = euclidean_weights(dataset)
        ising = ising_from_graph(graph)
        n = graph.n
        timings["graph_build"] = time.perf_counter() - t0

        stage = "relaxation"
        t0 = time.perf_counter()
        warm = None
        if algorithm == "ws-qaoa":
            qubo = qubo_from_graph(graph)
            relax_cfg = dataclasses.replace(config.relax, seed=seed)
            relaxed = relax_qubo(qubo, relax_cfg)
            warm = WarmStart.from_cstar(clip_cstar(relaxed.c_star, config.relax.epsilon))
        timings["relaxation"] = time.perf_counter() - t0

        stage = "optimization"
        t0 = time.perf_counter()
        params: np.ndarray | None
        calibrated_a: float | None
        if algorithm == "exact":
            sol = exact_solve(ising)
            probs = np.zeros(2**n)
            probs[list(sol.ground_states)] = 1.0 / len(sol.ground_states)
            energy_expectation = sol.ground_energy
            params = None
            calibrated_a = None
            evaluations = 2**n
        else:
            objective, dim = make_objective(
                algorithm, ising, p=config.p, warm=warm, vqe_reps=config.vqe_reps
            )
            init = np.random.default_rng([seed, 1]).uniform(-0.1, 0.1, dim)
            spsa_cfg = dataclasses.replace(config.spsa, seed=seed)
            if spsa_cfg.a is None:
                calibrated_a = calibrate_step_gain(objective, init, spsa_cfg)
                spsa_cfg = dataclasses.replace(spsa_cfg, a=calibrated_a)
            else:
                calibrated_a = None
            result = spsa_minimize(objective, init, spsa_cfg)
            params = result.best_params
            evaluations = result.evaluations
            prepare, _ = make_ansatz(
                algorithm, ising, p=config.p, warm=warm, vqe_reps=config.vqe_reps
            )
            state = prepare(params)
            probs = probabilities(state)
            energy_expectation = expectation_diagonal(state, ising)
        timings["optimization"] = time.perf_counter() - t0

        stage = "sampling"
        t0 = time.perf_counter()
        counts = np.random.default_rng([seed, 2]).multinomial(config.shots, probs)
        energy_sampled = float(counts @ ising.energies) / config.shots
        top = most_probable_index(probs)
        labels = assign_clusters(top, n)
        accuracy = (
            cluster_accuracy(labels, dataset.labels) if dataset.labels is not None else None
        )
        objective_value = cut_value(graph, np.array(labels))
        timings["sampling"] = time.perf_counter() - t0
    except Exception as exc:
        raise RuntimeError(
            f"{algorithm} run (seed {seed}) failed during {stage}: {exc}"
        ) from exc

    return RunRecord(
        algorithm=algorithm,
        seed=seed,
        bitstring_index=top,
        labels=labels,
        accuracy=accuracy,
        energy_expectation=float(energy_expectation),
        energy_sampled=energy_sampled,
        solution_objective=float(objective_value),
        probabilities=probs,
        params=params,
        calibrated_a=calibrated_a,
        evaluations=evaluations,
        timings=timings,
    )


@dataclass
class BenchmarkReport:
    """Aggregated benchmark output.

    ``payload`` is the deterministic section (what report.json holds);
    ``timings`` is the wall-clock section (timings.json).  ``records``
    keeps the in-memory run objects for programmatic use.
    """

    payload: dict[str, Any]
    timings: dict[str, Any]
    records: dict[str, list[RunRecord]] = field(repr=False, default_factory=dict)


def _representative(records: list[RunRecord]) -> RunRecord:
    """The run whose achieved energy is closest to the median; ties go
    to the earliest seed."""
    energies = np.array([r.energy_expectation for r in records])
    med = float(np.median(energies))
    return records[int(np.argmin(np.abs(energies - med)))]


def _run_dict(rec: RunRecord) -> dict[str, Any]:
    return {
        "seed": rec.seed,
        "bitstring": rec.bitstring(),
        "bitstring_index": rec.bitstring_index,
        "labels": list(rec.labels),
        "accuracy": rec.accuracy,
        "energy_expectation": rec.energy_expectation,
        "energy_sampled": rec.energy_sampled,
        "solution_objective": rec.solution_objective,
        "params": None if rec.params is None else [float(v) for v in rec.params],
        "calibrated_a": rec.calibrated_a,
        "evaluations": rec.evaluations,
        "probabilities": [float(v) for v in rec.probabilities],
    }


def run_benchmark(config: RunConfig) -> BenchmarkReport:
    """Run every requested algorithm over every seed and aggregate.

    The exhaustive solution is always computed and included for
    comparison.  A run that raises is recorded under ``failed`` with its
    error message; the report covers whatever completed.
    """
    t_start = time.perf_counter()
    path = resolve_dataset(config.dataset)
    dataset = load_dataset(path, config.columns, config.normalize)
    n = dataset.points.shape[0]

    graph = euclidean_weights(dataset)
    ising = ising_from_graph(graph)
    sol = exact_solve(ising)
    exact_top = most_probable_index(
        np.isin(np.arange(2**n), sol.ground_states).astype(float)
    )
    exact_labels = assign_clusters(exact_top, n)

    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "conventions": dict(CONVENTIONS),
        "config": {
            "dataset": config.dataset,
            "columns": None if config.columns is None else list(config.columns),
            "normalize": config.normalize,
            "algorithm": config.algorithm,
            "p": config.p,
            "vqe_reps": config.vqe_reps,
            "shots": config.shots,
            "seeds": list(config.seeds),
            "relaxation": {
                "restarts": config.relax.restarts,
                "max_iters": config.relax.max_iters,
                "step": config.relax.step,
                "tol": config.relax.tol,
                "epsilon": config.relax.epsilon,
            },
            "spsa": {
                "max_iters": config.spsa.max_iters,
                "a": config.spsa.a,
                "c": config.spsa.c,
                "stability": config.spsa.resolved_stability(),
                "alpha": config.spsa.alpha,
                "gamma": config.spsa.gamma,
            },
        },
        "dataset": {
            "file": path.name,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "n_rows": n,
            "columns": list(dataset.columns),
            "normalize": config.normalize,
            "names": None if dataset.names is None else list(dataset.names),
            "labels": None if dataset.labels is None else list(dataset.labels),
        },
        "exact": {
            "ground_energy": sol.ground_energy,
            "ground_states": [bitstring_str(s, n) for s in sol.ground_states],
            "max_cut": sol.max_cut,
            "bitstring": bitstring_str(exact_top, n),
            "labels": list(exact_labels),
        },
        "algorithms": {},
    }
    timings: dict[str, Any] = {"per_run": {}}
    records: dict[str, list[RunRecord]] = {}

    for algorithm in config.selected_algorithms():
        runs: list[RunRecord] = []
        failed: list[dict[str, Any]] = []
        timings["per_run"][algorithm] = {}
        for seed in config.seeds:
            try:
                rec = run_algorithm(config, algorithm, seed, dataset=dataset)
            except Exception as exc:
                failed.append({"seed": seed, "error": str(exc)})
                continue
            runs.append(rec)
            timings["per_run"][algorithm][str(seed)] = rec.timings
        block: dict[str, Any] = {
            "runs": [_run_dict(r) for r in runs],
            "failed": failed,
        }
        if runs:
            rep = _representative(runs)
            block["median_energy_expectation"] = float(
                np.median([r.energy_expectation for r in runs])
            )
            block["median_energy_sampled"] = float(
                np.median([r.energy_sampled for r in runs])
            )
            block["median_solution_objective"] = float(
                np.median([r.solution_objective for r in runs])
            )
            block["representative_seed"] = rep.seed
        payload["algorithms"][algorithm] = block
        records[algorithm] = runs

    timings["total_s"] = time.perf_counter() - t_start
    return BenchmarkReport(payload=payload, timings=timings, records=records)


def _json_default(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(data: dict, path: Path) -> None:
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _table_rows(report: BenchmarkReport) -> tuple[list[str], list[list[str]]]:
    """Shared layout for table.csv and table.md: one row per dataset
    item with each algorithm's cluster assignment, then the three
    summary rows."""
    payload = report.payload
    ds = payload["dataset"]
    n = ds["n_rows"]
    algos = [a for a in ALGORITHMS if a in payload["algorithms"]]

    header = ["Item", "Label"] + algos
    names = ds["names"] if ds["names"] is not None else [f"row {i}" for i in range(n)]
    truth = ds["labels"]

    columns: dict[str, dict[str, Any]] = {}
    for a in algos:
        block = payload["algorithms"][a]
        if not block["runs"]:
            columns[a] = {"labels": ["-"] * n, "energy": "-", "objective": "-", "time": "-"}
            continue
        rep_seed = block["representative_seed"]
        rep = next(r for r in block["runs"] if r["seed"] == rep_seed)
        stage_times = report.timings["per_run"][a].get(str(rep_seed), {})
        columns[a] = {
            "labels": [str(v) for v in rep["labels"]],
            "energy": repr(rep["energy_expectation"]),
            "objective": repr(rep["solution_objective"]),
            "time": repr(sum(stage_times.values())) if stage_times else "-",
        }

    rows = []
    for i in range(n):
        truth_cell = str(truth[i]) if truth is not None else ""
        rows.append([names[i], truth_cell] + [columns[a]["labels"][i] for a in algos])
    rows.append(["Energy (Ha)", ""] + [columns[a]["energy"] for a in algos])
    rows.append(["Solution Objective", ""] + [columns[a]["objective"] for a in algos])
    rows.append(["Process time (s)", ""] + [columns[a]["time"] for a in algos])
    return header, rows


def emit_report(
    report: BenchmarkReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = ("json", "csv", "md"),
) -> list[Path]:
    """Write the report files and return their paths.

    json: report.json (deterministic) and timings.json (wall clock).
    csv: table.csv plus one histogram_<algo>.csv per algorithm, holding
    the representative run's final probabilities sorted by state index.
    md: table.md.
    """
    known = {"json", "csv", "md"}
    bad = set(formats) - known
    if bad:
        raise ValidationError(f"unknown formats {sorted(bad)}; choose from {sorted(known)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if "json" in formats:
        _dump_json(report.payload, out / "report.json")
        _dump_json(report.timings, out / "timings.json")
        written += [out / "report.json", out / "timings.json"]

    header, rows = _table_rows(report)

    if "csv" in formats:
        table = out / "table.csv"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(table)
        for a, block in report.payload["algorithms"].items():
            if not block["runs"]:
                continue
            rep = next(
                r for r in block["runs"] if r["seed"] == block["representative_seed"]
            )
            probs = rep["probabilities"]
            n = report.payload["dataset"]["n_rows"]
            hist = out / f"histogram_{a}.csv"
            with open(hist, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["bitstring", "probability"])
                for k, pk in enumerate(probs):
                    writer.writerow([bitstring_str(k, n), repr(pk)])
            written.append(hist)

    if "md" in formats:
        md = out / "table.md"
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append(
            "Energies are dimensionless cut weights; the (Ha) row label "
            "only mirrors the conventional table layout."
        )
        md.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(md)

    return written
