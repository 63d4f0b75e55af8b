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
import hashlib
import json
import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from . import optimizer, relaxation
from .ansatz import WarmStart
from .errors import ValidationError
from .graph_model import (
    QUBIT_CAP,
    Dataset,
    IsingDiagonal,
    WeightedGraph,
    bits_from_index,
    cut_value,
    euclidean_weights,
    ising_from_graph,
    qubo_from_graph,
)
from .optimizer import (
    ExactSolution,
    exact_solve,
    make_ansatz,
    row_energies,
    row_probabilities,
    spsa_lockstep,
)
from .relaxation import RelaxConfig, clip_cstar, relax_qubo
from .simulator import RNG_ID, draw_counts, expectation_rows

ALGORITHMS = ("exact", "vqe", "qaoa", "ws-qaoa")
FORMATS = ("json", "csv", "md")

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
    """Full benchmark configuration: the settings of ``bench run``.

    ``dataset`` is a filesystem path or the name of a shipped file
    (``cars``, ``wine``).  ``columns=None`` selects every feature column
    in the file.  ``epsilon`` is the warm-start clipping bound and
    ``spsa_iters`` the SPSA budget; each seed's gain is calibrated, and
    the rest of SPSA's schedule and the relaxation's budget are constants.
    """

    dataset: str
    columns: tuple[str, ...] | None = None
    normalize: bool = True
    algorithm: str = "all"
    p: int = 1
    vqe_reps: int = 5
    shots: int = 4096
    seeds: tuple[int, ...] = tuple(range(1, 11))
    epsilon: float = 0.1
    spsa_iters: int = 250

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS + ("all",):
            raise ValidationError(
                f"algorithm must be one of {ALGORITHMS + ('all',)}, got {self.algorithm!r}"
            )
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        # a float count would be truncated in one place and divided by in
        # another, and a bool seed would be written to the report as true
        counts = {"p": self.p, "vqe_reps": self.vqe_reps, "shots": self.shots,
                  "spsa_iters": self.spsa_iters}
        counts.update((f"seeds[{i}]", seed) for i, seed in enumerate(self.seeds))
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for i, seed in enumerate(self.seeds):
            # numpy's generators take only non-negative seeds; one bad seed
            # would fail every seed that advances beside it
            if seed < 0:
                raise ValidationError(f"seed {seed} must be >= 0")
            if seed in self.seeds[:i]:
                raise ValidationError(f"seed {seed} appears more than once in seeds")
        if self.p < 1:
            raise ValidationError(f"p must be >= 1, got {self.p}")
        if self.vqe_reps < 0:
            raise ValidationError(f"vqe_reps must be >= 0, got {self.vqe_reps}")
        if self.shots < 1:
            raise ValidationError(f"shots must be >= 1, got {self.shots}")
        # the sampler draws its counts as int64
        if self.shots > np.iinfo(np.int64).max:
            raise ValidationError(
                f"shots must be <= {np.iinfo(np.int64).max} (the int64 limit), got {self.shots}"
            )
        # epsilon = 0 would leave binary entries that the warm-start mixer
        # rejects, so every ws-QAOA run would fail after the relaxation
        if not 0.0 < self.epsilon < 0.5:
            raise ValidationError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if self.spsa_iters < 1:
            raise ValidationError(f"spsa_iters must be >= 1, got {self.spsa_iters}")

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
    are centered and left unscaled); a column whose mean or std
    overflows float64 is rejected.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark spreadsheets write before the header
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ValidationError(f"{path}: not UTF-8 text (byte 0x{bad:02x}: {exc.reason})") from None
    if header is None:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in header]
    for i, h in enumerate(header):
        if h in header[:i]:
            raise ValidationError(f"{path}: column {h!r} appears more than once in the header")

    feature_cols = columns if columns is not None else tuple(
        h for h in header if h not in ("name", "label")
    )
    if not feature_cols:
        raise ValidationError(f"{path}: no feature columns")
    for i, c in enumerate(feature_cols):
        if c in feature_cols[:i]:
            raise ValidationError(f"{path}: column {c!r} is selected more than once")
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
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: non-numeric value {cell!r} at row {r + 1}, column {c!r}"
                ) from None
            # checked here: z-scoring would spread a NaN over its column
            if not math.isfinite(value):
                raise ValidationError(
                    f"{path}: non-finite value {cell!r} at row {r + 1}, column {c!r}"
                )
            points[r, j] = value
        if "name" in col_idx:
            names.append(row[col_idx["name"]].strip())
        if "label" in col_idx:
            cell = row[col_idx["label"]].strip()
            if cell not in ("0", "1"):
                raise ValidationError(
                    f"{path}: label must be 0 or 1, got {cell!r} at row {r + 1}"
                )
            labels.append(int(cell))

    # checked here: z-scoring fewer than 2 rows warns before Dataset rejects them
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(rows)}")
    if normalize:
        # a column too large for float64 would z-score to zeros or to
        # non-finite values; it is named here, without numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            mean = points.mean(axis=0)
            std = points.std(axis=0)
        for j in np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std))):
            raise ValidationError(
                f"{path}: column {feature_cols[j]!r} overflows float64 when z-scored "
                f"(mean {mean[j]}, std {std[j]})"
            )
        points = (points - mean) / np.where(std > 0, std, 1.0)

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


@dataclass(frozen=True)
class Problem:
    """The max-cut instance of a dataset, built once and shared by every
    run: the distance graph, its Ising diagonal and the exact solution."""

    dataset: Dataset
    graph: WeightedGraph
    ising: IsingDiagonal
    solution: ExactSolution


def build_problem(dataset: Dataset) -> Problem:
    graph = euclidean_weights(dataset)
    ising = ising_from_graph(graph)
    return Problem(dataset=dataset, graph=graph, ising=ising, solution=exact_solve(ising))


def _load_problem(config: RunConfig) -> tuple[Path, Problem, float]:
    """The dataset file of ``config`` and its problem, with the seconds the
    build took: the one load path of :func:`run_benchmark` and
    :func:`run_algorithm`.  A file over the qubit cap is rejected before
    any distance is computed, and every invalid input fails as a
    ``ValidationError`` naming the file."""
    path = resolve_dataset(config.dataset)
    dataset = load_dataset(path, config.columns, config.normalize)
    if dataset.n > QUBIT_CAP:
        raise ValidationError(f"{path}: {dataset.n} data rows exceed the cap of {QUBIT_CAP} qubits")
    t0 = time.perf_counter()
    try:
        problem = build_problem(dataset)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return path, problem, time.perf_counter() - t0


def _stage_error(algorithm: str, seed: int, stage: str, exc: Exception) -> RuntimeError:
    err = RuntimeError(f"{algorithm} run (seed {seed}) failed during {stage}: {exc}")
    err.__cause__ = exc
    return err


def _warm_starts(
    config: RunConfig, problem: Problem, seeds: tuple[int, ...], timings: dict
) -> dict[int, WarmStart | Exception]:
    """Relaxation stage of each ws-QAOA seed: the clipped box-relaxed cut."""
    qubo = qubo_from_graph(problem.graph)
    # seeds fewer than RelaxConfig.restarts apart share restarts; each
    # distinct start is ascended once, in the run of the first seed using it
    ascents: dict[int, tuple] = {}
    warms: dict[int, WarmStart | Exception] = {}
    for seed in seeds:
        t0 = time.perf_counter()
        try:
            relaxed = relax_qubo(qubo, RelaxConfig(seed=seed), ascents)
            warms[seed] = WarmStart(clip_cstar(relaxed.c_star, config.epsilon))
        except Exception as exc:
            warms[seed] = _stage_error("ws-qaoa", seed, "relaxation", exc)
        timings[seed]["relaxation"] = time.perf_counter() - t0
    return warms


def _optimize(
    config: RunConfig,
    algorithm: str,
    problem: Problem,
    seeds: tuple[int, ...],
    warms: dict[int, WarmStart],
) -> list[dict[str, Any] | Exception]:
    """Optimization stage of every seed at once.

    Returns, per seed, the error that ended it or the fields of its
    RunRecord that this stage sets.  All seeds of a variational algorithm
    advance through SPSA together; seed s starts from
    ``default_rng([s, 1])`` and keeps its own streams, gain and best
    point, so its result equals a run on its own.  Each seed's gain is
    calibrated first.  The final states are prepared as one batch too.
    """
    ising = problem.ising
    if algorithm == "exact":
        sol = problem.solution
        probs = np.zeros(2**ising.n)
        probs[list(sol.ground_states)] = 1.0 / len(sol.ground_states)
        exact = {
            "probabilities": probs,
            "energy_expectation": sol.ground_energy,
            "params": None,
            "calibrated_a": None,
            "evaluations": 2**ising.n,
        }
        return [exact] * len(seeds)
    if not seeds:
        return []

    warm = [warms[s] for s in seeds] if algorithm == "ws-qaoa" else None
    prepare, dim = make_ansatz(algorithm, ising, p=config.p, warm=warm, vqe_reps=config.vqe_reps)
    objective = partial(row_energies, prepare, ising)
    initial = np.array([np.random.default_rng([seed, 1]).uniform(-0.1, 0.1, dim) for seed in seeds])
    outcomes: list[Any] = spsa_lockstep(objective, initial, config.spsa_iters, seeds)

    done = np.array([s for s, r in enumerate(outcomes) if not isinstance(r, Exception)], dtype=int)
    if not done.size:
        return outcomes
    best = np.array([outcomes[s].best_params for s in done])
    probs = np.concatenate(list(row_probabilities(prepare, best, done, ising.n)))
    for s, p, e in zip(done, probs, expectation_rows(probs, ising.energies)):
        outcomes[s] = {
            "probabilities": p,
            "energy_expectation": float(e),
            "params": outcomes[s].best_params,
            "calibrated_a": outcomes[s].gain,
            "evaluations": outcomes[s].evaluations,
        }
    return outcomes


def sample_run(
    config: RunConfig,
    algorithm: str,
    seed: int,
    problem: Problem,
    final: dict[str, Any],
    timings: dict[str, float],
) -> RunRecord:
    """Sampling stage of one run: measure the final state, score the most
    probable bitstring and assemble the record with the fields ``final``
    of the optimization stage."""
    t0 = time.perf_counter()
    try:
        probs = final["probabilities"]
        counts = draw_counts(probs, config.shots, [seed, 2])
        weights = counts[None].astype(float)
        energy_sampled = float(expectation_rows(weights, problem.ising.energies)[0]) / config.shots
        top = most_probable_index(probs)
        labels = assign_clusters(top, problem.ising.n)
        truth = problem.dataset.labels
        accuracy = cluster_accuracy(labels, truth) if truth is not None else None
        objective_value = cut_value(problem.graph, np.array(labels))
    except Exception as exc:
        raise _stage_error(algorithm, seed, "sampling", exc) from exc
    timings["sampling"] = time.perf_counter() - t0

    return RunRecord(
        algorithm=algorithm,
        seed=seed,
        bitstring_index=top,
        labels=labels,
        accuracy=accuracy,
        energy_sampled=energy_sampled,
        solution_objective=float(objective_value),
        timings=timings,
        **final,
    )


def run_seeds(
    config: RunConfig,
    algorithm: str,
    problem: Problem,
    seeds: tuple[int, ...],
    graph_build_s: float = 0.0,
) -> list[RunRecord | Exception]:
    """Run one solver for every seed, all seeds advancing together.

    Returns one record, or the exception that ended the run, per seed.
    Each record's timings hold its stages: graph_build (``graph_build_s``,
    the run's share of building ``problem``), relaxation (warm start
    only), optimization and sampling.  The optimization stage runs once
    for the whole batch, so its time is split evenly across the seeds.
    A record is reproducible from (config, seed); only the timings vary
    between runs.
    """
    timings = {seed: {"graph_build": graph_build_s, "relaxation": 0.0} for seed in seeds}
    outcomes: dict[int, Any] = {}
    warms: dict[int, Any] = {}
    if algorithm == "ws-qaoa":
        warms = _warm_starts(config, problem, seeds, timings)
        outcomes = {s: w for s, w in warms.items() if isinstance(w, Exception)}
    live = tuple(s for s in seeds if s not in outcomes)

    t0 = time.perf_counter()
    try:
        finals = _optimize(config, algorithm, problem, live, warms)
    except Exception as exc:
        finals = [exc] * len(live)
    share = (time.perf_counter() - t0) / max(len(live), 1)

    for seed, final in zip(live, finals):
        if isinstance(final, Exception):
            outcomes[seed] = _stage_error(algorithm, seed, "optimization", final)
            continue
        timings[seed]["optimization"] = share
        try:
            outcomes[seed] = sample_run(config, algorithm, seed, problem, final, timings[seed])
        except Exception as exc:
            outcomes[seed] = exc
    return [outcomes[seed] for seed in seeds]


def run_algorithm(config: RunConfig, algorithm: str, seed: int) -> RunRecord:
    """Execute one solver end to end for one seed: a one-seed
    :func:`run_seeds` on a problem built for it (its graph_build stage)."""
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    _, problem, build_s = _load_problem(config)
    (outcome,) = run_seeds(config, algorithm, problem, (seed,), build_s)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class BenchmarkReport:
    """Aggregated benchmark output.

    ``payload`` is the deterministic section (what report.json holds);
    ``timings`` is the wall-clock section (timings.json).
    """

    payload: dict[str, Any]
    timings: dict[str, Any]


def _median(values) -> float:
    """The median as ``np.median`` computes it: the middle value, or the
    mean of the two middle values for an even count.  ``np.median``
    imports ``numpy.ma`` on its first call, which nothing else here needs."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def _representative(records: list[RunRecord]) -> RunRecord:
    """The run whose achieved energy is closest to the median; ties go
    to the earliest seed."""
    energies = np.array([r.energy_expectation for r in records])
    med = _median(energies)
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
        "params": None if rec.params is None else rec.params.tolist(),
        "calibrated_a": rec.calibrated_a,
        "evaluations": rec.evaluations,
        "probabilities": rec.probabilities.tolist(),
    }


def run_benchmark(config: RunConfig) -> BenchmarkReport:
    """Run every requested algorithm over every seed and aggregate.

    The exhaustive solution is always computed and included for
    comparison.  A run that raises is recorded under ``failed`` with its
    error message; the report covers whatever completed.
    """
    t_start = time.perf_counter()
    path, problem, build_s = _load_problem(config)
    dataset = problem.dataset
    n = dataset.n
    algorithms = config.selected_algorithms()
    # every run shares the one build; each is charged an equal part
    graph_build_s = build_s / (len(algorithms) * len(config.seeds))
    sol = problem.solution
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
                "restarts": RelaxConfig.restarts,
                "max_iters": relaxation.MAX_ITERS,
                "step": relaxation.STEP,
                "tol": relaxation.TOL,
                "epsilon": config.epsilon,
            },
            "spsa": {
                "max_iters": config.spsa_iters,
                "a": None,
                "c": optimizer.C,
                "stability": optimizer.stability(config.spsa_iters),
                "alpha": optimizer.ALPHA,
                "gamma": optimizer.GAMMA,
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

    for algorithm in algorithms:
        runs: list[RunRecord] = []
        failed: list[dict[str, Any]] = []
        timings["per_run"][algorithm] = {}
        outcomes = run_seeds(config, algorithm, problem, config.seeds, graph_build_s)
        for seed, rec in zip(config.seeds, outcomes):
            if isinstance(rec, Exception):
                failed.append({"seed": seed, "error": str(rec)})
                continue
            runs.append(rec)
            timings["per_run"][algorithm][str(seed)] = rec.timings
        block: dict[str, Any] = {
            "runs": [_run_dict(r) for r in runs],
            "failed": failed,
        }
        if runs:
            rep = _representative(runs)
            block["median_energy_expectation"] = _median(r.energy_expectation for r in runs)
            block["median_energy_sampled"] = _median(r.energy_sampled for r in runs)
            block["median_solution_objective"] = _median(r.solution_objective for r in runs)
            block["representative_seed"] = rep.seed
        payload["algorithms"][algorithm] = block

    timings["total_s"] = time.perf_counter() - t_start
    return BenchmarkReport(payload=payload, timings=timings)


def _json_default(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(fh, obj: Any, level: int = 0) -> None:
    """Write ``obj`` to ``fh`` exactly as ``json.dumps(obj, indent=2,
    sort_keys=True, default=_json_default)`` formats it, in pieces, for
    what reports hold: dicts with string keys, lists, tuples, strings,
    numbers (numpy scalars too), booleans and None.  A key that is not a
    string raises ``TypeError``.

    With an indent, ``json.dumps`` runs the pure-Python encoder and holds
    every piece of the document at once; here a list of floats goes
    through the C encoder in one call and is split onto its lines, and
    the rest is written as it is walked."""
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key)}")
            fh.write(sep + pad + json.dumps(key) + ": ")
            _write_json(fh, obj[key], level + 1)
            sep = ","
        fh.write(pad[:-2] + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        if all(type(v) is float for v in obj):
            # a float's repr holds no ", ", so the separators split it; the
            # brackets go in their own writes, which saves a copy of the text
            fh.write("[" + pad)
            fh.write(json.dumps(obj)[1:-1].replace(", ", "," + pad))
            fh.write(pad[:-2] + "]")
            return
        sep = "["
        for v in obj:
            fh.write(sep + pad)
            _write_json(fh, v, level + 1)
            sep = ","
        fh.write(pad[:-2] + "]")
    else:
        fh.write(json.dumps(obj, default=_json_default))


def _dump_json(data: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, data)
        fh.write("\n")


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


def check_formats(formats: tuple[str, ...]) -> None:
    """Reject a report format outside FORMATS, naming it."""
    bad = set(formats) - set(FORMATS)
    if bad:
        raise ValidationError(f"unknown formats {sorted(bad)}; choose from {sorted(FORMATS)}")


def emit_report(
    report: BenchmarkReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = FORMATS,
) -> list[Path]:
    """Write the report files and return their paths.

    json: report.json (deterministic) and timings.json (wall clock).
    csv: table.csv plus one histogram_<algo>.csv per algorithm, holding
    the representative run's final probabilities sorted by state index.
    md: table.md.
    """
    check_formats(formats)
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
        n = report.payload["dataset"]["n_rows"]
        bitstrings = [bitstring_str(k, n) for k in range(2**n)]
        for a, block in report.payload["algorithms"].items():
            if not block["runs"]:
                continue
            rep = next(
                r for r in block["runs"] if r["seed"] == block["representative_seed"]
            )
            hist = out / f"histogram_{a}.csv"
            # the rows csv.writer would write: no field needs quoting
            with open(hist, "w", newline="", encoding="utf-8") as fh:
                fh.write("bitstring,probability\r\n")
                fh.writelines(map("{},{!r}\r\n".format, bitstrings, rep["probabilities"]))
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
