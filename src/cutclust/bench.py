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
import numbers
import operator
import os
import pickle
import resource
import signal
import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import optimizer, relaxation
from .ansatz import WarmStart
from .errors import ValidationError, check_count
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
from .relaxation import clip_cstar, relax_qubo
from .simulator import RNG_ID, draw_counts, expectation_rows, row_cap

ALGORITHMS = ("exact", "vqe", "qaoa", "ws-qaoa")
FORMATS = ("json", "csv", "md")

SCHEMA_VERSION = 1

# floats per piece when report.json and the histograms write a probability
# vector, so that no whole-vector list or string is built
CHUNK = 1024

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

    ``dataset`` is a filesystem path (a ``str`` or ``os.PathLike``, kept
    as a ``str``) or the name of a shipped file (``cars``, ``wine``).
    ``columns`` is a tuple of column names, or ``None`` for every feature
    column in the file.  ``epsilon`` is the warm-start clipping bound and
    ``spsa_iters`` the SPSA budget; each seed's gain is calibrated, and
    the rest of SPSA's schedule and the relaxation's budget are constants.

    Counts and seeds must be integers, not bools: a float count would be
    truncated in one place and divided by in another, and a bool seed
    written to the report as ``true``.  A negative seed, which numpy's
    generators refuse, would fail every seed that advances beside it.
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
        # a wrong type would fail late or be echoed into report.json as given
        dataset = os.fspath(self.dataset) if isinstance(self.dataset, (str, os.PathLike)) else None
        if not isinstance(dataset, str):
            raise ValidationError(f"dataset must be a str or os.PathLike, got {self.dataset!r}")
        object.__setattr__(self, "dataset", dataset)
        if self.columns is not None and not (
            isinstance(self.columns, tuple) and all(isinstance(c, str) for c in self.columns)
        ):
            raise ValidationError(f"columns must be None or a tuple of str, got {self.columns!r}")
        if not isinstance(self.normalize, bool):
            raise ValidationError(f"normalize must be a bool, got {self.normalize!r}")
        if isinstance(self.epsilon, bool) or not isinstance(self.epsilon, numbers.Real):
            raise ValidationError(f"epsilon must be a real number, got {self.epsilon!r}")
        if self.algorithm not in ALGORITHMS + ("all",):
            raise ValidationError(
                f"algorithm must be one of {ALGORITHMS + ('all',)}, got {self.algorithm!r}"
            )
        if not isinstance(self.seeds, tuple):
            raise ValidationError(f"seeds must be a tuple of int, got {self.seeds!r}")
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        for name, least in (("p", 1), ("vqe_reps", 0), ("shots", 1), ("spsa_iters", 1)):
            check_count(name, getattr(self, name), least)
        for i, seed in enumerate(self.seeds):
            check_count(f"seeds[{i}]", seed, 0)
            if seed in self.seeds[:i]:
                raise ValidationError(f"seed {seed} appears more than once in seeds")
        # the sampler draws its counts as int64
        if self.shots > np.iinfo(np.int64).max:
            raise ValidationError(
                f"shots must be <= {np.iinfo(np.int64).max} (the int64 limit), got {self.shots}"
            )
        # epsilon = 0 would leave binary entries that the warm-start mixer
        # rejects, so every ws-QAOA run would fail after the relaxation
        if not 0.0 < self.epsilon < 0.5:
            raise ValidationError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")

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
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
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
    if labels.size == 0:
        raise ValidationError("labels must be nonempty")
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


def _optimize(
    config: RunConfig, algorithm: str, problem: Problem, warm: list[WarmStart] | None
) -> list[dict[str, Any]]:
    """Optimization stage of every seed at once.

    Returns, per seed, the report.json fields this stage sets,
    ``probabilities`` and ``params`` as read-only float64 arrays (the
    exact seeds share one).  All seeds of a variational algorithm advance
    through SPSA together; seed s starts from ``default_rng([s, 1])`` and
    keeps its own streams, gain and best point, so its result equals a
    run on its own.  Each seed's gain is calibrated first.  The final
    states are prepared as one batch too; a seed's energy is SPSA's best
    value, that of its best point.  A non-finite objective value raises
    ``EvaluationError``, which ends every seed of the batch.
    """
    ising = problem.ising
    seeds = config.seeds
    if algorithm == "exact":
        sol = problem.solution
        probs = np.zeros(2**ising.n)
        probs[list(sol.ground_states)] = 1.0 / len(sol.ground_states)
        probs.flags.writeable = False
        exact = {
            "probabilities": probs,
            "energy_expectation": sol.ground_energy,
            "params": None,
            "calibrated_a": None,
            "evaluations": 2**ising.n,
        }
        return [exact] * len(seeds)

    prepare, dim = make_ansatz(algorithm, ising, p=config.p, warm=warm, vqe_reps=config.vqe_reps)
    objective = partial(row_energies, prepare, ising)
    initial = np.array([np.random.default_rng([seed, 1]).uniform(-0.1, 0.1, dim) for seed in seeds])
    results = spsa_lockstep(objective, initial, config.spsa_iters, seeds)

    best = np.array([r.best_params for r in results])
    probs = np.concatenate(list(row_probabilities(prepare, best, np.arange(len(seeds)), ising.n)))
    best.flags.writeable = probs.flags.writeable = False
    return [
        {
            "probabilities": p,
            "energy_expectation": r.best_value,
            "params": x,
            "calibrated_a": r.gain,
            "evaluations": r.evaluations,
        }
        for r, x, p in zip(results, best, probs)
    ]


def sample_run(config: RunConfig, seed: int, problem: Problem, final: dict[str, Any]) -> dict[str, Any]:
    """Sampling stage of one run: measure the final state, score the most
    probable bitstring and return the run's report.json entry, the fields
    ``final`` of the optimization stage joined by those set here.  The
    entry keeps ``final``'s read-only arrays: ``probabilities`` is the
    state's float64 probability vector itself, not a list."""
    probs = final["probabilities"]
    counts = draw_counts(probs, config.shots, [seed, 2])
    weights = counts[None].astype(float)
    energy_sampled = float(expectation_rows(weights, problem.ising.energies)[0]) / config.shots
    top = most_probable_index(probs)
    labels = assign_clusters(top, problem.ising.n)
    truth = problem.dataset.labels
    return {
        **final,
        "seed": seed,
        "bitstring": bitstring_str(top, problem.ising.n),
        "bitstring_index": top,
        "labels": list(labels),
        "accuracy": cluster_accuracy(labels, truth) if truth is not None else None,
        "energy_sampled": energy_sampled,
        "solution_objective": float(cut_value(problem.graph, np.array(labels))),
    }


def run_seeds(
    config: RunConfig, algorithm: str, problem: Problem
) -> tuple[list[dict[str, Any]], list[dict[str, Any]], dict[int, dict[str, float]]]:
    """Run one solver for every seed of ``config``, all seeds advancing
    together through relaxation (warm start only), optimization and
    sampling.

    Returns ``(runs, failed, timings)``.  ``runs`` holds each seed's
    report.json entry, reproducible from (config, seed).  An exception at
    any stage fails every seed: ``runs`` and ``timings`` are then empty
    and ``failed`` names, per seed, the stage and the error.  ``timings``
    maps each seed to the wall time of its stages: relaxation,
    optimization and sampling (building ``problem`` is charged by
    :func:`run_benchmark`).  The optimization stage runs once for the
    batch, so its time is split evenly across ``config.seeds``: under
    :func:`_run_shares`, the seeds of one job.
    """
    seeds = config.seeds
    timings = {seed: {"relaxation": 0.0} for seed in seeds}
    stage = "relaxation"
    try:
        warm = None
        if algorithm == "ws-qaoa":  # each seed's warm start: its clipped box-relaxed cut
            qubo = qubo_from_graph(problem.graph)
            # seeds fewer than relaxation.RESTARTS apart share restarts; each distinct
            # start is ascended once per call, by the first seed using it
            ascents: dict[int, tuple] = {}
            warm = []
            for seed in seeds:
                t0 = time.perf_counter()
                warm.append(WarmStart(clip_cstar(relax_qubo(qubo, seed, ascents).c_star, config.epsilon)))
                timings[seed]["relaxation"] = time.perf_counter() - t0
        stage = "optimization"
        t0 = time.perf_counter()
        finals = _optimize(config, algorithm, problem, warm)
        share = (time.perf_counter() - t0) / len(seeds)
        stage = "sampling"
        runs = []
        for seed, final in zip(seeds, finals):
            t0 = time.perf_counter()
            runs.append(sample_run(config, seed, problem, final))
            timings[seed].update(optimization=share, sampling=time.perf_counter() - t0)
    except Exception as exc:
        failed = [
            {"seed": seed, "error": f"{algorithm} run (seed {seed}) failed during {stage}: {exc}"}
            for seed in seeds
        ]
        return [], failed, {}
    return runs, [], timings


def _cpus() -> list:
    """The usable CPUs, sorted, or ``[None]`` without Linux's affinity calls
    or ``os.memfd_create`` (on macOS, say), where nothing forks."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def _pinned_forks(what: str, cpus: list, tasks: list, work: Callable, here: Callable,
                  take: Callable) -> Any:
    """``here()`` in this process and ``work(task, fd)`` of each of ``tasks``
    in a process forked for it and pinned to its own CPU of ``cpus[1:]``,
    which writes its output to ``fd``, an anonymous file
    (``os.memfd_create``).  While they run this process is pinned to
    ``cpus[0]``.  Then each forked process is reaped in order and
    ``take(cpu, task, fh, usage)`` called on its file, open from the start,
    and its ``resource.struct_rusage``; one that exits non-zero raises
    ``RuntimeError`` naming ``what``, its CPU and task.  No forked process
    outlives the call, nor the pinning: this process's affinity is restored
    before the call returns or raises.  Returns ``here()``."""
    children: dict[int, tuple] = {}  # pid -> (cpu, task, fd of its file)
    try:
        for cpu, task in zip(cpus[1:], tasks):
            fd = os.memfd_create(what)
            with warnings.catch_warnings():  # 3.12+ warns of OpenBLAS's threads, which it joins at a fork
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # a forked process: its output into its file, then out
                try:
                    os.sched_setaffinity(0, {cpu})
                    work(task, fd)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = (cpu, task, fd)
        if children:
            os.sched_setaffinity(0, {cpus[0]})
        mine = here()
        for pid, (cpu, task, fd) in list(children.items()):
            _, status, usage = os.wait4(pid, 0)
            del children[pid]
            with open(fd, "rb") as fh:
                if code := os.waitstatus_to_exitcode(status):
                    raise RuntimeError(f"{what} on CPU {cpu} for {task}: no result, exit status {code}")
                fh.seek(0)
                take(cpu, task, fh, usage)
    finally:
        for pid, (_, _, fd) in children.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if tasks:
            os.sched_setaffinity(0, set(cpus))
    return mine


def _plan(config: RunConfig, algorithms: tuple, n: int) -> tuple[list[int], list[list[tuple[str, tuple]]]]:
    """The usable CPUs, sorted, and each share's ``(algorithm, seeds)`` jobs
    as dealt, this process's first.  A job is one algorithm over every seed,
    or over one seed from 13 qubits (``row_cap`` 1).  Jobs are weighed only
    against each other, by their algorithm's gates per evaluation (complex
    ones twice, QAOA's on half a state once, exact's 0), and go heaviest
    first to the least loaded of k shares (Graham's LPT rule): one share per
    usable CPU, up to the number of jobs of nonzero weight, at least one."""
    cpus = _cpus()
    qaoa = config.p * (n + 1)
    gates = {"exact": 0, "vqe": (config.vqe_reps + 1) * n, "qaoa": qaoa, "ws-qaoa": 2 * qaoa}
    chunks = [(seed,) for seed in config.seeds] if row_cap(n) == 1 else [config.seeds]
    jobs = sorted(((gates[a], a, chunk) for a in algorithms for chunk in chunks), key=lambda job: -job[0])
    k = max(1, min(len(cpus), sum(1 for weight, _, _ in jobs if weight)))
    loads, shares = [0] * k, [[] for _ in range(k)]
    for weight, a, chunk in jobs:
        w = loads.index(min(loads))
        loads[w] += weight
        shares[w].append((a, chunk))
    shares.insert(0, shares.pop(loads.index(min(loads))))
    return cpus, shares


def _run_shares(config: RunConfig, algorithms: tuple, problem: Problem) -> tuple:
    """One :func:`run_seeds` call per job of :func:`_plan`, as ``(algorithm,
    result)`` pairs, and the processes that ran them, this one first.  This
    process, which also merges and emits, runs the lightest share; a worker
    of :func:`_pinned_forks` runs each other, at any state size, and pickles
    its results with protocol 5, so that arrays stay read-only."""
    cpus, shares = _plan(config, algorithms, problem.ising.n)

    def run_share(jobs):
        return [(a, run_seeds(replace(config, seeds=seeds), a, problem)) for a, seeds in jobs]

    def work(jobs, fd):
        with open(fd, "wb") as fh:
            pickle.dump(run_share(jobs), fh, protocol=5)

    forked, workers = [], [{"cpu": cpus[0] if len(shares) > 1 else None, "jobs": shares[0]}]

    def take(cpu, jobs, fh, usage):
        forked.extend(pickle.load(fh))
        workers.append({"cpu": cpu, "jobs": jobs, "max_rss_mb": usage.ru_maxrss / 1024})

    results = _pinned_forks("worker", cpus, shares[1:], work, partial(run_share, shares[0]), take)
    workers[0]["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return results + forked, workers


@dataclass
class BenchmarkReport:
    """Aggregated benchmark output.

    ``payload`` is the deterministic section (what report.json is written
    from, float vectors as read-only float64 arrays); ``timings`` is the
    wall-clock section (timings.json).
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


def run_benchmark(config: RunConfig) -> BenchmarkReport:
    """Run every requested algorithm over every seed and aggregate.

    The exhaustive solution is always computed and included for
    comparison.  A stage that raises fails every seed of its job (one
    :func:`run_seeds` call of :func:`_plan`), each recorded under
    ``failed`` with the stage and the error.  Jobs may run in forked
    workers, each pinned to its own CPU (``RuntimeError`` if one gives no
    result); runs, failures and timings are merged in ``config.seeds`` order.
    """
    t_start = time.perf_counter()
    path = resolve_dataset(config.dataset)
    dataset = load_dataset(path, config.columns, config.normalize)
    n = dataset.n
    # checked before any distance is computed
    if n > QUBIT_CAP:
        raise ValidationError(f"{path}: {n} data rows exceed the cap of {QUBIT_CAP} qubits")
    t0 = time.perf_counter()
    try:
        problem = build_problem(dataset)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    algorithms = config.selected_algorithms()
    # every run shares the one build; each is charged an equal part
    graph_build_s = (time.perf_counter() - t0) / (len(algorithms) * len(config.seeds))
    sol = problem.solution
    exact_top = most_probable_index(np.isin(np.arange(2**n), sol.ground_states))
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
                "restarts": relaxation.RESTARTS,
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
    results, workers = _run_shares(config, algorithms, problem)
    timings: dict[str, Any] = {"per_run": {}, "workers": workers}

    in_seed_order = partial(sorted, key=lambda record: config.seeds.index(record["seed"]))
    for algorithm in algorithms:
        parts = [result for a, result in results if a == algorithm]
        runs = in_seed_order(run for part_runs, _, _ in parts for run in part_runs)
        failed = in_seed_order(fail for _, part_failed, _ in parts for fail in part_failed)
        times = {seed: t for _, _, part_times in parts for seed, t in part_times.items()}
        timings["per_run"][algorithm] = {str(seed): {"graph_build": graph_build_s, **times[seed]}
                                         for seed in config.seeds if seed in times}
        block: dict[str, Any] = {"runs": runs, "failed": failed}
        if runs:
            med = block["median_energy_expectation"] = _median(r["energy_expectation"] for r in runs)
            block["median_energy_sampled"] = _median(r["energy_sampled"] for r in runs)
            block["median_solution_objective"] = _median(r["solution_objective"] for r in runs)
            # the run whose energy is closest to the median; ties go to the earliest seed
            closest = min(runs, key=lambda r: abs(r["energy_expectation"] - med))
            block["representative_seed"] = closest["seed"]
        payload["algorithms"][algorithm] = block

    timings["total_s"] = time.perf_counter() - t_start
    return BenchmarkReport(payload=payload, timings=timings)


def _json_default(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _float_text(chunk: np.ndarray) -> str:
    """The floats of ``chunk`` as the C JSON encoder writes them, each its
    shortest repr, separated by ", " (which no float's repr holds)."""
    return json.dumps(chunk.tolist())[1:-1]


def _pieces(data: Any) -> tuple[list[str], list[np.ndarray]]:
    """``json.dumps(data, indent=2, sort_keys=True, default=_json_default)
    + "\\n"`` cut at its nonempty 1-D float64 arrays, and those arrays in
    the order written: ``pieces[i]`` is the text before array ``i``, the
    last piece the text after the last array.  Any other array raises
    ``TypeError``.  An array is encoded as a marker, a lone surrogate: no
    strictly decoded CSV cell holds one, nor an argument (its
    surrogateescape gives U+DC80-U+DCFF only).  Data that encodes the
    marker's text elsewhere raises ``ValueError``."""
    marker, arrays = "\ud800", []

    def default(obj: Any) -> Any:
        if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64 and obj.size:
            arrays.append(obj)
            return marker
        return _json_default(obj)

    pieces = (json.dumps(data, indent=2, sort_keys=True, default=default) + "\n").split(json.dumps(marker))
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"a string of the data encodes as {json.dumps(marker)}, the marker of a vector")
    return pieces, arrays


def _cut(costs: list[int]) -> int:
    """The index, from 1 to ``len(costs) - 1``, that cuts ``costs`` into
    two ranges whose sums lie nearest each other (the lower on a tie)."""
    prefix = np.cumsum(costs)
    return int(np.argmin(np.abs(2 * prefix[:-1] - prefix[-1]))) + 1


# split report.json's writing when its lighter range holds more non-zero
# floats than this: a writer's fork, pinning, memfd, sendfile and reap add
# about 4 ms beside a 14-qubit run's 24 MB heap, the time 3,300 of them
# take to format at 1.3 us each; split and one-process writes measured even
# at 4,000 floats a range, and at 8,000 the split won 37 of 40
SPLIT_MIN_FLOATS = 5_000


def _dump_json(data: Any, path: Path, sinks: dict[int, Callable] | None = None) -> None:
    """Write ``data`` to ``path`` as ``json.dumps(data, indent=2,
    sort_keys=True, default=_json_default) + "\\n"`` would, given its
    nonempty 1-D float64 arrays as lists (any other array raises
    ``TypeError``).  Array ``i`` is written between ``pieces[i]`` and
    ``pieces[i + 1]`` of :func:`_pieces`, through the C encoder CHUNK floats
    at a time at the indent of its line, so no whole-vector list or string
    is built; data :func:`_pieces` rejects leaves ``path`` unopened.  ``sinks`` maps ``id(array)`` to a sink, also called
    ``sink(lo, text)`` on the chunk from index lo.  Each sink is popped
    for its array's first index, so a shared array feeds it once, and
    dropped once its array is written.

    The arrays are cut into two ranges (:func:`_cut`), balanced by their
    non-zero floats (a zero formats about 8x faster).  With more than one
    usable CPU, and more than SPLIT_MIN_FLOATS in the lighter range, this
    process writes range 0 and the pieces after it; range 1 is written by a
    writer of :func:`_pinned_forks` into its anonymous file, appended with
    ``os.sendfile``.  The pieces are known before the fork, so the writer
    runs no encoder; it also feeds the sinks of its range.  On more CPUs it
    still forks one writer: only two ranges were timed."""
    pieces, arrays = _pieces(data)
    feeds = {i: sinks.pop(id(a)) for i, a in enumerate(arrays) if sinks and id(a) in sinks}

    def write(fh, indices: range) -> None:
        for i in indices:
            arr, sink = arrays[i], feeds.pop(i, None)
            line = pieces[i][pieces[i].rfind("\n") + 1:]
            pad = "\n" + line[:len(line) - len(line.lstrip(" "))] + "  "
            sep = "," + pad
            for lo in range(0, arr.size, CHUNK):
                text = _float_text(arr[lo:lo + CHUNK])
                fh.write(sep if lo else "[" + pad)
                fh.write(text.replace(", ", sep))
                if sink is not None:
                    sink(lo, text)
            fh.write(pad[:-2] + "]" + pieces[i + 1])

    def work(indices: range, fd: int) -> None:
        with open(fd, "w", encoding="utf-8") as fh:
            write(fh, indices)

    cpus, costs = _cpus(), [int(np.count_nonzero(a)) for a in arrays]
    cut = _cut(costs) if len(costs) > 1 else 0
    with open(path, "w", encoding="utf-8") as out:
        def append(cpu, indices, fh, usage):
            out.flush()  # this process's range goes first
            sent, size = 0, os.fstat(fh.fileno()).st_size
            while sent < size:
                sent += os.sendfile(out.fileno(), fh.fileno(), sent, size - sent)

        out.write(pieces[0])
        if cpus[1:] and min(sum(costs[:cut]), sum(costs[cut:])) > SPLIT_MIN_FLOATS:
            here = partial(write, out, range(cut))
            _pinned_forks("report writer", cpus, [range(cut, len(arrays))], work, here, append)
        else:
            write(out, range(len(arrays)))


def _histogram_sink(path: Path, n: int) -> Callable[[int, str], None]:
    """A :func:`_dump_json` sink writing histogram ``path`` from the chunks
    of an ``n``-qubit probability vector, as a CSV writer would (no field
    needs quoting): the chunk from index 0 creates the file with its
    header, each later chunk appends its rows.  So the process that formats
    a vector also writes its histogram.  The MSB-first strings of the
    min(n, log2 CHUNK) low bits are formatted once, here; each chunk adds
    its high bits as one prefix."""
    bits = min(n, CHUNK.bit_length() - 1)
    keys = [format(k, f"0{bits}b") + "," for k in range(2**bits)]

    def sink(lo: int, text: str) -> None:
        head = format(lo >> bits, f"0{n - bits}b") if n > bits else ""
        rows = map(operator.add, keys, text.split(", "))
        with open(path, "a" if lo else "w", newline="", encoding="utf-8") as fh:
            fh.write("" if lo else "bitstring,probability\r\n")
            fh.write(head + ("\r\n" + head).join(rows) + "\r\n")

    return sink


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

    report.json is encoded in one pass and may be written on two CPUs
    (:func:`_dump_json`), in the bytes of one process; a writer that exits
    non-zero raises ``RuntimeError`` naming its CPU and range.  Each
    histogram is written by the process that formats its vector's text.
    """
    check_formats(formats)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    histograms: dict[Path, np.ndarray] = {}
    if "csv" in formats:
        histograms = {
            out / f"histogram_{a}.csv": next(
                r for r in block["runs"] if r["seed"] == block["representative_seed"]
            )["probabilities"]
            for a, block in report.payload["algorithms"].items()
            if block["runs"]
        }

    n = report.payload["dataset"]["n_rows"]
    if "json" in formats:
        # each histogram takes its probabilities' text, CHUNK floats at a
        # time, from report.json's writer, so every float is formatted once
        sinks = {id(probs): _histogram_sink(hist, n) for hist, probs in histograms.items()}
        _dump_json(report.payload, out / "report.json", sinks)
        _dump_json(report.timings, out / "timings.json")
        written += [out / "report.json", out / "timings.json"]
    else:  # each histogram formats its own text
        for hist, probs in histograms.items():
            sink = _histogram_sink(hist, n)
            for lo in range(0, probs.size, CHUNK):
                sink(lo, _float_text(probs[lo:lo + CHUNK]))

    header, rows = _table_rows(report)

    if "csv" in formats:
        table = out / "table.csv"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(table)
        written += histograms

    if "md" in formats:
        md = out / "table.md"
        # item names are free text: a "|" would open a cell, a line break end the row
        escape = str.maketrans({"|": "\\|", "\r": " ", "\n": " "})
        lines = [
            "| " + " | ".join(c.translate(escape) for c in row) + " |"
            for row in [header, ["---"] * len(header), *rows]
        ]
        lines.append("")
        lines.append(
            "Energies are dimensionless cut weights; the (Ha) row label "
            "only mirrors the conventional table layout."
        )
        md.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(md)

    return written
