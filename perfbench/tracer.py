"""Outside-in layer tracer, loaded only by the traced benchmark child.

The tracer replaces public cutclust functions with timing wrappers under
the names their calling modules look them up by (``cutclust.ansatz.apply_1q``
is the ``apply_1q`` that the ansatz builders call), so nothing under
``src/`` changes.  Open spans sit on a stack; when a span closes, its
duration is added to its parent's child time, so a layer's self time is
its duration minus the time of the traced calls it made.  Spans are
aggregated per name in memory and returned by :meth:`Tracer.summary` at
the end of the run.  A target that no longer exists is listed as absent
instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# spans closed while an objective evaluation is open are also counted
# per name in ``in_objective``, which gives gates per evaluation
OBJECTIVE = "optimizer.objective"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: list[list[Any]] = []  # [name, start, child_s]
        self._in_objective = 0
        # name -> [calls, total_s, self_s, bytes]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.in_objective: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []

    def enter(self, name: str) -> None:
        if name == OBJECTIVE:
            self._in_objective += 1
        self._stack.append([name, self._clock(), 0.0])

    def exit(self, nbytes: int = 0) -> float:
        """Close the innermost span and return its duration."""
        name, start, child_s = self._stack.pop()
        duration = self._clock() - start
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = [0, 0.0, 0.0, 0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - child_s
        stats[3] += nbytes
        if self._stack:
            self._stack[-1][2] += duration
        if name == OBJECTIVE:
            self._in_objective -= 1
        elif self._in_objective:
            self.in_objective[name] += 1
        return duration

    def span(self, fn, name, nbytes=None, sample=None):
        """``fn`` wrapped in a span; ``nbytes(args, result)`` gives the
        computed bytes moved, ``sample`` keeps each duration under that key."""

        def wrapped(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit()
                raise
            duration = self.exit(nbytes(args, result) if nbytes else 0)
            if sample is not None:
                self.samples[sample].append(duration)
            return result

        return wrapped

    def counter(self, fn, name):
        """``fn`` wrapped so that each call only bumps a count."""

        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def objective_factory(self, fn):
        """Wrap ``make_objective`` so the objectives it returns are spans,
        with per-evaluation durations kept per ansatz kind."""

        def wrapped(kind, *args, **kwargs):
            objective, dim = fn(kind, *args, **kwargs)
            return self.span(objective, OBJECTIVE, sample=f"eval.{kind}"), dim

        return wrapped

    def summary(self) -> dict[str, Any]:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s, "bytes": b}
                for name, (c, t, s, b) in self.spans.items()
            },
            "counts": dict(self.counts),
            "in_objective": dict(self.in_objective),
            "samples": {
                key: {
                    "n": len(v),
                    "p50_us": float(np.percentile(v, 50)) * 1e6,
                    "p99_us": float(np.percentile(v, 99)) * 1e6,
                }
                for key, v in self.samples.items()
            },
            "absent": list(self.absent),
        }


def _amplitudes(obj) -> int:
    n = getattr(obj, "n", None)
    return 2**n if isinstance(n, int) else int(getattr(obj, "size", 0))


def _state_bytes(passes: int, from_arg: bool):
    """Computed bytes: 2^n complex128 amplitudes times the read and write
    passes of the operation, taken from the input state or the result."""

    def nbytes(args, result):
        return _amplitudes(args[0] if from_arg else result) * 16 * passes

    return nbytes


def _file_bytes(args, result):
    return sum(p.stat().st_size for p in result)


@dataclass(frozen=True)
class Target:
    path: str  # module attribute as the caller looks it up
    name: str  # span or counter name
    kind: str = "span"  # span | counter | factory
    nbytes: Callable | None = None


TARGETS = (
    Target("cutclust.cli.emit_report", "bench.emit_report", nbytes=_file_bytes),
    Target("cutclust.bench.load_dataset", "bench.load_dataset"),
    Target("cutclust.bench.euclidean_weights", "graph_model.euclidean_weights"),
    Target("cutclust.bench.ising_from_graph", "graph_model.ising_from_graph"),
    Target("cutclust.bench.relax_qubo", "relaxation.relax_qubo"),
    Target("cutclust.graph_model.QuboProblem.objective", "relaxation.qubo_evals", "counter"),
    Target("cutclust.bench.make_objective", OBJECTIVE, "factory"),
    Target("cutclust.bench.spsa_minimize", "optimizer.spsa_minimize"),
    Target("cutclust.optimizer.build_qaoa_state", "ansatz.build_qaoa_state"),
    Target("cutclust.optimizer.build_ws_qaoa_state", "ansatz.build_ws_qaoa_state"),
    Target("cutclust.optimizer.build_vqe_state", "ansatz.build_vqe_state"),
    Target("cutclust.bench.build_qaoa_state", "ansatz.build_qaoa_state"),
    Target("cutclust.bench.build_ws_qaoa_state", "ansatz.build_ws_qaoa_state"),
    Target("cutclust.bench.build_vqe_state", "ansatz.build_vqe_state"),
    Target("cutclust.ansatz.ws_mixer_unitary", "ansatz.ws_mixer_unitary"),
    Target("cutclust.ansatz.rx", "ansatz.gate_ctors"),
    Target("cutclust.ansatz.ry", "ansatz.gate_ctors"),
    Target("cutclust.ansatz.new_state", "simulator.new_state", nbytes=_state_bytes(1, False)),
    Target("cutclust.ansatz.apply_1q", "simulator.apply_1q", nbytes=_state_bytes(2, True)),
    Target("cutclust.ansatz.apply_cnot", "simulator.apply_cnot", nbytes=_state_bytes(2, True)),
    Target(
        "cutclust.ansatz.apply_diagonal_phase",
        "simulator.apply_diagonal_phase",
        nbytes=_state_bytes(2, True),
    ),
    Target(
        "cutclust.optimizer.expectation_diagonal",
        "simulator.expectation_diagonal",
        nbytes=_state_bytes(1, True),
    ),
    Target(
        "cutclust.bench.expectation_diagonal",
        "simulator.expectation_diagonal",
        nbytes=_state_bytes(1, True),
    ),
    Target("cutclust.simulator.Statevector.__post_init__", "simulator.statevectors", "counter"),
)


def _resolve(path: str):
    """(owner, attribute) for a dotted path, or None if it does not exist."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
        if owner is not None and hasattr(owner, parts[-1]):
            return owner, parts[-1]
        return None
    return None


def install(tracer: Tracer, targets=TARGETS) -> None:
    for t in targets:
        found = _resolve(t.path)
        if found is None:
            tracer.absent.append(t.path)
            continue
        owner, attr = found
        fn = getattr(owner, attr)
        if t.kind == "counter":
            wrapped = tracer.counter(fn, t.name)
        elif t.kind == "factory":
            wrapped = tracer.objective_factory(fn)
        else:
            wrapped = tracer.span(fn, t.name, nbytes=t.nbytes)
        setattr(owner, attr, wrapped)
