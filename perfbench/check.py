"""Correctness gate for benchmark outputs.

Two independent checks on every report.json a repeat writes:

- a golden reference recorded from the seed implementation pins every
  run's bitstring and labels exactly, and its energies and
  probabilities to within TOL (relative to max(1, |value|));
- a pair-loop brute-force max cut over distances recomputed from the
  input CSV, sharing no code with ``exact_solve``, pins the exact block
  and every run's solution objective.

Each comparison returns the keys of the failing items with a message
each: "<algorithm>/<seed>" for a run and EXACT for the exact block.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TOL = 1e-10
# probability vectors with more entries than this are stored as a
# fingerprint: the largest entries plus two weighted sums, one with
# parity signs so that any single entry moving by more than TOL shows
FULL_PROBS_MAX = 256
TOP_PROBS = 32
MOMENTS = ("sum p_i*(-1)^popcount(i)", "sum p_i*i/2^n")
EXACT = "exact-block"


def run_key(algorithm: str, seed: int) -> str:
    return f"{algorithm}/{seed}"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def prob_fingerprint(probs) -> dict:
    p = np.asarray(probs, dtype=float)
    if p.size <= FULL_PROBS_MAX:
        return {"probabilities": p.tolist()}
    top = np.sort(np.argsort(-p, kind="stable")[:TOP_PROBS])
    index = np.arange(p.size)
    parity = np.zeros(p.size, dtype=np.int64)
    for b in range(p.size.bit_length()):
        parity ^= (index >> b) & 1
    return {
        "top": [[int(i), float(p[i])] for i in top],
        "moments": [float(p @ (1 - 2 * parity)), float(p @ (index / p.size))],
    }


def _fingerprint_mismatch(probs, golden: dict) -> str | None:
    p = np.asarray(probs, dtype=float)
    if "probabilities" in golden:
        ref = np.asarray(golden["probabilities"])
        if p.shape != ref.shape:
            return f"probability vector has {p.size} entries, golden {ref.size}"
        worst = int(np.argmax(np.abs(p - ref)))
        if not _close(p[worst], ref[worst]):
            return f"probability[{worst}] = {p[worst]!r}, golden {ref[worst]!r}"
        return None
    for i, ref in golden["top"]:
        if i >= p.size or not _close(p[i], ref):
            got = p[i] if i < p.size else None
            return f"probability[{i}] = {got!r}, golden {ref!r}"
    got = prob_fingerprint(p)["moments"]
    for name, a, b in zip(MOMENTS, got, golden["moments"]):
        if not _close(a, b):
            return f"probability {name} = {a!r}, golden {b!r}"
    return None


def make_golden(report: dict, input_sha256: str) -> dict:
    """The values a golden reference pins: the exact block and, per run,
    bitstring, labels, energies and probabilities."""
    exact = report["exact"]
    runs = {}
    for algorithm, block in report["algorithms"].items():
        for r in block["runs"]:
            runs[run_key(algorithm, r["seed"])] = {
                "bitstring": r["bitstring"],
                "labels": r["labels"],
                "energy_expectation": r["energy_expectation"],
                "energy_sampled": r["energy_sampled"],
                "solution_objective": r["solution_objective"],
                **prob_fingerprint(r["probabilities"]),
            }
    return {
        "input_sha256": input_sha256,
        "exact": {k: exact[k] for k in ("ground_energy", "ground_states", "bitstring", "labels")},
        "runs": runs,
    }


def _run_mismatch(run: dict, ref: dict) -> str | None:
    for field in ("bitstring", "labels"):
        if run[field] != ref[field]:
            return f"{field} {run[field]!r}, golden {ref[field]!r}"
    for field in ("energy_expectation", "energy_sampled", "solution_objective"):
        if not _close(run[field], ref[field]):
            return f"{field} {run[field]!r}, golden {ref[field]!r}"
    return _fingerprint_mismatch(run["probabilities"], ref)


def compare_golden(report: dict, golden: dict) -> dict[str, str]:
    """Failures of ``report`` against ``golden``, keyed by run."""
    failures: dict[str, str] = {}
    seen = set()
    for algorithm, block in report["algorithms"].items():
        for r in block["runs"]:
            key = run_key(algorithm, r["seed"])
            seen.add(key)
            ref = golden["runs"].get(key)
            msg = "run not in the golden reference" if ref is None else _run_mismatch(r, ref)
            if msg:
                failures[key] = msg
    for key in golden["runs"].keys() - seen:
        failures[key] = "run missing from report"

    exact, ref = report["exact"], golden["exact"]
    msg = None
    if not _close(exact["ground_energy"], ref["ground_energy"]):
        msg = f"exact ground energy {exact['ground_energy']!r}, golden {ref['ground_energy']!r}"
    for field in ("ground_states", "bitstring", "labels"):
        if exact[field] != ref[field]:
            msg = f"exact {field} {exact[field]!r}, golden {ref[field]!r}"
    if msg:
        failures[EXACT] = msg
    return failures


def csv_weights(text: str) -> np.ndarray:
    """Distance matrix from CSV text, computed pair by pair.

    Feature columns are every column except ``name`` and ``label``,
    z-scored with the population standard deviation; constant columns
    are centred only.
    """
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    header = [h.strip() for h in rows[0]]
    cols = [j for j, h in enumerate(header) if h not in ("name", "label")]
    x = [[float(r[j]) for j in cols] for r in rows[1:]]
    n, d = len(x), len(cols)
    for j in range(d):
        col = [row[j] for row in x]
        mean = sum(col) / n
        std = math.sqrt(sum((v - mean) ** 2 for v in col) / n)
        for row in x:
            row[j] = (row[j] - mean) / (std if std > 0 else 1.0)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = math.dist(x[i], x[j])
    return w


def brute_force_max_cut(w: np.ndarray) -> tuple[float, list[str]]:
    """Maximum cut weight and every bitstring attaining it (MSB first),
    accumulated over all 2^n assignments one vertex pair at a time."""
    n = w.shape[0]
    x = np.arange(2**n)
    cut = np.zeros(2**n)
    for i in range(n):
        for j in range(i + 1, n):
            cut += w[i, j] * (((x >> i) ^ (x >> j)) & 1)
    best = float(cut.max())
    tol = TOL * max(1.0, best)
    return best, [format(int(k), f"0{n}b") for k in np.flatnonzero(cut >= best - tol)]


def compare_brute_force(report: dict, w: np.ndarray, best: float, states: list[str]) -> dict[str, str]:
    """Failures of ``report`` against the brute-force max cut ``best`` of
    ``w``, attained by the bitstrings ``states``."""
    exact = report["exact"]
    failures: dict[str, str] = {}
    if not _close(-exact["ground_energy"], best):
        failures[EXACT] = f"exact ground energy {exact['ground_energy']!r}, brute force {-best!r}"
    elif exact["ground_states"] != states:
        failures[EXACT] = f"exact ground states {exact['ground_states']}, brute force {states}"
    for algorithm, block in report["algorithms"].items():
        for r in block["runs"]:
            key = run_key(algorithm, r["seed"])
            bits = np.array(r["labels"])
            cut = float((w * (bits[:, None] != bits[None, :])).sum() / 2.0)
            if not _close(r["solution_objective"], cut):
                failures[key] = f"solution objective {r['solution_objective']!r}, cut {cut!r}"
    return failures


def optimal_share(report: dict, states: list[str]) -> tuple[int, int]:
    """(variational runs whose top bitstring is one of the max-cut
    ``states``, variational runs)."""
    runs = [
        r for a, b in report["algorithms"].items() if a != "exact" for r in b["runs"]
    ]
    return sum(r["bitstring"] in states for r in runs), len(runs)
