"""Workload definitions and the synthetic input generator.

Each workload is one ``bench run`` argv.  The program only ever sees the
argv and, for the synthetic workload, the CSV file written here; the
workload seed never reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# synth14 draws its instance from a fixed pool so that every seed has a
# committed golden reference (see golden/); seed k uses instance k % POOL
SYNTH_POOL = 8
SYNTH_ROWS = 14
SYNTH_FEATURES = 3
SYNTH_SEPARATION = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # shipped dataset name, or None when the input is generated
    dataset: str | None = None

    def input_name(self, seed: int) -> str:
        """Dataset argument as the program receives it."""
        if self.dataset is not None:
            return self.dataset
        return f"synth14-{synth_instance(seed)}.csv"

    def program_argv(self, seed: int, out_dir: str) -> list[str]:
        return ["run", "--dataset", self.input_name(seed), *self.argv, "--out", out_dir]

    def golden_key(self, seed: int) -> str:
        return "default" if self.dataset is not None else str(synth_instance(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cars-default",
            argv=(),
            dataset="cars",
        ),
        Workload(
            name="synth14-kernels",
            argv=("--algo", "all", "--seeds", "1,2", "--spsa-iters", "20"),
        ),
        Workload(
            name="wine-ws-deep",
            argv=("--algo", "ws-qaoa", "--p", "4"),
            dataset="wine",
        ),
    )
}


def synth_instance(seed: int) -> int:
    return seed % SYNTH_POOL


def synth_csv(instance: int) -> str:
    """Two Gaussian blobs of 7 rows each, rows shuffled, as CSV text.

    The blob centres sit SYNTH_SEPARATION standard deviations apart in a
    random direction, so the max cut is the blob split.  The text is a
    pure function of ``instance``.
    """
    rng = np.random.default_rng([0xC1, instance])
    half = SYNTH_ROWS // 2
    direction = rng.normal(size=SYNTH_FEATURES)
    direction *= SYNTH_SEPARATION / np.linalg.norm(direction)
    points = rng.normal(size=(SYNTH_ROWS, SYNTH_FEATURES))
    points[half:] += direction
    labels = [0] * half + [1] * (SYNTH_ROWS - half)
    order = rng.permutation(SYNTH_ROWS)
    header = ["name", "label"] + [f"x{j}" for j in range(SYNTH_FEATURES)]
    lines = [",".join(header)]
    for row, i in enumerate(order):
        cells = [f"p{row}", str(labels[i])] + [repr(float(v)) for v in points[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def prepare_input(workload: Workload, seed: int, work_dir: Path, src: Path) -> str:
    """Return the CSV text the program reads, writing it into work_dir
    when it is generated; shipped files are read from ``src``."""
    if workload.dataset is None:
        text = synth_csv(synth_instance(seed))
        (work_dir / workload.input_name(seed)).write_text(text, encoding="utf-8")
        return text
    path = src / "cutclust" / "data" / f"{workload.dataset}.csv"
    return path.read_text(encoding="utf-8")
