"""Record the golden reference that run.py checks every report against.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs each workload once per golden instance through the untraced child
and writes golden/<workload>.json.  Run it only to define a new
reference: the point of the file is that later code must reproduce the
outputs of the code that wrote it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import check
from run import GOLDEN, SRC, WORK, run_child
from workloads import SYNTH_POOL, WORKLOADS, prepare_input


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    seeds = [0] if workload.dataset is not None else range(SYNTH_POOL)
    instances = {}
    for seed in seeds:
        work_dir = WORK / f"golden-{name}-{seed}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        text = prepare_input(workload, seed, work_dir, SRC)
        child = run_child("run", workload, seed, work_dir)
        if child["rc"] != 0:
            sys.exit(f"{name} seed {seed}: bench run exited {child['rc']}:\n{child['stderr']}")
        sha = hashlib.sha256(text.encode()).hexdigest()
        golden = check.make_golden(json.loads(child["report_bytes"]), sha)
        instances[workload.golden_key(seed)] = golden
        shutil.rmtree(work_dir)
        print(f"{name} {workload.golden_key(seed)}: {len(golden['runs'])} runs")
    return {"workload": name, "argv": list(workload.argv), "instances": instances}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or list(WORKLOADS):
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(record(name), indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
