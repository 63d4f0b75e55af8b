"""One benchmark repeat, run in a fresh process by run.py.

    python3 perfbench/child.py SPEC.json

SPEC holds ``mode`` (setup, run or trace), ``dataset`` (the workload
input as the program sees it), ``argv`` (the ``bench`` argv) and
``result`` (where to write this process's measurements).  The working
directory is the repeat's own directory.

Every mode first times set-up: ``import cutclust`` and the exact
reference pipeline on the input.  ``run`` then times a fixed reference
loop and one ``cutclust.cli.main(argv)`` call; ``trace`` does the same
with the layer tracer installed.  The tracer module is imported only in
``trace`` mode, so an untraced run executes no tracing code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and small-array work, the
    same kind of work as a gate layer; it tracks machine speed."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.full(1024, 1.0 + 0.0j)
    acc = 0
    for i in range(20000):
        a = a * 0.9999
        acc += i
    return time.perf_counter() - t0


def peak_anon_mb() -> float:
    """Peak resident memory less the file-backed and shared pages resident
    at exit.  How many pages of a mapped library are resident can depend on
    the machine's page cache rather than on the program; the rest is the
    program's own memory."""
    kib = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "RssFile", "RssShmem"):
                kib[key] = int(value.split()[0])
    return (kib["VmHWM"] - kib["RssFile"] - kib["RssShmem"]) / 1024.0


def blas_version() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    import cutclust
    from cutclust.bench import load_dataset, resolve_dataset

    ising = cutclust.ising_from_graph(
        cutclust.euclidean_weights(load_dataset(resolve_dataset(spec["dataset"])))
    )
    cutclust.exact_solve(ising)
    result = {"setup_s": time.perf_counter() - t0}

    # numpy is first imported by ``import cutclust``, inside the set-up time
    import numpy as np

    result["env"] = {
        "cutclust": cutclust.__file__,
        "numpy": np.__version__,
        "blas": blas_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }

    if spec["mode"] != "setup":
        result["ref_s"] = reference_loop()
        tracer = None
        if spec["mode"] == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        from cutclust.cli import main as cli_main

        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            result["rc"] = cli_main(spec["argv"])
        result["wall_s"] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["peak_anon_mb"] = peak_anon_mb()
        if tracer is not None:
            result["trace"] = tracer.summary()

    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
