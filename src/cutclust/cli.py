"""Command line front end.

``bench run`` executes the benchmark on a dataset and writes the report
files; ``bench datasets`` lists the CSV files shipped with the package.
Exit codes: 0 success, 1 invalid input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import (
    ALGORITHMS,
    FORMATS,
    RunConfig,
    check_formats,
    emit_report,
    load_dataset,
    run_benchmark,
    shipped_datasets,
)
from .errors import ValidationError


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path instead so bad flags exit 1
    def error(self, message):
        raise ValidationError(message)


def _split(flag: str, text: str) -> tuple[str, ...]:
    """The stripped entries of a comma-separated ``--flag`` value.  An empty
    entry fails, naming its 1-based position, so ``1,,2`` never runs as ``1,2``."""
    entries = tuple(e.strip() for e in text.split(","))
    if not any(entries):
        raise ValidationError(f"{flag} list is empty")
    if "" in entries:
        raise ValidationError(f"--{flag}: entry {entries.index('') + 1} of {text!r} is empty")
    return entries


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds = _split("seeds", text)
    try:
        return tuple(int(s) for s in seeds)
    except ValueError:
        raise ValidationError(f"seeds must be comma-separated integers, got {text!r}") from None


def _parse_formats(text: str) -> tuple[str, ...]:
    fmts = _split("format", text)
    check_formats(fmts)
    return fmts


def _check_out(text: str) -> None:
    """Fail before any compute if ``text`` cannot become the output
    directory: the nearest existing path on it must be a writable
    directory.  A dangling symlink exists but is no directory.  The
    directory is made only when the report is written."""
    out = Path(text)
    base = next((p for p in (out, *out.parents) if os.path.lexists(p)), None)
    if base is None:
        raise ValidationError(f"--out {text}: no part of the path exists")
    if not base.is_dir():
        raise ValidationError(f"--out {text}: {base} is not a directory")
    if not os.access(base, os.W_OK):
        raise ValidationError(f"--out {text}: {base} is not writable")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the clustering benchmark")
    run.add_argument("--dataset", required=True, help="CSV path or shipped name (cars, wine)")
    run.add_argument("--columns", default=None, help="comma-separated feature columns (default: all)")
    run.add_argument("--no-normalize", action="store_true", help="skip per-column z-scoring")
    run.add_argument("--algo", default=RunConfig.algorithm, choices=ALGORITHMS + ("all",))
    run.add_argument("--p", type=int, default=RunConfig.p, help="QAOA depth")
    run.add_argument("--vqe-reps", type=int, default=RunConfig.vqe_reps,
                     help="entangling-layer repetitions")
    run.add_argument("--shots", type=int, default=RunConfig.shots,
                     help="samples for the measured energy")
    run.add_argument("--epsilon", type=float, default=RunConfig.epsilon,
                     help="warm-start clipping bound")
    run.add_argument("--seeds", default=",".join(map(str, RunConfig.seeds)),
                     help="comma-separated seed list")
    run.add_argument("--spsa-iters", type=int, default=RunConfig.spsa_iters,
                     help="SPSA iteration budget")
    run.add_argument("--out", default="bench_out", help="output directory")
    formats = ",".join(FORMATS)
    run.add_argument("--format", default=formats, help=f"any of {formats} (comma-separated)")

    sub.add_parser("datasets", help="list shipped datasets")
    return parser


def _cmd_datasets() -> int:
    for name, path in shipped_datasets().items():
        ds = load_dataset(path)
        print(f"{name}: {ds.n} rows, {len(ds.columns)} feature columns ({', '.join(ds.columns)})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    formats = _parse_formats(args.format)
    config = RunConfig(
        dataset=args.dataset,
        columns=None if args.columns is None else _split("columns", args.columns),
        normalize=not args.no_normalize,
        algorithm=args.algo,
        p=args.p,
        vqe_reps=args.vqe_reps,
        shots=args.shots,
        seeds=_parse_seeds(args.seeds),
        epsilon=args.epsilon,
        spsa_iters=args.spsa_iters,
    )
    _check_out(args.out)
    report = run_benchmark(config)
    files = emit_report(report, args.out, formats)

    for algo, block in report.payload["algorithms"].items():
        if block["runs"]:
            print(
                f"{algo}: median energy {block['median_energy_expectation']:.6f} "
                f"({len(block['runs'])} runs, representative seed "
                f"{block['representative_seed']})"
            )
        for failure in block["failed"]:
            print(f"{algo}: seed {failure['seed']} failed: {failure['error']}", file=sys.stderr)
    print(f"exact ground energy {report.payload['exact']['ground_energy']:.6f}")
    print("wrote " + ", ".join(str(f) for f in files))
    n_failed = sum(len(b["failed"]) for b in report.payload["algorithms"].values())
    return 2 if n_failed else 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "datasets":
            return _cmd_datasets()
        return _cmd_run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
