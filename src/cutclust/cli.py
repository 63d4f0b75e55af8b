"""Command line front end.

``bench run`` executes the benchmark on a dataset and writes the report
files; ``bench datasets`` lists the CSV files shipped with the package.
Exit codes: 0 success, 1 invalid input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ALGORITHMS,
    RunConfig,
    emit_report,
    load_dataset,
    run_benchmark,
    shipped_datasets,
)
from .errors import ValidationError
from .optimizer import SpsaConfig
from .relaxation import RelaxConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path instead so bad flags exit 1
    def error(self, message):
        raise ValidationError(message)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ValidationError(f"seeds must be comma-separated integers, got {text!r}") from None


def _parse_columns(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    cols = tuple(c.strip() for c in text.split(",") if c.strip())
    if not cols:
        raise ValidationError("columns list is empty")
    return cols


def _parse_formats(text: str) -> tuple[str, ...]:
    fmts = tuple(f.strip() for f in text.split(",") if f.strip())
    if not fmts:
        raise ValidationError("format list is empty")
    return fmts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the clustering benchmark")
    run.add_argument("--dataset", required=True, help="CSV path or shipped name (cars, wine)")
    run.add_argument("--columns", default=None, help="comma-separated feature columns (default: all)")
    run.add_argument("--no-normalize", action="store_true", help="skip per-column z-scoring")
    run.add_argument("--algo", default="all", choices=ALGORITHMS + ("all",))
    run.add_argument("--p", type=int, default=1, help="QAOA depth")
    run.add_argument("--vqe-reps", type=int, default=5, help="entangling-layer repetitions")
    run.add_argument("--shots", type=int, default=4096, help="samples for the measured energy")
    run.add_argument("--epsilon", type=float, default=0.1, help="warm-start clipping bound")
    run.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10", help="comma-separated seed list")
    run.add_argument("--spsa-iters", type=int, default=250, help="SPSA iteration budget")
    run.add_argument("--out", default="bench_out", help="output directory")
    run.add_argument("--format", default="json,csv,md", help="any of json,csv,md (comma-separated)")

    sub.add_parser("datasets", help="list shipped datasets")
    return parser


def _cmd_datasets() -> int:
    for name, path in shipped_datasets().items():
        ds = load_dataset(path)
        print(f"{name}: {ds.n} rows, {len(ds.columns)} feature columns ({', '.join(ds.columns)})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(
        dataset=args.dataset,
        columns=_parse_columns(args.columns),
        normalize=not args.no_normalize,
        algorithm=args.algo,
        p=args.p,
        vqe_reps=args.vqe_reps,
        shots=args.shots,
        seeds=_parse_seeds(args.seeds),
        relax=RelaxConfig(epsilon=args.epsilon),
        spsa=SpsaConfig(max_iters=args.spsa_iters),
    )
    report = run_benchmark(config)
    files = emit_report(report, args.out, _parse_formats(args.format))

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
