"""CLI tests: exit codes, flag parsing, and output files."""

import csv
import json
import warnings

import pytest

from cutclust import bench, cli
from cutclust.bench import RunConfig
from cutclust.cli import main


def run_args(tmp_path, *extra):
    """A fast configuration for exercising the full path."""
    return [
        "run",
        "--dataset", "cars",
        "--algo", "ws-qaoa",
        "--seeds", "1,2",
        "--spsa-iters", "30",
        "--out", str(tmp_path / "out"),
        *extra,
    ]


class TestDatasetsCommand:
    def test_lists_shipped_files(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cars: 5 rows" in out
        assert "wine: 6 rows" in out


class TestRunCommand:
    def test_success_writes_files(self, tmp_path, capsys):
        assert main(run_args(tmp_path)) == 0
        out_dir = tmp_path / "out"
        for name in ("report.json", "timings.json", "table.csv", "table.md",
                     "histogram_ws-qaoa.csv"):
            assert (out_dir / name).is_file(), name
        stdout = capsys.readouterr().out
        assert "median energy" in stdout
        assert "ground energy" in stdout

    def test_format_selection(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--format", "json")) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "report.json").is_file()
        assert not (out_dir / "table.csv").exists()

    def test_flags_reach_report(self, tmp_path, capsys):
        args = run_args(tmp_path, "--p", "2", "--shots", "512", "--epsilon", "0.2",
                        "--columns", "mpg,hp")
        assert main(args) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cfg = report["config"]
        assert cfg["p"] == 2
        assert cfg["shots"] == 512
        assert cfg["relaxation"]["epsilon"] == 0.2
        assert cfg["columns"] == ["mpg", "hp"]
        assert cfg["seeds"] == [1, 2]

    def test_no_normalize_flag(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--no-normalize")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["normalize"] is False

    def test_deterministic_report_across_invocations(self, tmp_path, capsys):
        main(["run", "--dataset", "cars", "--algo", "qaoa", "--seeds", "1,2",
              "--spsa-iters", "30", "--out", str(tmp_path / "a"), "--format", "json"])
        main(["run", "--dataset", "cars", "--algo", "qaoa", "--seeds", "1,2",
              "--spsa-iters", "30", "--out", str(tmp_path / "b"), "--format", "json"])
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()


class TestParser:
    def test_defaults_are_run_config_defaults(self):
        args = cli.build_parser().parse_args(["run", "--dataset", "cars"])
        defaults = RunConfig(dataset="cars")
        assert args.algo == defaults.algorithm
        assert args.p == defaults.p
        assert args.vqe_reps == defaults.vqe_reps
        assert args.shots == defaults.shots
        assert args.epsilon == defaults.epsilon
        assert args.spsa_iters == defaults.spsa_iters
        assert cli._parse_seeds(args.seeds) == defaults.seeds
        assert args.columns is None and defaults.columns is None
        assert args.no_normalize is not defaults.normalize


class TestExitCodes:
    def test_unknown_dataset_is_validation_error(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--dataset", "nope")) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_is_validation_error(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--algo", "bogus")) == 1

    def test_missing_column_is_validation_error(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--columns", "mpg,cylinders")) == 1
        assert "cylinders" in capsys.readouterr().err

    def test_zero_epsilon_rejected_before_compute(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--epsilon", "0")) == 1
        assert "epsilon" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_duplicate_header_is_validation_error(self, tmp_path, capsys):
        dup = tmp_path / "dup.csv"
        dup.write_text("a,a,b\n1.0,2.0,3.0\n4.0,5.0,6.0\n", encoding="utf-8")
        assert main(run_args(tmp_path, "--dataset", str(dup))) == 1
        err = capsys.readouterr().err
        assert "dup.csv" in err and "'a'" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_rejected_before_compute(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b\n1.0,2.0\n{cell},3.0\n4.0,6.0\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(run_args(tmp_path, "--dataset", str(bad))) == 1
        err = capsys.readouterr().err
        assert f"bad.csv: non-finite value {cell!r} at row 2, column 'a'" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_format_rejected_before_compute(self, tmp_path, capsys, monkeypatch):
        def no_compute(config):
            raise AssertionError("run_benchmark called")

        monkeypatch.setattr(cli, "run_benchmark", no_compute)
        assert main(run_args(tmp_path, "--format", "xml")) == 1
        assert "'xml'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_spsa_iters_named(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--spsa-iters", "0")) == 1
        assert "spsa_iters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    @pytest.mark.parametrize("kind", ["file", "dangling symlink"])
    def test_unusable_out_rejected_before_compute(
        self, tmp_path, capsys, monkeypatch, out, kind
    ):
        # an existing file used to fail with exit 2 after the whole run
        def no_compute(config):
            raise AssertionError("run_benchmark called")

        monkeypatch.setattr(cli, "run_benchmark", no_compute)
        if kind == "file":
            (tmp_path / "taken").write_text("", encoding="utf-8")
        else:
            (tmp_path / "taken").symlink_to(tmp_path / "missing")
        args = run_args(tmp_path, "--out", str(tmp_path / out))
        assert main(args) == 1
        assert f"{tmp_path / 'taken'} is not a directory" in capsys.readouterr().err

    def test_unwritable_out_rejected_before_compute(self, tmp_path, capsys, monkeypatch):
        def no_compute(config):
            raise AssertionError("run_benchmark called")

        monkeypatch.setattr(cli, "run_benchmark", no_compute)
        # permission bits do not bind root, so the access check is faked
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(run_args(tmp_path, "--out", str(tmp_path / "new" / "out"))) == 1
        assert f"{tmp_path} is not writable" in capsys.readouterr().err

    def test_out_with_no_existing_part_named(self, tmp_path, capsys, monkeypatch):
        def no_compute(config):
            raise AssertionError("run_benchmark called")

        monkeypatch.setattr(cli, "run_benchmark", no_compute)
        # a relative path in a removed working directory can find no part
        monkeypatch.setattr(cli.os.path, "lexists", lambda path: False)
        assert main(run_args(tmp_path, "--out", "gone/out")) == 1
        assert "--out gone/out: no part of the path exists" in capsys.readouterr().err

    def test_non_utf8_csv_named(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("name,a\nJos\xe9,1.0\nAna,2.0\n".encode("latin-1"))
        # it used to exit 2 with a decoding error that named no file
        assert main(run_args(tmp_path, "--dataset", str(bad))) == 1
        assert "latin1.csv: not UTF-8 text (byte 0xe9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("name,label\nx,0\ny,1\n", "no feature columns"),
            # csv's field limit used to end the run with exit 2, naming no file
            ("name,a\nx," + "1" * 131073 + "\ny,2.0\n",
             "line 2: field larger than field limit (131072)"),
        ],
        ids=["empty", "no_features", "oversized_cell"],
    )
    def test_unusable_csv_named(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        assert main(run_args(tmp_path, "--dataset", str(bad))) == 1
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, message", [("--columns", "columns list is empty"),
                                               ("--format", "format list is empty")])
    def test_empty_list_flag_named(self, tmp_path, capsys, flag, message):
        assert main(run_args(tmp_path, flag, ",")) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, a, b", [("--seeds", "1", "2"), ("--columns", "mpg", "hp"),
                                            ("--format", "json", "csv")])
    @pytest.mark.parametrize("shape, position", [("{a},,{b}", 2), ("{a},{b},", 3), (",{a}", 1)])
    def test_empty_entry_named(self, tmp_path, capsys, flag, a, b, shape, position):
        # an empty entry used to be dropped: --seeds 1,,2 ran as 1,2 and exited 0
        value = shape.format(a=a, b=b)
        assert main(run_args(tmp_path, flag, value)) == 1
        assert f"error: {flag}: entry {position} of {value!r} is empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_seeds_is_validation_error(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--seeds", "1,x")) == 1

    def test_repeated_column_is_validation_error(self, tmp_path, capsys):
        # mpg,mpg used to run and read mpg twice, moving the max cut
        assert main(run_args(tmp_path, "--algo", "exact", "--columns", "mpg,mpg")) == 1
        err = capsys.readouterr().err
        assert "cars.csv" in err and "'mpg'" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_repeated_seed_rejected_before_compute(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--seeds", "1,2,1")) == 1
        assert "seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("formats, repeated", [("json,json", "json"), ("csv,md,csv", "csv")])
    def test_repeated_format_rejected_before_compute(self, tmp_path, capsys, monkeypatch, formats, repeated):
        # json,json used to run and exit 0
        def no_compute(config):
            raise AssertionError("run_benchmark called")

        monkeypatch.setattr(cli, "run_benchmark", no_compute)
        assert main(run_args(tmp_path, "--format", formats)) == 1
        assert f"error: format {repeated!r} appears more than once in --format" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shots_over_int64_rejected_before_load(self, tmp_path, capsys, monkeypatch):
        # it used to run the whole benchmark and then fail every seed in
        # sampling: "Python int too large to convert to C long", exit 2
        def no_load(*args, **kwargs):
            raise AssertionError("load_dataset called")

        monkeypatch.setattr(bench, "load_dataset", no_load)
        shots = "100000000000000000000"
        assert main(run_args(tmp_path, "--algo", "exact", "--seeds", "1", "--shots", shots)) == 1
        err = capsys.readouterr().err
        assert f"shots must be <= {2**63 - 1} (the int64 limit), got {shots}" in err
        assert not (tmp_path / "out").exists()
        assert RunConfig(dataset="cars", shots=2**63 - 1).shots == 2**63 - 1

    @staticmethod
    def over_cap_args(tmp_path):
        rows = "\n".join(f"r{i},{i}.0" for i in range(15))
        big = tmp_path / "big.csv"
        big.write_text("name,a\n" + rows + "\n", encoding="utf-8")
        return run_args(tmp_path, "--dataset", str(big), "--algo", "qaoa", "--seeds", "1")

    def test_over_cap_rejected_before_compute(self, tmp_path, capsys):
        # 15 rows exceed the 14-qubit cap
        assert main(self.over_cap_args(tmp_path)) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'big.csv'}: 15 data rows exceed the cap of 14 qubits" in err
        assert not (tmp_path / "out").exists()

    def test_over_cap_rejected_before_distances(self, tmp_path, capsys, monkeypatch):
        def no_distances(points):
            raise AssertionError("euclidean_weights called")

        monkeypatch.setattr(bench, "euclidean_weights", no_distances)
        assert main(self.over_cap_args(tmp_path)) == 1
        assert "cap of 14" in capsys.readouterr().err

    def test_runtime_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli, "run_benchmark", broken)
        assert main(run_args(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("runtime failure: disk on fire")

    def test_failed_run_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # sampling fails for exact's seed 2: every exact seed fails with the
        # stage named, ws-QAOA completes, and report.json is still written
        sample_run = bench.sample_run

        def fail_seed_2(config, seed, problem, final):
            if seed == 2 and final["params"] is None:
                raise RuntimeError("sampling broke")
            return sample_run(config, seed, problem, final)

        monkeypatch.setattr(bench, "sample_run", fail_seed_2)
        assert main(run_args(tmp_path, "--algo", "all")) == 2
        failed = [
            {"seed": s, "error": f"exact run (seed {s}) failed during sampling: sampling broke"}
            for s in (1, 2)
        ]
        err = capsys.readouterr().err
        for f in failed:
            assert f"exact: seed {f['seed']} failed: {f['error']}" in err
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["algorithms"]["exact"] == {"runs": [], "failed": failed}
        block = report["algorithms"]["ws-qaoa"]
        assert [r["seed"] for r in block["runs"]] == [1, 2]
        assert block["failed"] == []

    def test_relaxation_failing_every_seed_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise ArithmeticError("no ascent")

        monkeypatch.setattr(bench, "relax_qubo", broken)
        assert main(run_args(tmp_path)) == 2
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["algorithms"]["ws-qaoa"] == {
            "runs": [],
            "failed": [
                {"seed": s, "error": f"ws-qaoa run (seed {s}) failed during relaxation: no ascent"}
                for s in (1, 2)
            ],
        }
        timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
        assert timings["per_run"]["ws-qaoa"] == {}
        assert not (out / "histogram_ws-qaoa.csv").exists()
        with open(out / "table.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["Item", "Label", "ws-qaoa"]
        assert [row[2] for row in rows] == ["-"] * len(rows)

    def test_missing_subcommand_is_validation_error(self, capsys):
        assert main([]) == 1
