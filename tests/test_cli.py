"""CLI tests: exit codes, flag parsing, and output files."""

import json

import pytest

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

    def test_bad_seeds_is_validation_error(self, tmp_path, capsys):
        assert main(run_args(tmp_path, "--seeds", "1,x")) == 1

    def test_runtime_failure_is_exit_2(self, tmp_path, capsys):
        # 15 rows exceed the statevector cap: every run fails at
        # graph build, which is a runtime failure, not bad input
        rows = "\n".join(f"r{i},{i}.0" for i in range(15))
        big = tmp_path / "big.csv"
        big.write_text("name,a\n" + rows + "\n", encoding="utf-8")
        code = main(["run", "--dataset", str(big), "--algo", "qaoa", "--seeds", "1",
                     "--spsa-iters", "10", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_subcommand_is_validation_error(self, capsys):
        assert main([]) == 1
