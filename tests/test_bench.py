"""Tests for the benchmark harness: dataset loading, per-run records,
aggregation, and report emission."""

import csv
import dataclasses
import json
import os
import re
import sys
import time
import warnings

import numpy as np
import pytest

import cutclust.bench as bench
from cutclust.ansatz import WarmStart
from cutclust.bench import (
    BenchmarkReport,
    RunConfig,
    assign_clusters,
    build_problem,
    cluster_accuracy,
    emit_report,
    load_dataset,
    most_probable_index,
    resolve_dataset,
    run_benchmark,
    shipped_datasets,
)
from cutclust.cli import main
from cutclust.errors import ValidationError
from cutclust.graph_model import cut_value, euclidean_weights, qubo_from_graph
from cutclust.optimizer import make_objective, spsa_minimize
from cutclust.relaxation import clip_cstar, relax_qubo


@pytest.fixture(scope="module")
def cars_path():
    return shipped_datasets()["cars"]


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def run_one(config, algorithm, seed):
    """The report.json entry of ``algorithm`` run for ``seed`` alone on
    ``config``'s dataset, which must not fail."""
    report = run_benchmark(dataclasses.replace(config, algorithm=algorithm, seeds=(seed,)))
    block = report.payload["algorithms"][algorithm]
    assert block["failed"] == []
    return block["runs"][0]


def same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(a, b):
    """``a`` equals ``b`` exactly: dicts key for key, lists and tuples item
    for item, arrays by dtype, shape and bytes, anything else by ``==``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and same_array(a, b)
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def as_lists(obj):
    """``obj`` with every array turned into a list, for ``json.dumps``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    return obj


def histogram_text(probs, n: int) -> bytes:
    """A histogram as a row-by-row writer makes it."""
    lines = ["bitstring,probability"] + [
        f"{k:0{n}b},{p!r}" for k, p in enumerate(probs.tolist())
    ]
    return ("\r\n".join(lines) + "\r\n").encode()


class TestShippedDatasets:
    def test_both_files_present(self):
        shipped = shipped_datasets()
        assert set(shipped) == {"cars", "wine"}

    def test_cars_shape(self, cars_path):
        ds = load_dataset(cars_path)
        assert ds.points.shape == (5, 3)
        assert ds.labels == (1, 1, 0, 0, 0)
        assert ds.names[0] == "Honda Civic"

    def test_wine_shape(self):
        ds = load_dataset(shipped_datasets()["wine"])
        assert ds.points.shape == (6, 13)
        assert ds.labels == (0, 1, 1, 0, 0, 1)

    def test_resolve_by_name_and_path(self, cars_path):
        assert resolve_dataset("cars") == cars_path
        assert resolve_dataset("cars.csv") == cars_path
        assert resolve_dataset(str(cars_path)) == cars_path

    def test_resolve_unknown(self):
        with pytest.raises(ValidationError, match="shipped"):
            resolve_dataset("no_such_dataset")


class TestLoadDataset:
    def test_normalized_columns_are_standard(self, cars_path):
        ds = load_dataset(cars_path)
        np.testing.assert_allclose(ds.points.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.points.std(axis=0), 1.0, atol=1e-12)

    def test_no_normalize_keeps_raw_values(self, cars_path):
        ds = load_dataset(cars_path, normalize=False)
        assert ds.points[0, 0] == 30.4
        assert ds.points[4, 1] == 335.0

    def test_column_subset(self, cars_path):
        ds = load_dataset(cars_path, columns=("mpg", "wt"))
        assert ds.points.shape == (5, 2)

    def test_missing_column_named_in_error(self, cars_path):
        with pytest.raises(ValidationError, match="cylinders"):
            load_dataset(cars_path, columns=("mpg", "cylinders"))

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        p = write_csv(tmp_path, "name,a,b\nx,1.0,2.0\ny,oops,3.0\n")
        with pytest.raises(ValidationError, match="row 2.*'a'"):
            load_dataset(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_non_finite_cell_reports_file_row_and_column(self, tmp_path, cell, normalize):
        # checked before z-scoring, which would spread a NaN over its column
        p = write_csv(tmp_path, f"name,a,b\nx,1.0,2.0\ny,3.0,{cell}\nz,4.0,5.0\n")
        with pytest.raises(ValidationError) as exc:
            load_dataset(p, normalize=normalize)
        assert str(exc.value) == f"{p}: non-finite value {cell!r} at row 2, column 'b'"

    def test_column_whose_spread_overflows_named(self, tmp_path):
        # its variance used to overflow and z-score it silently to zeros
        p = write_csv(tmp_path, "a,b\n1.0,1e308\n2.0,-1e308\n3.0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                load_dataset(p)
        assert str(exc.value) == f"{p}: column 'b' overflows float64 when z-scored (mean 0.0, std inf)"

    def test_column_whose_mean_overflows_named(self, tmp_path):
        # it used to fail as a non-finite feature in row 0, naming neither
        # the file nor the column
        p = write_csv(tmp_path, "a,b\n1.0,1e308\n2.0,1e308\n3.0,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                load_dataset(p)
        assert str(exc.value) == f"{p}: column 'b' overflows float64 when z-scored (mean inf, std inf)"

    def test_constant_column_centered_not_scaled(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1.0,5.0\n2.0,5.0\n3.0,5.0\n")
        ds = load_dataset(p)
        np.testing.assert_array_equal(ds.points[:, 1], np.zeros(3))
        np.testing.assert_allclose(ds.points[:, 0].std(), 1.0)

    def test_bad_label_rejected(self, tmp_path):
        p = write_csv(tmp_path, "label,a\n2,1.0\n0,2.0\n")
        with pytest.raises(ValidationError, match="label"):
            load_dataset(p)

    def test_label_not_a_feature(self, tmp_path):
        p = write_csv(tmp_path, "label,a\n0,1.0\n1,2.0\n")
        ds = load_dataset(p)
        assert ds.points.shape == (2, 1)
        assert ds.labels == (0, 1)

    def test_reserved_column_as_feature_rejected(self, cars_path):
        with pytest.raises(ValidationError, match="reserved"):
            load_dataset(cars_path, columns=("label",))

    def test_ragged_row_rejected(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_dataset(p)

    def test_single_row_rejected(self, tmp_path):
        p = write_csv(tmp_path, "a\n1.0\n")
        with pytest.raises(ValidationError):
            load_dataset(p)

    def test_byte_order_mark_dropped(self, tmp_path):
        # a spreadsheet's BOM used to become part of the first column name
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfname,a\nx,1.0\ny,2.0\n")
        ds = load_dataset(p)
        assert ds.columns == ("a",)
        assert ds.names == ("x", "y")

    def test_non_utf8_file_named(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"name,a\nJos\xe9,1.0\nAna,2.0\n")
        with pytest.raises(ValidationError) as exc:
            load_dataset(p)
        assert str(exc.value) == f"{p}: not UTF-8 text (byte 0xe9: invalid continuation byte)"

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("body", ["", "1.0,2.0\n"], ids=["header_only", "one_row"])
    def test_fewer_than_two_rows_named_before_scaling(self, tmp_path, body, normalize):
        # z-scoring no rows used to warn twice before the row count was checked
        p = write_csv(tmp_path, "a,b\n" + body)
        with pytest.raises(ValidationError) as exc:
            load_dataset(p, normalize=normalize)
        assert str(exc.value) == f"{p}: need at least 2 data rows, got {body.count(chr(10))}"

    def test_repeated_column_named(self, cars_path):
        with pytest.raises(ValidationError, match=r"cars\.csv: column 'hp' is selected more than once"):
            load_dataset(cars_path, columns=("hp", "mpg", "hp"))

    def test_columns_recorded(self, cars_path):
        assert load_dataset(cars_path).columns == ("mpg", "hp", "wt")
        assert load_dataset(cars_path, columns=("wt", "mpg")).columns == ("wt", "mpg")


class TestClusterAssignment:
    def test_bits_follow_row_order(self):
        assert assign_clusters(0b00011, 5) == (1, 1, 0, 0, 0)
        assert assign_clusters(0, 3) == (0, 0, 0)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            assign_clusters(8, 3)

    def test_accuracy_exact_match(self):
        assert cluster_accuracy([1, 1, 0], [1, 1, 0]) == 1.0

    def test_accuracy_complement_match(self):
        assert cluster_accuracy([0, 0, 1], [1, 1, 0]) == 1.0

    def test_accuracy_partial(self):
        assert cluster_accuracy([1, 0, 0, 0, 0], [1, 1, 0, 0, 0]) == 0.8

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValidationError):
            cluster_accuracy([1, 0], [1, 0, 1])

    def test_accuracy_of_no_labels_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            cluster_accuracy([], [])


class TestMostProbable:
    def test_plain_argmax(self):
        assert most_probable_index(np.array([0.1, 0.6, 0.2, 0.1])) == 1

    def test_complement_pair_tie_prefers_qubit0_zero(self):
        probs = np.zeros(32)
        probs[0b00011] = 0.5
        probs[0b11100] = 0.5
        assert most_probable_index(probs) == 0b11100

    def test_non_complementary_tie_takes_lowest(self):
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        # 1 and 2 are complements on 2 qubits: keep even index
        assert most_probable_index(probs) == 2
        probs4 = np.zeros(8)
        probs4[[1, 5]] = 0.5
        assert most_probable_index(probs4) == 1


class TestRunAlgorithm:
    def test_exact_matches_truth_labels_up_to_flip(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        rec = run_one(cfg, "exact", 1)
        assert rec["accuracy"] == 1.0
        assert rec["energy_expectation"] == -rec["solution_objective"]

    def test_ws_qaoa_matches_exact_labels(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        exact = run_one(cfg, "exact", 1)
        ws = run_one(cfg, "ws-qaoa", 1)
        same = ws["labels"] == exact["labels"]
        flipped = [1 - v for v in ws["labels"]] == exact["labels"]
        assert same or flipped

    def test_objective_equals_cut_of_reported_bitstring(self):
        cfg = RunConfig(dataset="cars", seeds=(3,))
        graph = euclidean_weights(load_dataset(resolve_dataset("cars")))
        for algo in ("exact", "qaoa", "ws-qaoa", "vqe"):
            rec = run_one(cfg, algo, 3)
            assert rec["solution_objective"] == cut_value(graph, np.array(rec["labels"]))

    def test_energy_bounded_below_by_ground(self):
        cfg = RunConfig(dataset="cars", seeds=(2,))
        ground = run_one(cfg, "exact", 2)["energy_expectation"]
        for algo in ("qaoa", "ws-qaoa", "vqe"):
            rec = run_one(cfg, algo, 2)
            assert rec["energy_expectation"] >= ground - 1e-9

    def test_stage_timings_recorded_nonnegative(self):
        report = run_benchmark(RunConfig(dataset="cars", algorithm="ws-qaoa", seeds=(1,)))
        stages = report.timings["per_run"]["ws-qaoa"]["1"]
        assert set(stages) == {"graph_build", "relaxation", "optimization", "sampling"}
        assert all(v >= 0.0 for v in stages.values())

    def test_record_reproducible_from_seed(self):
        cfg = RunConfig(dataset="cars", seeds=(4,))
        a = run_one(cfg, "ws-qaoa", 4)
        b = run_one(cfg, "ws-qaoa", 4)
        assert_same(a, b)

    def test_unknown_algorithm(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        with pytest.raises(ValidationError):
            run_one(cfg, "annealing", 1)

    def test_failure_carries_stage_context(self, tmp_path, monkeypatch):
        # 15 rows exceed the dense-statevector cap: the file is rejected as
        # invalid input, as run_benchmark rejects it, before any distance
        # is computed
        def no_distances(points):
            raise AssertionError("euclidean_weights called")

        monkeypatch.setattr(bench, "euclidean_weights", no_distances)
        rows = "\n".join(f"r{i},{i}.0" for i in range(15))
        p = write_csv(tmp_path, "name,a\n" + rows + "\n")
        cfg = RunConfig(dataset=str(p), seeds=(1,))
        with pytest.raises(ValidationError) as exc:
            run_one(cfg, "qaoa", 1)
        assert str(exc.value) == f"{p}: 15 data rows exceed the cap of 14 qubits"

    def test_overflowing_distance_named_without_normalizing(self, tmp_path):
        # it used to fail as "weights must be finite", after two warnings
        # and without the file name
        p = write_csv(tmp_path, "a,b\n1.0,1e308\n2.0,-1e308\n3.0,0\n")
        cfg = RunConfig(dataset=str(p), normalize=False, algorithm="exact", seeds=(1,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                run_benchmark(cfg)
        assert str(exc.value) == f"{p}: the distance between rows 0 and 1 overflows float64"

    def test_probabilities_sum_to_one(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        for algo in ("exact", "qaoa", "ws-qaoa", "vqe"):
            rec = run_one(cfg, algo, 1)
            assert abs(sum(rec["probabilities"]) - 1.0) < 1e-9


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(dataset="cars")
        assert cfg.seeds == tuple(range(1, 11))
        assert cfg.selected_algorithms() == ("exact", "vqe", "qaoa", "ws-qaoa")

    def test_single_algorithm_selection(self):
        cfg = RunConfig(dataset="cars", algorithm="qaoa")
        assert cfg.selected_algorithms() == ("qaoa",)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "sa"},
            {"seeds": ()},
            {"p": 0},
            {"vqe_reps": -1},
            {"shots": 0},
            {"spsa_iters": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            RunConfig(dataset="cars", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"shots": 10.5}, "shots"),
            ({"p": 1.5}, "p"),
            ({"p": True}, "p"),
            ({"vqe_reps": 2.0}, "vqe_reps"),
            ({"spsa_iters": 30.0}, "spsa_iters"),
            ({"seeds": (1.5,)}, r"seeds\[0\]"),
            ({"seeds": (1, True)}, r"seeds\[1\]"),
        ],
        ids=["shots-float", "p-float", "p-bool", "vqe_reps-float", "spsa_iters-float",
             "seed-float", "seed-bool"],
    )
    def test_counts_must_be_integers(self, kwargs, name):
        # shots=10.5 drew 10 shots and divided by 10.5, and seed True was
        # written to report.json as true
        with pytest.raises(ValidationError, match=rf"^{name} must be an integer, got "):
            RunConfig(dataset="cars", **kwargs)

    def test_epsilon_range(self):
        for eps in (0.5, -0.01, 0.0):
            with pytest.raises(ValidationError, match="epsilon"):
                RunConfig(dataset="cars", epsilon=eps)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"epsilon": "0.1"}, "epsilon"),
            ({"epsilon": None}, "epsilon"),
            ({"epsilon": True}, "epsilon"),
            ({"normalize": "no"}, "normalize"),
            ({"columns": "mpg"}, "columns"),
            ({"columns": ["mpg"]}, "columns"),
            ({"dataset": 5}, "dataset"),
            ({"dataset": b"cars"}, "dataset"),
            ({"seeds": {1, 2}}, "seeds"),
            ({"seeds": 5}, "seeds"),
            ({"seeds": [1, 2]}, "seeds"),
            ({"seeds": "12"}, "seeds"),
        ],
        ids=["epsilon-str", "epsilon-none", "epsilon-bool", "normalize-str", "columns-str",
             "columns-list", "dataset-int", "dataset-bytes", "seeds-set", "seeds-int",
             "seeds-list", "seeds-str"],
    )
    def test_wrong_types_rejected_before_anything_is_written(self, kwargs, name, tmp_path):
        # epsilon "0.1" and None failed as a bare TypeError, normalize "no"
        # was echoed into report.json, and columns "mpg" was split into
        # the columns 'm', 'p' and 'g'; seeds {1, 2} and 5 failed as a bare
        # TypeError, and seeds [1, 2] made the frozen config unhashable
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=rf"^{name} must be "):
            emit_report(run_benchmark(RunConfig(**{"dataset": "cars", **kwargs})), out)
        assert not out.exists()

    def test_dataset_path_kept_as_str(self, cars_path, tmp_path):
        # a Path ran the whole benchmark, then failed in emit_report and
        # left a truncated report.json
        cfg = RunConfig(dataset=cars_path, algorithm="exact", seeds=(1,))
        assert cfg.dataset == str(cars_path)
        emit_report(run_benchmark(cfg), tmp_path / "path", ("json",))
        emit_report(run_benchmark(RunConfig(dataset=str(cars_path), algorithm="exact", seeds=(1,))),
                    tmp_path / "str", ("json",))
        report = (tmp_path / "path" / "report.json").read_bytes()
        assert report == (tmp_path / "str" / "report.json").read_bytes()

    def test_repeated_seed_named(self):
        with pytest.raises(ValidationError, match="seed 3 appears more than once"):
            RunConfig(dataset="cars", seeds=(3, 1, 3))

    def test_negative_seed_named(self):
        # it used to fail every run of that seed after the compute started
        with pytest.raises(ValidationError, match=r"^seeds\[1\] must be >= 0, got -2$"):
            RunConfig(dataset="cars", seeds=(1, -2))


@pytest.fixture(scope="module")
def small_report():
    cfg = RunConfig(
        dataset="cars",
        seeds=(1, 2, 3),
        spsa_iters=60,
    )
    return cfg, run_benchmark(cfg)


class TestRunBenchmark:
    def test_report_shape(self, small_report):
        _, report = small_report
        assert set(report.payload["algorithms"]) == {"exact", "vqe", "qaoa", "ws-qaoa"}
        for block in report.payload["algorithms"].values():
            assert len(block["runs"]) == 3
            assert len(block["runs"][0]["labels"]) == 5

    def test_schema_and_conventions(self, small_report):
        _, report = small_report
        p = report.payload
        assert p["schema_version"] == 1
        assert p["conventions"]["rng"] == "numpy-pcg64"
        for key in ("rotation", "bit_order", "ws_mixer", "energy"):
            assert key in p["conventions"]

    def test_exact_block_always_present(self):
        cfg = RunConfig(dataset="cars", algorithm="qaoa", seeds=(1,),
                        spsa_iters=30)
        report = run_benchmark(cfg)
        assert set(report.payload["algorithms"]) == {"qaoa"}
        assert report.payload["exact"]["max_cut"] > 0

    @pytest.mark.parametrize("algo", ["qaoa", "ws-qaoa", "vqe"])
    def test_seed_run_is_the_library_run(self, algo):
        # each seed's report entry is spsa_minimize on make_objective from
        # the seed's start point, bit for bit; ws-QAOA is warmed as a lone
        # relaxation of that seed warms it
        report = run_benchmark(RunConfig(dataset="cars", algorithm=algo, seeds=(1, 2), spsa_iters=30))
        problem = build_problem(load_dataset(resolve_dataset("cars")))
        qubo = qubo_from_graph(problem.graph)
        for run in report.payload["algorithms"][algo]["runs"]:
            seed = run["seed"]
            warm = None
            if algo == "ws-qaoa":
                relaxed = relax_qubo(qubo, seed)
                warm = WarmStart(clip_cstar(relaxed.c_star, 0.1))
            objective, dim = make_objective(algo, problem.ising, warm=warm)
            initial = np.random.default_rng([seed, 1]).uniform(-0.1, 0.1, dim)
            res = spsa_minimize(objective, initial, 30, seed)
            assert same_array(run["params"], res.best_params)
            assert run["calibrated_a"] == res.gain
            assert run["energy_expectation"] == res.best_value
            assert run["evaluations"] == res.evaluations

    def test_repeated_seed_gives_identical_runs(self):
        # a seed's run does not depend on the seeds advancing beside it
        alone = run_benchmark(
            RunConfig(dataset="cars", algorithm="ws-qaoa", seeds=(7,), spsa_iters=40)
        )
        beside = run_benchmark(
            RunConfig(dataset="cars", algorithm="ws-qaoa", seeds=(3, 7, 5), spsa_iters=40)
        )
        (r1,) = alone.payload["algorithms"]["ws-qaoa"]["runs"]
        r2 = beside.payload["algorithms"]["ws-qaoa"]["runs"][1]
        assert_same(r1, r2)

    def test_median_and_representative(self, small_report):
        _, report = small_report
        block = report.payload["algorithms"]["ws-qaoa"]
        energies = [r["energy_expectation"] for r in block["runs"]]
        assert block["median_energy_expectation"] == np.median(energies)
        rep = next(
            r for r in block["runs"] if r["seed"] == block["representative_seed"]
        )
        # odd run count: the representative attains the median exactly
        assert rep["energy_expectation"] == block["median_energy_expectation"]

    def test_representative_tie_goes_to_earliest_seed(self):
        # every exact run has the ground energy, so all of them tie
        report = run_benchmark(RunConfig(dataset="cars", algorithm="exact", seeds=(3, 1, 4, 2)))
        assert report.payload["algorithms"]["exact"]["representative_seed"] == 3

    def test_failed_run_recorded_report_still_emitted(self, small_report, monkeypatch, tmp_path):
        # sampling fails for exact's seed 2: every exact seed fails with the
        # stage named, and the other algorithms' blocks are unchanged
        cfg, clean = small_report
        real = bench.sample_run

        def flaky(config, seed, problem, final):
            if seed == 2 and final["params"] is None:
                raise RuntimeError("injected failure")
            return real(config, seed, problem, final)

        monkeypatch.setattr(bench, "sample_run", flaky)
        report = run_benchmark(cfg)
        assert report.payload["algorithms"]["exact"] == {
            "runs": [],
            "failed": [
                {"seed": s, "error": f"exact run (seed {s}) failed during sampling: injected failure"}
                for s in (1, 2, 3)
            ],
        }
        assert report.timings["per_run"]["exact"] == {}
        for algo in ("vqe", "qaoa", "ws-qaoa"):
            assert_same(report.payload["algorithms"][algo], clean.payload["algorithms"][algo])
        files = emit_report(report, tmp_path / "out")
        assert (tmp_path / "out" / "report.json") in files

    @pytest.mark.parametrize("stage", ["relaxation", "optimization", "sampling"])
    def test_fault_in_one_seed_fails_every_seed(self, stage, monkeypatch):
        # a fault that hits seed 2 alone, at any stage, fails both seeds
        relax_qubo, row_energies, draw_counts = bench.relax_qubo, bench.row_energies, bench.draw_counts

        def relax(qubo, seed, *rest):
            if seed == 2:
                raise ArithmeticError("no ascent")
            return relax_qubo(qubo, seed, *rest)

        def energies(prepare, ising, points, owners):
            values = row_energies(prepare, ising, points, owners)
            values[owners == 1] = np.nan  # slot 1 is seed 2
            return values

        def draw(probs, shots, seed):
            if seed == [2, 2]:
                raise ArithmeticError("no draws")
            return draw_counts(probs, shots, seed)

        name, fake, tail = {
            "relaxation": ("relax_qubo", relax, ": no ascent"),
            "optimization": ("row_energies", energies, "] (seed 2)"),
            "sampling": ("draw_counts", draw, ": no draws"),
        }[stage]
        monkeypatch.setattr(bench, name, fake)
        cfg = RunConfig(dataset="cars", algorithm="ws-qaoa", seeds=(1, 2), spsa_iters=30)
        report = run_benchmark(cfg)
        block = report.payload["algorithms"]["ws-qaoa"]
        assert block["runs"] == []
        assert [f["seed"] for f in block["failed"]] == [1, 2]
        for failure in block["failed"]:
            error = failure["error"]
            assert error.startswith(f"ws-qaoa run (seed {failure['seed']}) failed during {stage}: ")
            assert error.endswith(tail), error
        assert report.timings["per_run"]["ws-qaoa"] == {}

    def test_sampling_failure_names_the_stage(self, monkeypatch):
        def broken(*args):
            raise ArithmeticError("no draws")

        monkeypatch.setattr(bench, "draw_counts", broken)
        cfg = RunConfig(dataset="cars", algorithm="qaoa", seeds=(1,), spsa_iters=30)
        report = run_benchmark(cfg)
        assert report.payload["algorithms"]["qaoa"] == {
            "runs": [],
            "failed": [{"seed": 1, "error": "qaoa run (seed 1) failed during sampling: no draws"}],
        }
        assert report.timings["per_run"]["qaoa"] == {}

    def test_non_finite_seed_fails_every_seed(self, monkeypatch):
        # seeds advance in one batch; seed 2's rows turn NaN, and every seed
        # of each variational algorithm fails with the stage and seed 2
        # named, while exact completes
        cfg = RunConfig(dataset="cars", seeds=(1, 2, 3), spsa_iters=30)
        real = bench.row_energies

        def poisoned(prepare, ising, points, owners):
            values = real(prepare, ising, points, owners)
            values[owners == 1] = np.nan  # slot 1 is seed 2
            return values

        monkeypatch.setattr(bench, "row_energies", poisoned)
        algorithms = run_benchmark(cfg).payload["algorithms"]
        assert [r["seed"] for r in algorithms["exact"]["runs"]] == [1, 2, 3]
        assert algorithms["exact"]["failed"] == []
        for algo in ("vqe", "qaoa", "ws-qaoa"):
            block = algorithms[algo]
            assert block["runs"] == []
            assert [f["seed"] for f in block["failed"]] == [1, 2, 3]
            for failure in block["failed"]:
                error = failure["error"]
                assert error.startswith(
                    f"{algo} run (seed {failure['seed']}) failed during optimization: "
                    "objective returned non-finite value nan at params ["
                ), error
                assert error.endswith("] (seed 2)"), error

    def test_stage_times_split_evenly_across_the_batch(self, small_report):
        _, report = small_report
        for algorithm, per_seed in report.timings["per_run"].items():
            for stage in ("graph_build", "optimization"):
                assert len({t[stage] for t in per_seed.values()}) == 1, (algorithm, stage)

    def test_quoted_header_columns_recorded_as_read(self, tmp_path):
        p = write_csv(tmp_path, '"x,y",b,label\n0.0,1.0,0\n2.0,0.5,1\n1.0,3.0,0\n')
        report = run_benchmark(RunConfig(dataset=str(p), algorithm="exact", seeds=(1,)))
        assert report.payload["dataset"]["columns"] == ["x,y", "b"]

    def test_deterministic_payload(self, small_report):
        cfg, report = small_report
        again = run_benchmark(cfg)
        assert_same(report.payload, again.payload)

    def test_payload_arrays_are_read_only(self, small_report):
        _, report = small_report
        for algo, block in report.payload["algorithms"].items():
            for run in block["runs"]:
                probs = run["probabilities"]
                assert type(probs) is np.ndarray and probs.dtype == np.float64
                assert probs.shape == (2**5,) and not probs.flags.writeable
                with pytest.raises(ValueError):
                    probs[0] = 0.5
                if algo == "exact":
                    assert run["params"] is None
                    # every exact seed holds the one shared vector
                    assert probs is block["runs"][0]["probabilities"]
                    continue
                params = run["params"]
                assert type(params) is np.ndarray and params.dtype == np.float64
                assert params.ndim == 1 and not params.flags.writeable
                with pytest.raises(ValueError):
                    params[0] = 0.5

    @pytest.mark.parametrize("algo", ["exact", "all"])
    def test_exact_seeds_share_one_vector_at_13_rows(self, algo, tmp_path):
        # from 13 rows each exact seed is its own job; every job holds the
        # problem's one vector, uniform over the ground states and read-only
        path = write_csv(tmp_path, two_blobs(13))
        report = run_benchmark(RunConfig(dataset=str(path), algorithm=algo, seeds=(1, 2, 3), spsa_iters=2))
        exact = report.payload["exact"]
        runs = report.payload["algorithms"]["exact"]["runs"]
        assert [run["seed"] for run in runs] == [1, 2, 3]
        probs = runs[0]["probabilities"]
        assert all(run["probabilities"] is probs for run in runs)
        ground = [int(s, 2) for s in exact["ground_states"]]
        uniform = np.zeros(2**13)
        uniform[ground] = 1.0 / len(ground)
        assert same_array(probs, uniform) and not probs.flags.writeable
        for run in runs:
            assert run["bitstring"] == exact["bitstring"]
            assert run["labels"] == exact["labels"]


def two_blobs(rows: int) -> str:
    """A fixed CSV of ``rows`` distinct points in two groups."""
    points = [(4.0 * (i % 2) + 0.3 * i, (0.7 * i) % 1.1) for i in range(rows)]
    return "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points)


@pytest.fixture(scope="module")
def thirteen(tmp_path_factory):
    """A 13-row config and its report run in one process (one usable CPU)."""
    path = tmp_path_factory.mktemp("thirteen") / "rows13.csv"
    path.write_text(two_blobs(13), encoding="utf-8")
    cfg = RunConfig(dataset=str(path), seeds=(1, 2, 3), spsa_iters=3, vqe_reps=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
        return cfg, run_benchmark(cfg)


def assert_same_files(report, alone, tmp_path):
    """``report`` and ``alone`` write byte-equal report.json and histograms."""
    emit_report(report, tmp_path / "forked")
    emit_report(alone, tmp_path / "alone")
    names = ["report.json"] + [f"histogram_{a}.csv" for a in bench.ALGORITHMS]
    for name in names:
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


class TestForkedShares:
    """Jobs split across the usable CPUs, each worker pinned to its own.
    Two CPUs are stated here, and pinning is recorded, not done.  From 13
    qubits a job is one seed; by LPT on the gate weights, this process runs
    the lighter share, ``HERE_JOBS``, and one worker ``WORKER_JOBS``, each
    in the order LPT dealt them."""

    HERE_JOBS = [("ws-qaoa", (1,)), ("ws-qaoa", (3,)), ("vqe", (3,)), ("qaoa", (2,)),
                 ("exact", (1,)), ("exact", (2,)), ("exact", (3,))]
    WORKER_JOBS = [("ws-qaoa", (2,)), ("vqe", (1,)), ("vqe", (2,)), ("qaoa", (1,)), ("qaoa", (3,))]

    @pytest.fixture(autouse=True)
    def pins(self, monkeypatch, tmp_path):
        """Two usable CPUs; each ``sched_setaffinity`` call, from any
        process, is read back as ``(pid, cpus)``."""
        log = tmp_path / "pins"
        log.touch()

        def record(pid, cpus):
            assert pid == 0
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {' '.join(map(str, sorted(cpus)))}\n")

        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(bench.os, "sched_setaffinity", record)
        return lambda: [
            (int(pid), {int(c) for c in cpus}) for pid, *cpus in map(str.split, log.read_text().splitlines())
        ]

    def test_output_equals_one_process(self, thirteen, tmp_path, pins):
        cfg, alone = thirteen
        report = run_benchmark(cfg)
        # the worker on CPU 1, this process on CPU 0 while it ran, then restored
        calls = pins()
        assert [cpus for pid, cpus in calls if pid == os.getpid()] == [{0}, {0, 1}]
        assert [cpus for pid, cpus in calls if pid != os.getpid()] == [{1}]
        assert [(w["cpu"], w["jobs"]) for w in report.timings["workers"]] == [
            (0, self.HERE_JOBS), (1, self.WORKER_JOBS)
        ]
        assert [(w["cpu"], w["jobs"]) for w in alone.timings["workers"]] == [
            (None, [(a, (seed,)) for a in ("ws-qaoa", "vqe", "qaoa", "exact") for seed in (1, 2, 3)])
        ]
        assert all(w["max_rss_mb"] > 0 for w in report.timings["workers"] + alone.timings["workers"])
        assert_same(report.payload, alone.payload)
        for algo, per_seed in report.timings["per_run"].items():
            assert list(per_seed) == ["1", "2", "3"], algo
        for block in report.payload["algorithms"].values():
            for run in block["runs"]:
                assert not run["probabilities"].flags.writeable
                assert run["params"] is None or not run["params"].flags.writeable
        assert_same_files(report, alone, tmp_path)

    def test_below_13_qubits_output_equals_one_process(self, tmp_path, monkeypatch):
        # below 13 qubits a job is one algorithm over every seed
        path = write_csv(tmp_path, two_blobs(6))
        cfg = RunConfig(dataset=str(path), seeds=(1, 2, 3), spsa_iters=5)
        report = run_benchmark(cfg)
        assert [w["jobs"] for w in report.timings["workers"]] == [
            [("ws-qaoa", (1, 2, 3)), ("qaoa", (1, 2, 3)), ("exact", (1, 2, 3))], [("vqe", (1, 2, 3))]
        ]
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
        alone = run_benchmark(cfg)
        assert len(alone.timings["workers"]) == 1
        assert_same(report.payload, alone.payload)
        assert report.timings["per_run"].keys() == alone.timings["per_run"].keys()
        for algo, per_seed in report.timings["per_run"].items():
            assert list(per_seed) == ["1", "2", "3"], algo
        assert_same_files(report, alone, tmp_path)

    def test_each_worker_pins_itself_to_its_own_cpu(self, tmp_path, monkeypatch, pins):
        # three shares on CPUs 3, 5 and 8: this process takes the first
        path = write_csv(tmp_path, two_blobs(6))
        cfg = RunConfig(dataset=str(path), seeds=(1, 2), spsa_iters=3, vqe_reps=1)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {8, 3, 5})
        report = run_benchmark(cfg)
        workers = report.timings["workers"]
        assert [w["cpu"] for w in workers] == [3, 5, 8]
        assert sorted(a for w in workers for a, _ in w["jobs"]) == sorted(bench.ALGORITHMS)
        calls = pins()
        here = [cpus for pid, cpus in calls if pid == os.getpid()]
        assert here == [{3}, {3, 5, 8}]
        there = sorted((cpus for pid, cpus in calls if pid != os.getpid()), key=min)
        assert there == [{5}, {8}]
        assert len({pid for pid, _ in calls}) == 3

    def test_each_seed_equals_its_lone_run(self, thirteen):
        cfg, _ = thirteen
        report = run_benchmark(cfg)
        for seed in cfg.seeds:
            lone = run_benchmark(dataclasses.replace(cfg, seeds=(seed,))).payload["algorithms"]
            for algo, block in report.payload["algorithms"].items():
                (run,) = [r for r in block["runs"] if r["seed"] == seed]
                assert_same(run, lone[algo]["runs"][0])

    def test_fault_fails_its_own_job_on_any_cpu_count(self, thirteen, monkeypatch, tmp_path):
        # from 13 qubits a job is one seed: a fault in seed 2 fails that seed's
        # job alone, and every (algorithm, seed) runs once, on two CPUs or one
        cfg, clean = thirteen
        log, real_run, real_sample = tmp_path / "jobs", bench.run_seeds, bench.sample_run

        def counted(config, algorithm, problem):
            with open(log, "a") as fh:  # from this process or a worker
                fh.write(f"{algorithm} {' '.join(map(str, config.seeds))}\n")
            return real_run(config, algorithm, problem)

        def faulty(config, seed, problem, final):
            if seed == 2:
                raise RuntimeError("injected fault")
            return real_sample(config, seed, problem, final)

        def calls():
            jobs = sorted(map(str.split, log.read_text().splitlines()))
            log.unlink()
            return jobs

        monkeypatch.setattr(bench, "run_seeds", counted)
        monkeypatch.setattr(bench, "sample_run", faulty)
        forked = run_benchmark(cfg)
        assert len(forked.timings["workers"]) == 2
        forked_calls = calls()
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
        alone = run_benchmark(cfg)
        assert len(alone.timings["workers"]) == 1
        assert forked_calls == calls() == sorted([a, str(s)] for a in bench.ALGORITHMS for s in cfg.seeds)
        assert_same(forked.payload, alone.payload)
        for algo, block in forked.payload["algorithms"].items():
            assert [run["seed"] for run in block["runs"]] == [1, 3]
            assert_same(block["runs"], [r for r in clean.payload["algorithms"][algo]["runs"] if r["seed"] != 2])
            assert block["failed"] == [
                {"seed": 2, "error": f"{algo} run (seed 2) failed during sampling: injected fault"}
            ]
            assert list(forked.timings["per_run"][algo]) == ["1", "3"]

    def test_worker_without_result_raises_and_is_reaped(self, thirteen, monkeypatch):
        cfg, _ = thirteen
        parent, real = os.getpid(), bench.run_seeds

        def dying(config, *args):
            if os.getpid() != parent:
                os._exit(3)
            return real(config, *args)

        monkeypatch.setattr(bench, "run_seeds", dying)
        message = f"worker on CPU 1 for {self.WORKER_JOBS}: no result, exit status 3"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_benchmark(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_error_here_kills_and_reaps_workers(self, thirteen, monkeypatch, pins):
        cfg, _ = thirteen
        parent = os.getpid()

        def stuck_or_broken(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "run_seeds", stuck_or_broken)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(cfg)
        assert time.perf_counter() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # pinned to CPU 0 while the worker ran, then restored
        assert [cpus for pid, cpus in pins() if pid == parent] == [{0}, {0, 1}]

    def test_without_affinity_calls_one_process(self, monkeypatch, pins):
        # where os has no sched_getaffinity (macOS, say), nothing forks or pins
        def no_fork():
            raise AssertionError("forked without the affinity calls")

        monkeypatch.delattr(bench.os, "sched_getaffinity")
        monkeypatch.setattr(bench.os, "fork", no_fork)
        report = run_benchmark(RunConfig(dataset="cars", seeds=(1,), spsa_iters=2))
        assert [(w["cpu"], w["jobs"]) for w in report.timings["workers"]] == [
            (None, [(a, (1,)) for a in ("vqe", "ws-qaoa", "qaoa", "exact")])
        ]
        assert all(block["failed"] == [] for block in report.payload["algorithms"].values())
        assert pins() == []

    def test_two_jobs_of_nonzero_weight_fork_at_any_size(self, tmp_path, monkeypatch):
        # one seed and one SPSA iteration on 5 qubits still splits VQE from the rest
        cfg = RunConfig(dataset="cars", seeds=(1,), spsa_iters=1)
        report = run_benchmark(cfg)
        assert [(w["cpu"], w["jobs"]) for w in report.timings["workers"]] == [
            (0, [("ws-qaoa", (1,)), ("qaoa", (1,)), ("exact", (1,))]), (1, [("vqe", (1,))])
        ]
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
        alone = run_benchmark(cfg)
        assert [(w["cpu"], w["jobs"]) for w in alone.timings["workers"]] == [
            (None, [(a, (1,)) for a in ("vqe", "ws-qaoa", "qaoa", "exact")])
        ]
        assert_same_files(report, alone, tmp_path)

    @pytest.mark.parametrize("rows, algorithm", [(None, "exact"), (None, "qaoa"), (12, "ws-qaoa")],
                             ids=["cars-exact", "cars-qaoa", "rows12-ws-qaoa"])
    def test_one_job_of_nonzero_weight_runs_in_one_process(
        self, tmp_path, monkeypatch, pins, rows, algorithm
    ):
        # exact weighs nothing, and below 13 qubits one algorithm is one job
        def no_fork():
            raise AssertionError("forked with one job of nonzero weight")

        monkeypatch.setattr(bench.os, "fork", no_fork)
        dataset = "cars" if rows is None else str(write_csv(tmp_path, two_blobs(rows)))
        cfg = RunConfig(dataset=dataset, algorithm=algorithm, seeds=(1, 2), spsa_iters=3, vqe_reps=1)
        report = run_benchmark(cfg)
        assert [(w["cpu"], w["jobs"]) for w in report.timings["workers"]] == [(None, [(algorithm, (1, 2))])]
        assert report.payload["algorithms"][algorithm]["failed"] == []
        assert pins() == []

    # the perfbench workloads' argvs: cars-default, wine-ws-deep and synth14-kernels
    @pytest.mark.parametrize("argv, n, shares", [
        ({}, 5, [[(a, tuple(range(1, 11))) for a in ("ws-qaoa", "qaoa", "exact")],
                 [("vqe", tuple(range(1, 11)))]]),
        ({"algorithm": "ws-qaoa", "p": 4}, 6, [[("ws-qaoa", tuple(range(1, 11)))]]),
        ({"algorithm": "all", "seeds": (1, 2), "spsa_iters": 20}, 14, [
            [("vqe", (1,)), ("ws-qaoa", (1,)), ("qaoa", (1,)), ("exact", (1,)), ("exact", (2,))],
            [("vqe", (2,)), ("ws-qaoa", (2,)), ("qaoa", (2,))],
        ]),
    ], ids=["cars-default", "wine-ws-deep", "synth14-kernels"])
    def test_every_workload_keeps_its_plan(self, argv, n, shares):
        cfg = RunConfig(dataset="cars", **argv)
        assert bench._plan(cfg, cfg.selected_algorithms(), n) == ([0, 1], shares)


def table_csv(report, out) -> list[list[str]]:
    """The cells of the table.csv that ``report`` writes to ``out``."""
    emit_report(report, out, ("csv",))
    with open(out / "table.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def table_reference(report) -> list[list[str]]:
    """table.csv's cells built row by row: per algorithm its representative
    run's labels, energy, objective and summed stage times, or "-"."""
    payload, per_run = report.payload, report.timings["per_run"]
    ds = payload["dataset"]
    reps = {
        a: next((r for r in block["runs"] if r["seed"] == block.get("representative_seed")), None)
        for a, block in payload["algorithms"].items()
    }
    rows = [["Item", "Label", *reps]]
    for i in range(ds["n_rows"]):
        name = ds["names"][i] if ds["names"] is not None else f"row {i}"
        label = str(ds["labels"][i]) if ds["labels"] is not None else ""
        rows.append([name, label] + [str(r["labels"][i]) if r else "-" for r in reps.values()])
    rows.append(["Energy (Ha)", ""] + [repr(r["energy_expectation"]) if r else "-" for r in reps.values()])
    rows.append(["Solution Objective", ""] + [repr(r["solution_objective"]) if r else "-" for r in reps.values()])
    rows.append(["Process time (s)", ""] + [
        repr(sum(per_run[a][str(r["seed"])].values())) if r else "-" for a, r in reps.items()
    ])
    return rows


class TestEmitReport:
    def test_formats_select_files(self, small_report, tmp_path):
        _, report = small_report
        files = {f.name for f in emit_report(report, tmp_path / "a", ("json",))}
        assert files == {"report.json", "timings.json"}
        files = {f.name for f in emit_report(report, tmp_path / "b", ("md",))}
        assert files == {"table.md"}
        files = {f.name for f in emit_report(report, tmp_path / "c", ("csv",))}
        assert files == {
            "table.csv",
            "histogram_exact.csv",
            "histogram_vqe.csv",
            "histogram_qaoa.csv",
            "histogram_ws-qaoa.csv",
        }

    def test_unknown_format_rejected(self, small_report, tmp_path):
        _, report = small_report
        with pytest.raises(ValidationError, match="xml"):
            emit_report(report, tmp_path, ("xml",))

    def test_histogram_rows_sum_to_one(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path / "h", ("csv",))
        for algo in ("exact", "qaoa", "ws-qaoa", "vqe"):
            lines = (tmp_path / "h" / f"histogram_{algo}.csv").read_text().splitlines()
            assert lines[0] == "bitstring,probability"
            assert len(lines) == 1 + 2**5
            total = sum(float(line.split(",")[1]) for line in lines[1:])
            assert abs(total - 1.0) < 1e-9

    def test_histograms_sorted_by_index(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path / "s", ("csv",))
        lines = (tmp_path / "s" / "histogram_qaoa.csv").read_text().splitlines()[1:]
        keys = [int(line.split(",")[0], 2) for line in lines]
        assert keys == list(range(32))

    def test_reemit_byte_identical(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path / "e1")
        emit_report(report, tmp_path / "e2")
        for name in ("report.json", "timings.json", "table.csv", "table.md",
                     "histogram_ws-qaoa.csv"):
            a = (tmp_path / "e1" / name).read_bytes()
            b = (tmp_path / "e2" / name).read_bytes()
            assert a == b, name

    def test_table_layout(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path / "t", ("csv",))
        lines = (tmp_path / "t" / "table.csv").read_text().splitlines()
        assert lines[0] == "Item,Label,exact,vqe,qaoa,ws-qaoa"
        assert len(lines) == 1 + 5 + 3
        assert lines[6].startswith("Energy (Ha),")
        assert lines[7].startswith("Solution Objective,")
        assert lines[8].startswith("Process time (s),")

    def test_table_objective_cell_consistent_with_labels(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path / "cc", ("csv",))
        lines = (tmp_path / "cc" / "table.csv").read_text().splitlines()
        header = lines[0].split(",")
        label_rows = [line.split(",") for line in lines[1:6]]
        objective_row = lines[7].split(",")
        ds = load_dataset(resolve_dataset("cars"))
        graph = euclidean_weights(ds)
        for col, algo in enumerate(header[2:], start=2):
            bits = np.array([int(row[col]) for row in label_rows])
            assert float(objective_row[col]) == cut_value(graph, bits), algo

    def test_table_cells_are_the_representative_runs(self, small_report, tmp_path):
        _, report = small_report
        rows = table_csv(report, tmp_path / "cells")
        assert rows == table_reference(report)
        ds = report.payload["dataset"]
        items = [[name, str(label)] for name, label in zip(ds["names"], ds["labels"])]
        assert [row[:2] for row in rows[1:6]] == items

    def test_table_column_of_a_failed_algorithm(self, monkeypatch, tmp_path):
        # no name or label column: items are "row i" and Label cells empty;
        # exact fails, so its column is "-" throughout
        real = bench.sample_run

        def failing(config, seed, problem, final):
            if final["params"] is None:
                raise RuntimeError("injected failure")
            return real(config, seed, problem, final)

        monkeypatch.setattr(bench, "sample_run", failing)
        p = write_csv(tmp_path, "a,b\n0.0,1.0\n2.0,0.5\n1.0,3.0\n")
        report = run_benchmark(RunConfig(dataset=str(p), seeds=(1, 2), spsa_iters=5))
        assert report.payload["algorithms"]["exact"]["runs"] == []
        rows = table_csv(report, tmp_path / "failed")
        assert rows == table_reference(report)
        assert rows[0] == ["Item", "Label", "exact", "vqe", "qaoa", "ws-qaoa"]
        assert [row[:3] for row in rows[1:4]] == [[f"row {i}", "", "-"] for i in range(3)]
        assert [row[2] for row in rows[4:]] == ["-"] * 3

    def test_table_md_cells_escaped(self, tmp_path):
        # a "|" in a name used to add a cell to its row, and a line break
        # split the row across two lines
        p = write_csv(tmp_path, 'name,a\nx|y,0.0\n"two\nlines",5.0\nz,0.1\n')
        report = run_benchmark(RunConfig(dataset=str(p), algorithm="exact", seeds=(1,)))
        emit_report(report, tmp_path / "md", ("md",))
        text = (tmp_path / "md" / "table.md").read_text(encoding="utf-8")
        table = [line for line in text.splitlines() if line.startswith("|")]
        assert len(table) == 2 + 3 + 3
        for line in table:
            assert len(re.split(r"(?<!\\)\|", line)) == 3 + 2, line
        assert table[2].startswith("| x\\|y |")
        assert table[3].startswith("| two lines |")

    def test_report_json_deterministic_bytes(self, tmp_path):
        cfg = RunConfig(dataset="cars", algorithm="ws-qaoa", seeds=(1, 2),
                        spsa_iters=40)
        emit_report(run_benchmark(cfg), tmp_path / "d1", ("json",))
        emit_report(run_benchmark(cfg), tmp_path / "d2", ("json",))
        a = (tmp_path / "d1" / "report.json").read_bytes()
        b = (tmp_path / "d2" / "report.json").read_bytes()
        assert a == b

    def test_timings_are_nonnegative(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path / "tm", ("json",))
        data = json.loads((tmp_path / "tm" / "timings.json").read_text())
        assert data["total_s"] >= 0
        for algo_block in data["per_run"].values():
            for stages in algo_block.values():
                assert set(stages) == {
                    "graph_build", "relaxation", "optimization", "sampling"
                }
                assert all(v >= 0 for v in stages.values())


class TestReportWriter:
    """The streamed report.json writer against json.dumps, byte for byte."""

    @staticmethod
    def dumps(data):
        return json.dumps(data, indent=2, sort_keys=True, default=bench._json_default) + "\n"

    def written(self, data, tmp_path):
        path = tmp_path / "out.json"
        bench._dump_json(data, path)
        return path.read_text(encoding="utf-8")

    def test_matches_json_dumps(self, tmp_path):
        data = {
            "b": [],
            "a": {},
            "none": None,
            "flags": [True, False],
            "floats": [0.1, -0.0, 1e-300, 5e-324, float("nan"), float("inf"), -float("inf")],
            "mixed": [1, 2.5, "x", None, True, [], {}, [0.5, 0.25]],
            "nested": [[1.0, 2.0], [[3.0]], [[]], {"z": [4.0], "y": {"x": []}}],
            "numpy": {
                "int": np.int64(7),
                "float": np.float64(0.1),
                "float_list": [np.float64(0.3), 0.5],
            },
            "text": ["é\n\"q\"", ""],
            "tuple": (1.0, 2.0),
            "scalar": 3.0,
        }
        assert self.written(data, tmp_path) == self.dumps(data)

    def test_top_level_values(self, tmp_path):
        for data in ({}, [], [1.0], 2.0, "s", None):
            assert self.written(data, tmp_path) == self.dumps(data)

    def test_report_and_timings_match_json_dumps(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path, ("json",))
        expected = self.dumps(as_lists(report.payload))
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == expected
        assert (tmp_path / "timings.json").read_text(encoding="utf-8") == self.dumps(report.timings)

    def test_rejects_keys_json_rejects(self, tmp_path):
        with pytest.raises(TypeError):
            json.dumps({(1, 2): 0}, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="keys"):
            self.written({(1, 2): 0}, tmp_path)
        # int keys are written as json.dumps spells them; reports hold none
        data = {"a": {10: "ten", 2: "two"}}
        assert self.written(data, tmp_path) == self.dumps(data)

    def test_histogram_equals_row_by_row_writer(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path, ("csv",))
        for algo, block in report.payload["algorithms"].items():
            rep = next(r for r in block["runs"] if r["seed"] == block["representative_seed"])
            expected = histogram_text(rep["probabilities"], 5)
            assert (tmp_path / f"histogram_{algo}.csv").read_bytes() == expected

    @pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 3000])
    def test_float_arrays_written_as_lists(self, size, tmp_path):
        # sizes on both sides of the CHUNK = 1024 pieces the writer takes
        assert bench.CHUNK == 1024
        values = np.random.default_rng(size).standard_normal(size) ** 3
        values[::7] = 0.5
        # values that encode as the writer's {} stand-in do, or look like it,
        # sit next to the arrays
        nested = {"a": values, "b": [values, {}, "{}", [], {"c": values[::-1], "e": {}}],
                  "d": 1.0, "e": "{}", "f": []}
        assert self.written(nested, tmp_path) == self.dumps(as_lists(nested))
        assert self.written([values], tmp_path) == self.dumps([values.tolist()])
        assert self.written([{}, values, "{}", values], tmp_path) == self.dumps(
            [{}, values.tolist(), "{}", values.tolist()]
        )

    @pytest.mark.parametrize(
        "array", [np.arange(3), np.zeros((2, 2)), np.zeros(3, np.float32), np.zeros(0)]
    )
    def test_other_arrays_rejected(self, array, tmp_path):
        with pytest.raises(TypeError):
            self.written({"a": [array]}, tmp_path)

    def test_eleven_qubit_report_crosses_chunks(self, tmp_path):
        # 2048 states: two chunks for report.json and every histogram
        points = np.random.default_rng(11).standard_normal((11, 2))
        text = "a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in points.tolist())
        data = write_csv(tmp_path, text)
        report = run_benchmark(RunConfig(dataset=str(data), seeds=(1,), spsa_iters=1))
        emit_report(report, tmp_path / "out", ("json", "csv"))
        written = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        assert written == self.dumps(as_lists(report.payload))
        for algo, block in report.payload["algorithms"].items():
            (run,) = block["runs"]
            expected = histogram_text(run["probabilities"], 11)
            assert (tmp_path / "out" / f"histogram_{algo}.csv").read_bytes() == expected

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads a NUL byte from Python 3.11")
    def test_nul_name_written_as_json_dumps_does(self, tmp_path):
        # a NUL marker for the vectors made this input exit 2
        data = tmp_path / "nul.csv"
        data.write_bytes(b"name,x,y\n\0,1,2\nb,2,1\nc,0,3\nd,3,0\n")
        assert main(["run", "--dataset", str(data), "--seeds", "1", "--spsa-iters", "2",
                     "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        report = json.loads(text)
        assert report["dataset"]["names"][0] == "\0"
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "data",
        [{"a": "\ud800"}, {"\ud800": 1.0}, {"a": ['"\ud800', np.ones(3)]}],
        ids=["value", "key", "after_a_quote"],
    )
    def test_marker_text_raises_before_writing(self, data, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="marker"):
            self.written(data, tmp_path)
        assert not path.exists()

    def test_marker_in_payload_writes_no_file(self, small_report, tmp_path):
        _, report = small_report
        dataset = {**report.payload["dataset"], "names": ["\ud800"] * 5}
        report = BenchmarkReport(payload={**report.payload, "dataset": dataset}, timings=report.timings)
        with pytest.raises(ValueError, match="marker"):
            emit_report(report, tmp_path / "out", ("json", "csv"))
        assert list((tmp_path / "out").iterdir()) == []

    def test_numpy_float_is_written_as_its_float(self, tmp_path):
        # np.float32 is no float subclass, so the encoder hands it to _json_default
        cfg = RunConfig(dataset="cars", algorithm="exact", seeds=(1,), epsilon=np.float32(0.1))
        emit_report(run_benchmark(cfg), tmp_path, ("json",))
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["relaxation"]["epsilon"] == float(np.float32(0.1)) != 0.1


@pytest.fixture(scope="module")
def report11(tmp_path_factory):
    # 2048 states: two chunks per vector
    points = np.random.default_rng(12).standard_normal((11, 2))
    text = "a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in points.tolist())
    data = write_csv(tmp_path_factory.mktemp("data"), text)
    return run_benchmark(RunConfig(dataset=str(data), seeds=(1, 2), spsa_iters=1))


class TestHistogramsFromReportText:
    """Histograms take their probabilities' text from report.json's writer,
    or format it themselves without it; either way they equal a row-by-row
    writer's."""

    @pytest.mark.parametrize("formats", [("json", "csv"), ("csv",), ("csv", "md", "json")])
    def test_histograms_equal_row_by_row_writer(self, report11, formats, tmp_path):
        emit_report(report11, tmp_path, formats)
        for algo, block in report11.payload["algorithms"].items():
            rep = next(r for r in block["runs"] if r["seed"] == block["representative_seed"])
            expected = histogram_text(rep["probabilities"], 11)
            assert (tmp_path / f"histogram_{algo}.csv").read_bytes() == expected, algo

    def test_exact_runs_share_one_array_and_give_one_histogram(self, report11, tmp_path):
        first, second = report11.payload["algorithms"]["exact"]["runs"]
        assert first["probabilities"] is second["probabilities"]
        emit_report(report11, tmp_path, ("json", "csv"))
        expected = histogram_text(first["probabilities"], 11)
        assert (tmp_path / "histogram_exact.csv").read_bytes() == expected

    def test_shared_array_feeds_its_histogram_once(self, report11, tmp_path, monkeypatch):
        fed, real = [], bench._histogram_sink

        def counting(path, n):
            sink = real(path, n)
            return lambda lo, text: fed.append((path.name, lo)) or sink(lo, text)

        monkeypatch.setattr(bench, "_histogram_sink", counting)
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
        emit_report(report11, tmp_path, ("json", "csv"))
        assert [lo for name, lo in fed if name == "histogram_exact.csv"] == [0, bench.CHUNK]

    def test_paths_returned_in_order(self, report11, tmp_path):
        names = [p.name for p in emit_report(report11, tmp_path)]
        assert names == [
            "report.json", "timings.json", "table.csv",
            "histogram_exact.csv", "histogram_vqe.csv", "histogram_qaoa.csv",
            "histogram_ws-qaoa.csv", "table.md",
        ]
        names = [p.name for p in emit_report(report11, tmp_path, ("md", "csv"))]
        assert names[0] == "table.csv" and names[-1] == "table.md"

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 14])
    def test_bitstrings_equal_bitstring_str(self, n, tmp_path):
        # each chunk's text is its own indices, so row k must read "{bitstring of k},k"
        path = tmp_path / "histogram.csv"
        sink = bench._histogram_sink(path, n)
        for lo in range(0, 2**n, bench.CHUNK):
            sink(lo, ", ".join(map(str, range(lo, min(lo + bench.CHUNK, 2**n)))))
        text = path.read_bytes().decode("utf-8")
        assert text.endswith("\r\n")
        header, *rows = text[:-2].split("\r\n")
        assert header == "bitstring,probability"
        assert rows == [f"{bench.bitstring_str(k, n)},{k}" for k in range(2**n)]


def array_costs(payload) -> list[int]:
    """The non-zero count of each array of ``payload``, in the order
    report.json's writer writes them."""
    return [int(np.count_nonzero(a)) for a in bench._pieces(payload)[1]]


class TestSplitReport:
    """report.json written on several CPUs, one byte range of the
    one-process output per process: the same bytes at any cut.  Two CPUs
    are stated, and pinning is recorded, not done (as for the workers)."""

    pins = TestForkedShares.pins

    @staticmethod
    def files(report, out, formats):
        """The bytes of report.json and each histogram that ``formats`` writes."""
        emit_report(report, out, formats)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name.startswith(("report", "histogram"))}

    def one_process(self, report, out, formats, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
            return self.files(report, out, formats)

    def writers(self, pins) -> list[set]:
        return [cpus for pid, cpus in pins() if pid != os.getpid()]

    @pytest.mark.parametrize("formats", [bench.FORMATS, ("json",)])
    def test_every_cut_equals_one_process(self, report11, formats, tmp_path, monkeypatch, pins):
        one = self.one_process(report11, tmp_path / "one", formats, monkeypatch)
        assert len(one) == (5 if "csv" in formats else 1)
        arrays = len(array_costs(report11.payload))
        assert arrays == 14  # two exact vectors, and each variational run's params and vector
        monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", 0)
        for cut in range(1, arrays):
            monkeypatch.setattr(bench, "_cut", lambda costs, cut=cut: cut)
            assert self.files(report11, tmp_path / str(cut), formats) == one, cut
        assert self.writers(pins) == [{1}] * (arrays - 1)

    def test_fourteen_qubits_at_the_rules_cut(self, tmp_path, monkeypatch, pins):
        points = np.random.default_rng(14).standard_normal((14, 2))
        text = "a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in points.tolist())
        data = write_csv(tmp_path, text)
        report = run_benchmark(RunConfig(dataset=str(data), seeds=(1, 2), spsa_iters=1, vqe_reps=1))
        costs = array_costs(report.payload)
        # exact's shared vector twice, then per run its params and a dense vector
        assert len(costs) == 14 and costs[3::2] == [2**14] * 6 and sum(costs[:2]) < 10
        assert bench._cut(costs) == 8
        spied = []
        real = bench._pinned_forks
        monkeypatch.setattr(bench, "_pinned_forks", lambda *args: spied.append(args[:3]) or real(*args))
        workers = len(self.writers(pins))
        split = self.files(report, tmp_path / "split", bench.FORMATS)
        assert spied == [("report writer", [0, 1], [range(8, 14)])]
        assert self.writers(pins)[workers:] == [{1}]
        assert split == self.one_process(report, tmp_path / "one", bench.FORMATS, monkeypatch)
        assert split["report.json"].decode() == TestReportWriter.dumps(as_lists(report.payload))

    def test_cut_balances_non_zero_floats(self):
        assert bench._cut([5, 5, 5, 5]) == 2
        assert bench._cut([9, 1, 1, 1]) == 1
        assert bench._cut([1, 1, 1, 9]) == 3
        # the nearest boundary, the lower on a tie; neither range is empty
        assert bench._cut([3, 3, 3]) == 1
        assert bench._cut([6, 0, 0, 6]) == 1
        assert bench._cut([10, 0]) == 1
        assert bench._cut([0, 0]) == 1

    def test_ranges_follow_non_zero_counts(self, tmp_path, monkeypatch, pins):
        # non-zero counts 6000, 1000, 6000 and 100, whatever the sizes: ranges of
        # 7000 and 6100, and one writer though three CPUs are usable
        sizes_and_counts = [(6000, 6000), (8000, 1000), (6000, 6000), (3000, 100)]
        arrays = []
        for i, (size, count) in enumerate(sizes_and_counts):
            values = np.zeros(size)
            values[:count] = np.random.default_rng(i).random(count) + 0.5
            arrays.append(values)
        data = {"v": arrays, "w": {"x": 1.5}}
        assert array_costs(data) == [6000, 1000, 6000, 100]
        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        spied = []
        real = bench._pinned_forks
        monkeypatch.setattr(bench, "_pinned_forks", lambda *args: spied.append(args[1:3]) or real(*args))
        for least, ranges in [(0, [range(2, 4)]), (6099, [range(2, 4)]), (6100, None)]:
            monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", least)
            spied.clear()
            bench._dump_json(data, tmp_path / "out.json")
            assert spied == ([] if ranges is None else [([0, 1, 2], ranges)]), least
            expected = json.dumps(as_lists(data), indent=2, sort_keys=True) + "\n"
            assert (tmp_path / "out.json").read_text(encoding="utf-8") == expected

    def test_writer_without_result_raises_and_is_reaped(self, report11, tmp_path, monkeypatch, pins):
        parent, real = os.getpid(), bench._float_text

        def dying(chunk):
            if os.getpid() != parent:
                os._exit(3)
            return real(chunk)

        monkeypatch.setattr(bench, "_float_text", dying)
        monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", 0)
        cut = bench._cut(array_costs(report11.payload))
        message = f"report writer on CPU 1 for range({cut}, 14): no result, exit status 3"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            emit_report(report11, tmp_path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # pinned to CPU 0 while the writer ran, then restored
        assert [cpus for pid, cpus in pins() if pid == parent] == [{0}, {0, 1}]

    def test_writer_runs_no_encoder(self, report11, tmp_path, monkeypatch, pins):
        # the pieces are known before the fork: an encoding pass in the writer ends it
        parent, real = os.getpid(), bench._pieces

        def parent_only(data):
            if os.getpid() != parent:
                os._exit(3)
            return real(data)

        one = self.one_process(report11, tmp_path / "one", bench.FORMATS, monkeypatch)
        monkeypatch.setattr(bench, "_pieces", parent_only)
        monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", 0)
        assert self.files(report11, tmp_path / "split", bench.FORMATS) == one
        assert self.writers(pins) == [{1}]

    def test_error_here_kills_and_reaps_writers(self, report11, tmp_path, monkeypatch, pins):
        parent = os.getpid()

        def stuck_or_broken(chunk):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "_float_text", stuck_or_broken)
        monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", 0)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            emit_report(report11, tmp_path)
        assert time.perf_counter() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [cpus for pid, cpus in pins() if pid == parent] == [{0}, {0, 1}]

    @pytest.mark.parametrize("case", ["one CPU", "no sched_getaffinity", "no memfd_create", "at the threshold"])
    def test_one_process_never_forks(self, report11, case, tmp_path, monkeypatch, pins):
        def no_fork():
            raise AssertionError(f"forked with {case}")

        costs = array_costs(report11.payload)
        lightest = min(sum(costs[:8]), sum(costs[8:]))
        assert bench._cut(costs) == 8
        one = self.one_process(report11, tmp_path / "one", bench.FORMATS, monkeypatch)
        monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", 0)
        if case == "one CPU":
            monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
        elif case.startswith("no "):
            monkeypatch.delattr(bench.os, case[3:])
        else:
            monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", lightest)
        real_fork = bench.os.fork
        monkeypatch.setattr(bench.os, "fork", no_fork)
        assert self.files(report11, tmp_path / "here", bench.FORMATS) == one
        assert pins() == []
        if case == "at the threshold":  # one float less, and it forks
            monkeypatch.setattr(bench.os, "fork", real_fork)
            monkeypatch.setattr(bench, "SPLIT_MIN_FLOATS", lightest - 1)
            assert self.files(report11, tmp_path / "split", bench.FORMATS) == one
            assert self.writers(pins) == [{1}]


class TestMedian:
    """bench's sorted-list median against np.median, bit for bit."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 11])
    def test_equals_numpy_median(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            values = rng.normal(scale=100.0, size=size) - 30.0
            assert bench._median(values) == float(np.median(values))
            assert bench._median(values.tolist()) == float(np.median(values))

    @pytest.mark.parametrize(
        "values",
        [
            [-1.5, -1.5],
            [2.0, -3.0, 2.0, -3.0],
            [-0.1, -0.2, -0.1, -0.30000000000000004, 0.7, -0.1],
            [-143.73583376839562, -143.73583376840614],
            [1e-300, -1e-300, 5e-324],
            [-7.0, -7.0, -7.0],
        ],
    )
    def test_ties_and_negatives(self, values):
        got = bench._median(iter(values))
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(np.median(values)).tobytes()
