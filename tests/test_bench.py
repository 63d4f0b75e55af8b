"""Tests for the benchmark harness: dataset loading, per-run records,
aggregation, and report emission."""

import json
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
    run_algorithm,
    run_benchmark,
    shipped_datasets,
)
from cutclust.errors import ValidationError
from cutclust.graph_model import cut_value, euclidean_weights, qubo_from_graph
from cutclust.optimizer import make_objective, spsa_minimize
from cutclust.relaxation import RelaxConfig, clip_cstar, relax_qubo


@pytest.fixture(scope="module")
def cars_path():
    return shipped_datasets()["cars"]


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


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
        rec = run_algorithm(cfg, "exact", 1)
        assert rec.accuracy == 1.0
        assert rec.energy_expectation == -rec.solution_objective

    def test_ws_qaoa_matches_exact_labels(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        exact = run_algorithm(cfg, "exact", 1)
        ws = run_algorithm(cfg, "ws-qaoa", 1)
        same = ws.labels == exact.labels
        flipped = tuple(1 - v for v in ws.labels) == exact.labels
        assert same or flipped

    def test_objective_equals_cut_of_reported_bitstring(self):
        cfg = RunConfig(dataset="cars", seeds=(3,))
        graph = euclidean_weights(load_dataset(resolve_dataset("cars")))
        for algo in ("exact", "qaoa", "ws-qaoa", "vqe"):
            rec = run_algorithm(cfg, algo, 3)
            assert rec.solution_objective == cut_value(graph, np.array(rec.labels))

    def test_energy_bounded_below_by_ground(self):
        cfg = RunConfig(dataset="cars", seeds=(2,))
        ground = run_algorithm(cfg, "exact", 2).energy_expectation
        for algo in ("qaoa", "ws-qaoa", "vqe"):
            rec = run_algorithm(cfg, algo, 2)
            assert rec.energy_expectation >= ground - 1e-9

    def test_stage_timings_recorded_nonnegative(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        rec = run_algorithm(cfg, "ws-qaoa", 1)
        assert set(rec.timings) == {"graph_build", "relaxation", "optimization", "sampling"}
        assert all(v >= 0.0 for v in rec.timings.values())

    def test_record_reproducible_from_seed(self):
        cfg = RunConfig(dataset="cars", seeds=(4,))
        a = run_algorithm(cfg, "ws-qaoa", 4)
        b = run_algorithm(cfg, "ws-qaoa", 4)
        assert a.energy_expectation == b.energy_expectation
        assert a.energy_sampled == b.energy_sampled
        assert a.bitstring_index == b.bitstring_index
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        np.testing.assert_array_equal(a.params, b.params)

    def test_unknown_algorithm(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        with pytest.raises(ValidationError):
            run_algorithm(cfg, "annealing", 1)

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
            run_algorithm(cfg, "qaoa", 1)
        assert str(exc.value) == f"{p}: 15 data rows exceed the cap of 14 qubits"

    def test_overflowing_distance_named_without_normalizing(self, tmp_path):
        # it used to fail as "weights must be finite", after two warnings
        # and without the file name
        p = write_csv(tmp_path, "a,b\n1.0,1e308\n2.0,-1e308\n3.0,0\n")
        cfg = RunConfig(dataset=str(p), normalize=False, algorithm="exact", seeds=(1,))
        for run in (run_benchmark, lambda c: run_algorithm(c, "exact", 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError) as exc:
                    run(cfg)
            assert str(exc.value) == f"{p}: the distance between rows 0 and 1 overflows float64"

    def test_probabilities_sum_to_one(self):
        cfg = RunConfig(dataset="cars", seeds=(1,))
        for algo in ("exact", "qaoa", "ws-qaoa", "vqe"):
            rec = run_algorithm(cfg, algo, 1)
            assert abs(rec.probabilities.sum() - 1.0) < 1e-9


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

    def test_repeated_seed_named(self):
        with pytest.raises(ValidationError, match="seed 3 appears more than once"):
            RunConfig(dataset="cars", seeds=(3, 1, 3))

    def test_negative_seed_named(self):
        # it used to fail every run of that seed after the compute started
        with pytest.raises(ValidationError, match="seed -2 must be >= 0"):
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
                relaxed = relax_qubo(qubo, RelaxConfig(seed=seed))
                warm = WarmStart(clip_cstar(relaxed.c_star, 0.1))
            objective, dim = make_objective(algo, problem.ising, warm=warm)
            initial = np.random.default_rng([seed, 1]).uniform(-0.1, 0.1, dim)
            res = spsa_minimize(objective, initial, 30, seed)
            assert run["params"] == res.best_params.tolist()
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
        assert r1 == r2

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

    def test_failed_run_recorded_report_still_emitted(self, monkeypatch, tmp_path):
        real = bench.sample_run

        def flaky(config, algorithm, seed, *args):
            if seed == 2:
                raise RuntimeError("injected failure")
            return real(config, algorithm, seed, *args)

        monkeypatch.setattr(bench, "sample_run", flaky)
        cfg = RunConfig(dataset="cars", algorithm="qaoa", seeds=(1, 2, 3),
                        spsa_iters=30)
        report = run_benchmark(cfg)
        block = report.payload["algorithms"]["qaoa"]
        assert len(block["runs"]) == 2
        assert block["failed"] == [{"seed": 2, "error": "injected failure"}]
        files = emit_report(report, tmp_path / "out")
        assert (tmp_path / "out" / "report.json") in files

    def test_non_finite_seed_fails_alone(self, monkeypatch):
        # seeds advance in one batch; seed 2's rows turn NaN and only
        # seed 2 fails, with the stage named, while 1 and 3 complete
        cfg = RunConfig(dataset="cars", algorithm="vqe", seeds=(1, 2, 3),
                        spsa_iters=30)
        clean = run_benchmark(cfg).payload["algorithms"]["vqe"]["runs"]
        real = bench.row_energies

        def poisoned(prepare, ising, points, owners):
            values = real(prepare, ising, points, owners)
            values[owners == 1] = np.nan  # slot 1 is seed 2
            return values

        monkeypatch.setattr(bench, "row_energies", poisoned)
        block = run_benchmark(cfg).payload["algorithms"]["vqe"]
        assert block["runs"] == [clean[0], clean[2]]
        (failure,) = block["failed"]
        assert failure["seed"] == 2
        assert failure["error"].startswith(
            "vqe run (seed 2) failed during optimization: objective returned non-finite value nan"
        )

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
        assert report.payload == again.payload


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
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == self.dumps(report.payload)
        assert (tmp_path / "timings.json").read_text(encoding="utf-8") == self.dumps(report.timings)

    def test_rejects_keys_json_rejects(self, tmp_path):
        with pytest.raises(TypeError):
            json.dumps({(1, 2): 0}, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="keys"):
            self.written({(1, 2): 0}, tmp_path)
        # json.dumps spells an int key as a string; reports hold none
        with pytest.raises(TypeError, match="keys must be str"):
            self.written({"a": {10: "ten"}}, tmp_path)

    def test_histogram_equals_row_by_row_writer(self, small_report, tmp_path):
        _, report = small_report
        emit_report(report, tmp_path, ("csv",))
        for algo, block in report.payload["algorithms"].items():
            rep = next(r for r in block["runs"] if r["seed"] == block["representative_seed"])
            lines = ["bitstring,probability"] + [
                f"{k:05b},{p!r}" for k, p in enumerate(rep["probabilities"])
            ]
            expected = "\r\n".join(lines) + "\r\n"
            assert (tmp_path / f"histogram_{algo}.csv").read_bytes() == expected.encode()


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
