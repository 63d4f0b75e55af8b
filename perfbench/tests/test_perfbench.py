"""Tests of the benchmark itself: tracer arithmetic, input generation,
the correctness gate and the untraced child's fidelity to ``bench run``."""

import copy
import hashlib
import json

import numpy as np
import pytest

import check
import run
from tracer import Tracer
from workloads import SYNTH_POOL, Workload, synth_csv


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_self_time_subtracts_direct_children_only(self):
        clock = FakeClock()
        t = Tracer(clock)
        t.enter("a")          # a: 0 .. 10
        clock.now = 1.0
        t.enter("b")          # b: 1 .. 5
        clock.now = 2.0
        t.enter("c")          # c: 2 .. 4, nested in b
        clock.now = 4.0
        t.exit()
        clock.now = 5.0
        t.exit()
        clock.now = 6.0
        t.enter("c")          # c: 6 .. 7, directly in a
        clock.now = 7.0
        t.exit()
        clock.now = 10.0
        t.exit()
        s = t.summary()["spans"]
        assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0, "bytes": 0}
        assert s["b"]["self_s"] == 2.0
        assert s["c"]["calls"] == 2
        assert s["c"]["total_s"] == s["c"]["self_s"] == 3.0
        # self times partition the root span
        assert sum(v["self_s"] for v in s.values()) == s["a"]["total_s"]

    def test_span_closes_on_exception(self):
        t = Tracer(FakeClock())

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            t.span(boom, "boom")()
        assert t.summary()["spans"]["boom"]["calls"] == 1
        assert not t._stack

    def test_missing_target_is_absent_not_an_error(self):
        import tracer as tracing

        t = Tracer()
        tracing.install(t, [tracing.Target("cutclust.ansatz.no_such_gate", "x")])
        assert t.absent == ["cutclust.ansatz.no_such_gate"]


class TestSynth:
    def test_deterministic_per_seed(self):
        assert synth_csv(3) == synth_csv(3)
        assert len({synth_csv(i) for i in range(SYNTH_POOL)}) == SYNTH_POOL

    def test_matches_golden_inputs(self):
        golden = json.loads((run.GOLDEN / "synth14-kernels.json").read_text())
        for key, ref in golden["instances"].items():
            sha = hashlib.sha256(synth_csv(int(key)).encode()).hexdigest()
            assert sha == ref["input_sha256"], key


class TestGate:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        from cutclust.cli import main

        out = tmp_path_factory.mktemp("gate") / "out"
        argv = ["run", "--dataset", "cars", "--seeds", "1", "--spsa-iters", "5",
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        return json.loads((out / "report.json").read_text())

    def test_brute_force_matches_exact(self, report):
        text = (run.SRC / "cutclust" / "data" / "cars.csv").read_text()
        w = check.csv_weights(text)
        best, states = check.brute_force_max_cut(w)
        assert check.compare_brute_force(report, w, best, states) == {}
        bad = copy.deepcopy(report)
        bad["exact"]["ground_energy"] *= 1 + 1e-8
        assert check.EXACT in check.compare_brute_force(bad, w, best, states)

    def test_golden_tolerance(self, report):
        golden = check.make_golden(report, "sha")
        assert check.compare_golden(report, golden) == {}
        near = copy.deepcopy(report)
        near["algorithms"]["vqe"]["runs"][0]["probabilities"][3] += 1e-12
        assert check.compare_golden(near, golden) == {}
        far = copy.deepcopy(report)
        far["algorithms"]["vqe"]["runs"][0]["probabilities"][3] += 1e-9
        far["algorithms"]["qaoa"]["runs"][0]["energy_expectation"] += 1e-6
        assert set(check.compare_golden(far, golden)) == {"vqe/1", "qaoa/1"}

    def test_fingerprint_catches_a_moved_probability(self):
        p = np.random.default_rng(0).dirichlet(np.ones(2**10))
        ref = check.prob_fingerprint(p)
        assert "top" in ref
        q = p.copy()
        q[int(np.argmin(p))] += 1e-8
        assert check._fingerprint_mismatch(p, ref) is None
        assert check._fingerprint_mismatch(q, ref) is not None


def test_untraced_child_report_is_byte_identical_to_bench_run(tmp_path, monkeypatch):
    from cutclust.cli import main

    workload = Workload(name="tiny", argv=("--algo", "ws-qaoa", "--seeds", "1,2",
                                           "--spsa-iters", "10"), dataset="cars")
    child = run.run_child("run", workload, 0, tmp_path)
    assert child["rc"] == 0
    assert child["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "trace" not in child

    plain = tmp_path / "plain"
    plain.mkdir()
    monkeypatch.chdir(plain)
    assert main(workload.program_argv(0, "out")) == 0
    assert (plain / "out" / "report.json").read_bytes() == child["report_bytes"]

