"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import clock  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ilattice import law_registry  # noqa: E402
from ilattice.cli import main as cli_main  # noqa: E402

REFERENCE = gate.load_reference(HERE / "reference.json")


def _shape(workload):
    return Counter(request.kind for request in workload.requests), len(workload.outside)


class TestGeneration:
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            first = workloads.generate(name, 7, law_registry())
            second = workloads.generate(name, 7, law_registry())
            assert first.requests == second.requests
            assert first.outside == second.outside
            assert first.files == second.files

    def test_seed_changes_inputs_but_not_sizes(self):
        for name in workloads.WORKLOADS:
            runs = [workloads.generate(name, seed, law_registry()) for seed in range(6)]
            assert len({tuple(r.requests) for r in runs}) > 1
            assert len({repr(_shape(r)) for r in runs}) == 1

    def test_every_seed_stays_inside_the_reference_pool(self):
        for name in workloads.WORKLOADS:
            requests, _ = workloads.pool(name, law_registry())
            keys = {request.key for request in requests}
            assert keys <= REFERENCE.keys()
            for seed in (0, 1, 12345, 2**40):
                run_ = workloads.generate(name, seed, law_registry())
                assert {r.key for r in run_.requests + run_.outside} <= keys


class TestClock:
    def test_factor_is_reference_over_the_median_of_nearby_kernel_times(self):
        c = clock.Clock()
        assert c.factor(0) == 1.0
        c._times = [0, 100, 200, 300]
        c._kernel_s = [0.002, 0.004, 0.100, 0.004]
        # At 150: calibrations at 0, 100 and 200 -> median 0.004.
        assert c.factor(150) == pytest.approx(clock.REFERENCE_KERNEL_S / 0.004)
        # Before the first and after the last calibration, the nearest two count.
        assert c.factor(-5) == pytest.approx(clock.REFERENCE_KERNEL_S / 0.003)
        assert c.factor(999) == pytest.approx(clock.REFERENCE_KERNEL_S / 0.052)
        assert c.scaled_s(150, 150 + 10**9) == pytest.approx(clock.REFERENCE_KERNEL_S / 0.004)


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert run.percentile(values, 50) == 50
        assert run.percentile(values, 90) == 90
        assert run.percentile([3.0], 90) == 3.0
        assert run.percentile([5, 1, 4, 2, 3], 50) == 3

    def test_rank_avoids_float_rounding(self):
        # 0.9 * 110 is 99.00000000000001 in floating point; the rank is 99.
        assert run.rank(110, 90) == 99
        assert run.beyond(110, 90) == 11
        assert run.beyond(100, 90) == 10
        assert run.beyond(99, 90) == 9


def _loop(tmp_path, workload, reference):
    paths = run.write_files(workload.files, tmp_path)
    return run.Loop(cli_main, reference, paths)


def _audit_request(law, mode):
    workload = workloads.generate("audit", 0, law_registry())
    request = next(r for r in workload.requests
                   if r.option("law") == law and r.option("mode") == mode)
    return workload, request


class TestGate:
    def test_matching_digest_passes(self, tmp_path):
        workload, request = _audit_request("cloud-extensive", "both")
        loop = _loop(tmp_path, workload, REFERENCE)
        code, stdout, start, end = loop.call(request)
        loop.record(request, code, stdout, start, end)
        assert (loop.attempted, loop.failed) == (1, 0)

    def test_corrupted_reference_digest_fails_the_request(self, tmp_path):
        workload, request = _audit_request("cloud-extensive", "both")
        corrupted = dict(REFERENCE)
        entry = corrupted[request.key]
        corrupted[request.key] = dict(entry, sha256=entry["sha256"][::-1])
        loop = _loop(tmp_path, workload, corrupted)
        code, stdout, start, end = loop.call(request)
        loop.record(request, code, stdout, start, end)
        assert (loop.attempted, loop.failed) == (1, 1)
        assert "reference digest" in loop.problems[0]
        assert loop.completed == 0

    def test_oracle_disputes_a_flipped_verdict(self, tmp_path):
        workload, request = _audit_request("meet-associativity", "literal")
        loop = _loop(tmp_path, workload, REFERENCE)
        _, stdout, _, _ = loop.call(request)
        oracle = gate.Oracle(gate.load_oracle(run.ROOT))
        assert gate.check_verdicts(oracle, [(request, stdout)], workload.files) == []
        doc = json.loads(stdout)
        assert doc["rows"][0]["status"] == "fails"
        doc["rows"][0]["status"] = "holds"
        problems = gate.check_verdicts(oracle, [(request, json.dumps(doc))], workload.files)
        assert [key for key, _ in problems] == [request.key]


class TestSampled:
    def test_twenty_atom_row_counts_as_failed(self, tmp_path):
        workload = workloads.generate("sampled", 3, law_registry())
        request = next(r for r in workload.outside if r.option("law") == "cloud-extensive")
        assert request.option("universe").startswith("@sampled20")
        loop = _loop(tmp_path, workload, REFERENCE)
        code, stdout, start, end = loop.call(request)
        assert code == 2
        loop.record(request, code, stdout, start, end)
        assert (loop.attempted, loop.failed) == (1, 1)
        # Outside the timed loop the same row matches its reference.
        assert run.run_outside(loop, [request]) == 1
        assert len(loop.problems) == 1

    def test_only_closed_only_rows_of_twenty_atoms_are_timed(self):
        workload = workloads.generate("sampled", 3, law_registry())
        timed = [r for r in workload.requests if r.option("universe").startswith("@sampled20")]
        closed_only = {law.name for law in law_registry() if law.restriction == "closed-only"}
        assert timed and {r.option("law") for r in timed} == closed_only
        assert len(timed) + len(workload.outside) == len(workloads.law_rows(law_registry()))


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
