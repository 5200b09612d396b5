"""The command-line front end: flags, formats, exit codes, determinism."""

import json
import subprocess
import sys
import time

import pytest

from ilattice import build_universe, universe_to_dict
from ilattice.cli import main
from ilattice.verifier import REPORT_SCHEMA


@pytest.fixture
def universe_file(tmp_path):
    universe = build_universe(
        [("x1", "m"), ("x2", "m"), ("y", "M")], [["x1", "x2"], ["y"]]
    )
    path = tmp_path / "u.json"
    path.write_text(json.dumps(universe_to_dict(universe)))
    return str(path)


@pytest.fixture
def one_block_file(tmp_path):
    universe = build_universe([("x1", "m"), ("x2", "m")], [["x1", "x2"]])
    path = tmp_path / "block.json"
    path.write_text(json.dumps(universe_to_dict(universe)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckAndAudit:
    def test_check_holds_exit_zero(self, capsys, universe_file):
        code, out, _ = run(
            capsys, "check", "--universe", universe_file,
            "--law", "orthomodularity", "--mode", "literal", "--exhaustive",
        )
        assert code == 0
        assert "holds" in out

    def test_check_failing_law_still_exits_zero(self, capsys, one_block_file):
        code, out, _ = run(
            capsys, "check", "--universe", one_block_file,
            "--law", "meet-associativity", "--mode", "literal",
        )
        assert code == 0
        assert "fails" in out

    def test_check_all_equals_audit(self, capsys, universe_file):
        code, checked, _ = run(
            capsys, "check", "--universe", universe_file, "--law", "all",
            "--format", "json",
        )
        assert code == 0
        code, audited, _ = run(
            capsys, "audit", "--universe", universe_file, "--format", "json"
        )
        assert code == 0
        assert checked == audited

    def test_audit_json_is_schema_valid(self, capsys, universe_file):
        jsonschema = pytest.importorskip("jsonschema")
        code, out, _ = run(
            capsys, "audit", "--universe", universe_file, "--format", "json"
        )
        assert code == 0
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_unknown_law_is_usage_error(self, capsys, universe_file):
        code, _, err = run(capsys, "check", "--universe", universe_file, "--law", "bogus")
        assert code == 1
        assert "bogus" in err

    def test_missing_universe_file(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        code, _, err = run(capsys, "audit", "--universe", missing)
        assert code == 1
        assert "absent.json" in err

    def test_malformed_universe_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [], "blocks": [], "oops": 1}')
        code, _, err = run(capsys, "audit", "--universe", str(path))
        assert code == 1
        assert "unknown universe field" in err

    def test_budget_exit_code(self, capsys, tmp_path):
        atoms = [{"id": f"a{i}", "kind": "m"} for i in range(17)]
        blocks = [[f"a{i}"] for i in range(17)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"atoms": atoms, "blocks": blocks}))
        code, _, err = run(
            capsys, "check", "--universe", str(path), "--law", "cloud-extensive"
        )
        assert code == 2
        assert "budget" in err.lower() or "limit" in err.lower()

    def test_exclusive_strategy_flags(self, capsys, universe_file):
        code, _, err = run(
            capsys, "audit", "--universe", universe_file,
            "--exhaustive", "--samples", "5",
        )
        assert code == 1
        assert "mutually exclusive" in err


class TestSearch:
    def test_search_finds_smallest_universe(self, capsys):
        code, out, _ = run(
            capsys, "search", "--law", "distributivity-meet-over-join",
            "--mode", "literal", "--max-atoms", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        entry = doc["results"][0]
        assert entry["found"] and entry["universe_digest"] == '[["x1","x2"]]'

    def test_search_mode_free_law(self, capsys):
        code, out, _ = run(
            capsys, "search", "--law", "orthomodularity", "--max-atoms", "3",
            "--format", "json",
        )
        assert code == 0
        assert not json.loads(out)["results"][0]["found"]


class TestLogicCommands:
    def test_eval(self, capsys, universe_file, tmp_path):
        valuation = tmp_path / "v.json"
        valuation.write_text('{"a": ["x1"]}')
        code, out, _ = run(
            capsys, "eval", "--universe", universe_file,
            "--formula", "~~a", "--valuation", str(valuation), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert {r["mode"]: r["value"] for r in doc["results"]} == {
            "literal": ["x1", "x2"], "closure": ["x1", "x2"],
        }

    def test_eval_missing_atom(self, capsys, universe_file, tmp_path):
        valuation = tmp_path / "v.json"
        valuation.write_text('{"a": []}')
        code, _, err = run(
            capsys, "eval", "--universe", universe_file,
            "--formula", "a & b", "--valuation", str(valuation),
        )
        assert code == 1
        assert "'b'" in err

    def test_valid(self, capsys, universe_file):
        code, out, _ = run(
            capsys, "valid", "--universe", universe_file, "--formula", "a -> a",
            "--format", "json",
        )
        assert code == 0
        assert all(entry["valid"] for entry in json.loads(out)["results"])

    def test_formula_syntax_error(self, capsys, universe_file):
        code, _, err = run(
            capsys, "valid", "--universe", universe_file, "--formula", "a ->"
        )
        assert code == 1
        assert "position" in err

    def test_consequence_semantic(self, capsys, universe_file, tmp_path):
        gamma = tmp_path / "gamma.txt"
        gamma.write_text("a\na -> b\n")
        code, out, _ = run(
            capsys, "consequence", "--universe", universe_file,
            "--gamma", str(gamma), "--formula", "b", "--format", "json",
        )
        assert code == 0
        assert all(entry["verdict"] for entry in json.loads(out)["results"])

    def test_consequence_cn_relation(self, capsys, universe_file, tmp_path):
        gamma = tmp_path / "gamma.txt"
        gamma.write_text("a\n")
        code, out, _ = run(
            capsys, "consequence", "--universe", universe_file,
            "--gamma", str(gamma), "--formula", "~~a",
            "--relation", "cn-syntactic", "--mode", "literal", "--format", "json",
        )
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert entry["relation"] == "cn-syntactic" and entry["verdict"]

    def test_gamma_parse_error_names_line(self, capsys, universe_file, tmp_path):
        gamma = tmp_path / "gamma.txt"
        gamma.write_text("a\na &&& b\n")
        code, _, err = run(
            capsys, "consequence", "--universe", universe_file,
            "--gamma", str(gamma), "--formula", "b",
        )
        assert code == 1
        assert "gamma.txt:2" in err


class TestProbes:
    def test_modularity_probe(self, capsys):
        code, out, _ = run(
            capsys, "probe", "modularity", "--max-atoms", "2", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(row["law"] == "modularity-probe" for row in rows)
        statuses = {(row["universe_digest"], row["mode"]): row["status"] for row in rows}
        assert statuses['[["x1","x2"]]', "literal"] == "fails"
        assert statuses['[["x1","x2"]]', "closure"] == "holds"

    def test_deduction_probe_on_classical(self, capsys, tmp_path):
        universe = build_universe([("p", "M"), ("q", "M")], [["p"], ["q"]])
        path = tmp_path / "classical.json"
        path.write_text(json.dumps(universe_to_dict(universe)))
        code, out, _ = run(
            capsys, "probe", "deduction", "--universe", str(path),
            "--depth", "1", "--format", "json",
        )
        assert code == 0
        assert all(not entry["found"] for entry in json.loads(out)["results"])

    def test_implication_probe(self, capsys, one_block_file):
        code, out, _ = run(
            capsys, "probe", "implication", "--universe", one_block_file,
            "--valuations", "all", "--mode", "literal", "--format", "json",
        )
        assert code == 0
        by_name = {e["condition"]: e for e in json.loads(out)["results"]}
        assert by_name["identity"]["holds"]
        assert not by_name["modus-ponens"]["holds"]

    def test_deduction_probe_depth_three_fails_fast(self, capsys, universe_file):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "probe", "deduction", "--universe", universe_file, "--depth", "3",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "--depth" in err

    def test_deduction_probe_needs_universe(self, capsys):
        code, _, err = run(capsys, "probe", "deduction")
        assert code == 1
        assert "--universe" in err


class TestDeterminismAndDefault:
    def test_no_arguments_prints_default_audit(self, capsys):
        code, out, _ = run(capsys)
        assert code == 0
        assert out.startswith("registry audit of the built-in universe")
        assert "orthomodularity" in out

    def test_byte_identical_reruns(self, universe_file):
        command = [
            sys.executable, "-m", "ilattice", "audit",
            "--universe", universe_file, "--format", "json",
        ]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout

    def test_byte_identical_sampled_runs(self, universe_file):
        command = [
            sys.executable, "-m", "ilattice", "check",
            "--universe", universe_file, "--law", "all",
            "--samples", "40", "--seed", "11", "--format", "json",
        ]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
