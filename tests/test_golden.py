"""Golden stdout digests of a few CLI calls.

The digests pin the exact bytes of the output, so any change to the
lattice kernel, the law engine or the formula machinery that alters a
verdict, a witness, a case count or the formatting shows up here.  Change a
digest only together with a statement of why the output changed.
"""

import hashlib
import json

import pytest

from ilattice import build_universe, universe_to_dict
from ilattice.cli import main
from ilattice.verifier import iter_universes, universe_from_partition

UNIVERSES = {
    "pair-and-single": build_universe(
        [("x1", "m"), ("x2", "m"), ("x3", "m")],
        [["x1", "x2"], ["x3"]],
    ),
    "triple-and-classical": build_universe(
        [("x1", "m"), ("x2", "m"), ("x3", "m"), ("y", "M"), ("z", "M")],
        [["x1", "x2", "x3"], ["y"], ["z"]],
    ),
    "pair-and-classical": build_universe(
        [("x1", "m"), ("x2", "m"), ("y", "M")],
        [["x1", "x2"], ["y"]],
    ),
    "one-block-6": universe_from_partition([range(1, 7)]),
    "one-block-7": universe_from_partition([range(1, 8)]),
}

CASES = [
    pytest.param(
        [], "734ceee12444d0d64de7c6b6b0d11695d3443be642e72a2885240b8c806a5295",
        id="no-arguments",
    ),
    pytest.param(
        ["audit", "--universe", "@pair-and-single", "--format", "json"],
        "a23f6852549252e05256faab5ff8c5da9613126027483814cc131c8617125b67",
        id="audit-pair-and-single",
    ),
    pytest.param(
        ["audit", "--universe", "@triple-and-classical", "--format", "json"],
        "1175734a883b5b277f1fff1c805d7fe7e7b7b59e590c914e17ba483044c1f1c7",
        id="audit-triple-and-classical",
    ),
    pytest.param(
        ["audit", "--universe", "@one-block-6", "--format", "json"],
        "badbae4cf44f83740f28979b0d10177d91e8eab4c8b1d3ba582fd1b8933cba97",
        id="audit-one-block-6",
    ),
    pytest.param(
        # 2**21 cases; the output records "holds" with cases_checked 2097152.
        ["check", "--law", "meet-associativity", "--mode", "closure",
         "--universe", "@one-block-7", "--format", "json"],
        "27d043c44389485e0aff05f9be6bc15e54fd5ea6602dac02e620e8d2d5bb8f22",
        id="check-one-block-7",
    ),
    pytest.param(
        ["search", "--law", "meet-associativity", "--mode", "literal",
         "--max-atoms", "3", "--format", "json"],
        "96f8991f9d449435f06402dc778fc9231ca5c07dcde2b4cc44527ee16a8cb206",
        id="search-meet-associativity",
    ),
    pytest.param(
        ["probe", "modularity", "--max-atoms", "3", "--format", "json"],
        "d44610a18ca1efb8cd773fc85f921619ea90fcd719f84c9d1e6b998d14dda4c6",
        id="probe-modularity",
    ),
    pytest.param(
        ["probe", "deduction", "--universe", "@pair-and-classical",
         "--depth", "2", "--format", "json"],
        "711e478653985ae863745e49b4d573fc073f263c3ff22e60ea32c3926b3f479e",
        id="probe-deduction",
    ),
]


def write_universe(tmp_path, name, universe):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(universe_to_dict(universe)))
    return str(path)


@pytest.mark.parametrize("argv, digest", CASES)
def test_stdout_digest(capsys, tmp_path, argv, digest):
    resolved = [
        write_universe(tmp_path, arg[1:], UNIVERSES[arg[1:]]) if arg.startswith("@") else arg
        for arg in argv
    ]
    assert main(resolved) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_audit_sweep_over_small_universes(capsys, tmp_path):
    """``audit --format json`` on every partition universe of 1-5 atoms (75 of
    them), concatenated in ``iter_universes`` order."""
    digest = hashlib.sha256()
    count = 0
    for count, universe in enumerate(iter_universes(5), start=1):
        path = write_universe(tmp_path, f"u{count}", universe)
        assert main(["audit", "--universe", path, "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert count == 75
    assert digest.hexdigest() == (
        "2dc571f482d03e6537fa4695461254d1c10951e0f2cc14ed3e73ba19b1088f80"
    )
