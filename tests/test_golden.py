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

UNIVERSES = {
    "pair-and-single": (
        [("x1", "m"), ("x2", "m"), ("x3", "m")],
        [["x1", "x2"], ["x3"]],
    ),
    "triple-and-classical": (
        [("x1", "m"), ("x2", "m"), ("x3", "m"), ("y", "M"), ("z", "M")],
        [["x1", "x2", "x3"], ["y"], ["z"]],
    ),
    "pair-and-classical": (
        [("x1", "m"), ("x2", "m"), ("y", "M")],
        [["x1", "x2"], ["y"]],
    ),
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


@pytest.mark.parametrize("argv, digest", CASES)
def test_stdout_digest(capsys, tmp_path, argv, digest):
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            atoms, blocks = UNIVERSES[arg[1:]]
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(universe_to_dict(build_universe(atoms, blocks))))
            arg = str(path)
        resolved.append(arg)
    assert main(resolved) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
