"""The correctness gate: reference digests and the frozenset oracle.

Every request's exit code and stdout sha256 must match ``reference.json``,
which was recorded from the program at the commit that introduced the
benchmark.  Independently of those digests, the law verdicts that the
``audit`` and ``search`` workloads print are re-derived through
``tests/naive_oracle.py``, loaded read-only from the checkout.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def failure(reference: dict, key: str, code, stdout: str) -> str | None:
    """Why a request failed, or None when it succeeded.

    A request fails when it exits non-zero, reports a ``skipped`` row, or
    differs from its reference output.
    """
    if code != 0:
        return f"exit code {code}"
    if '"status": "skipped"' in stdout:
        return "reports a skipped row"
    return mismatch(reference, key, code, stdout)


def mismatch(reference: dict, key: str, code, stdout: str) -> str | None:
    expected = reference.get(key)
    if expected is None:
        return "no reference output"
    if expected["exit"] != code:
        return f"exit code {code}, reference {expected['exit']}"
    if expected["sha256"] != digest(stdout):
        return "stdout differs from the reference digest"
    return None


# --------------------------------------------------------------------------
# Oracle re-derivation of law verdicts
# --------------------------------------------------------------------------


def load_oracle(root: Path):
    """Import tests/naive_oracle.py without writing bytecode next to it."""
    path = root / "tests" / "naive_oracle.py"
    spec = importlib.util.spec_from_file_location("_perfbench_naive_oracle", path)
    module = importlib.util.module_from_spec(spec)
    previous = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


class Oracle:
    """Law verdicts from the frozenset oracle, memoised per universe.

    The oracle's ``cloud`` is a pure function of its argument, so caching it
    per universe changes no verdict; it only makes full sweeps affordable.
    """

    def __init__(self, module):
        self.module = module
        base = module.SetOps

        class Memo(base):
            def __init__(self, atom_ids, blocks):
                super().__init__(atom_ids, blocks)
                self._clouds = {}

            def cloud(self, qset):
                out = self._clouds.get(qset)
                if out is None:
                    out = self._clouds[qset] = base.cloud(self, qset)
                return out

        self._ops_class = Memo
        self._ops: dict[str, object] = {}
        self._verdicts: dict[tuple, bool] = {}

    def ops(self, atom_ids, blocks):
        key = json.dumps([list(atom_ids), [list(b) for b in blocks]])
        ops = self._ops.get(key)
        if ops is None:
            ops = self._ops[key] = self._ops_class(atom_ids, blocks)
        return ops

    def holds(self, ops, law: str, mode: str) -> bool:
        key = (id(ops), law, mode)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self.module.check_law(ops, law, mode)[0]
        return verdict

    def refutes(self, ops, law: str, mode: str, counterexample: dict) -> bool:
        """True when the oracle's predicate is false on the counterexample."""
        predicate = self.module.LAWS[law][2]
        qsets = tuple(frozenset(counterexample[name]) for name in sorted(counterexample))
        return not predicate(ops, qsets, mode)


def _oracle_mode(mode: str) -> str:
    # Mode-free rows print "n/a"; their oracle predicates ignore the mode.
    return "literal" if mode == "n/a" else mode


def _partitions(n: int):
    """Set partitions of 1..n in restricted-growth-string order."""

    def rec(rgs, highest):
        if len(rgs) == n:
            blocks = [[] for _ in range(highest + 1)]
            for position, block in enumerate(rgs):
                blocks[block].append(position + 1)
            yield blocks
            return
        for value in range(highest + 2):
            yield from rec(rgs + [value], max(highest, value))

    yield from rec([0], 0)


def _partition_universes(max_atoms: int):
    for n in range(1, max_atoms + 1):
        for partition in _partitions(n):
            ids = [f"x{i}" for i in range(1, n + 1)]
            blocks = [[f"x{i}" for i in block] for block in partition]
            yield ids, blocks


def _digest_blocks(blocks) -> str:
    return json.dumps([list(block) for block in blocks], separators=(",", ":"))


def check_verdicts(oracle: Oracle, outputs, files: dict[str, str]) -> list[tuple[str, str]]:
    """Re-derive printed law verdicts through the oracle.

    ``outputs`` holds (request, stdout) pairs from the ``audit`` or ``search``
    workload.  Returns (request key, problem) for every disputed verdict.
    """
    problems: list[tuple[str, str]] = []
    for request, stdout in outputs:
        doc = json.loads(stdout)
        if request.kind == "search":
            max_atoms = int(request.option("max-atoms"))
            found = [_check_search(oracle, result, max_atoms) for result in doc["results"]]
        else:
            universe = request.option("universe")
            found = _check_rows(oracle, doc["rows"], files[universe[1:]] if universe else None)
        problems += [(request.key, problem) for problem in found if problem]
    return problems


def _check_rows(oracle: Oracle, rows, universe_text: str | None) -> list[str]:
    problems = []
    for row in rows:
        if universe_text is None:  # a partition universe, named by its digest
            blocks = json.loads(row["universe_digest"])
            ids = sorted((atom for block in blocks for atom in block), key=lambda a: int(a[1:]))
        else:
            doc = json.loads(universe_text)
            blocks = doc["blocks"]
            ids = [atom["id"] for atom in doc["atoms"]]
        ops = oracle.ops(ids, blocks)
        mode = _oracle_mode(row["mode"])
        holds = oracle.holds(ops, row["law"], mode)
        label = f"{row['law']} {row['mode']} on {row['universe_digest']}"
        if row["status"] != ("holds" if holds else "fails"):
            problems.append(f"{label}: printed {row['status']}, the oracle says "
                            f"{'holds' if holds else 'fails'}")
        elif not holds and not oracle.refutes(ops, row["law"], mode, row["counterexample"]):
            problems.append(f"{label}: the counterexample does not refute the law in the oracle")
    return problems


def _check_search(oracle: Oracle, result, max_atoms: int) -> str | None:
    mode = _oracle_mode(result["mode"])
    first = None
    for ids, blocks in _partition_universes(max_atoms):
        ops = oracle.ops(ids, blocks)
        if not oracle.holds(ops, result["law"], mode):
            first = (ops, _digest_blocks(blocks))
            break
    label = f"{result['law']} {result['mode']}"
    if first is None:
        return f"{label}: printed found, the oracle finds none" if result["found"] else None
    if not result["found"]:
        return f"{label}: printed none, the oracle refutes it on {first[1]}"
    if result["universe_digest"] != first[1]:
        return f"{label}: printed {result['universe_digest']}, the oracle's first is {first[1]}"
    if not oracle.refutes(first[0], result["law"], mode, result["counterexample"]):
        return f"{label}: the witness does not refute the law in the oracle"
    return None
