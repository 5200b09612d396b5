"""Law registry and enumeration engines that audit the lattice over finite universes.

Every algebraic statement about the cloud operator, the induced order, the
two meets, the orthocomplement and their interaction is registered once as a
named, quantified law.  A law is a term of ``terms`` (for instance
``eq(meet(A, meet(B, C)), meet(meet(A, B), C))``); its statement is rendered
from the term, and the term is compiled on first use into two evaluators:
a mask evaluator for one tuple (sampling, minimization, witnesses) and a
bit-sliced evaluator that checks a whole exhaustive sweep a chunk of up to
2**16 tuples at a time.  The engines check a law exhaustively (or by seeded
sampling) over one universe, audit the whole registry, and hunt for a
minimal counterexample across all small universes.

Laws whose term mentions the meet are "per-mode" and get one verdict per
meet convention; the rest are "mode-free".  Laws the source statements
restrict to closed qsets quantify over unions of blocks only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError
from .lattice import OpMode
from .terms import (
    A,
    B,
    C,
    ONE,
    VARIABLES,
    ZERO,
    Term,
    and_,
    arity_of,
    cl,
    closed,
    compile_mask,
    compile_sliced,
    diff,
    empty,
    eq,
    first_failure,
    iff,
    implies,
    inter,
    interior,
    join,
    leq,
    meet,
    orth,
    ortho,
    statement,
    sub,
    union,
    uses_meet,
)
from .universe import QSet, Universe, require_enumerable

DEFAULT_CASE_BUDGET = 1 << 24

MODE_FREE = "mode-free"
PER_MODE = "per-mode"
UNRESTRICTED = "unrestricted"
CLOSED_ONLY = "closed-only"


@dataclass(frozen=True)
class LawSpec:
    """One named, quantified algebraic law, written as a term.

    The arity (at least one) and whether the law is per-mode (it uses the
    meet) are read off the term.  ``predicate(universe, qsets, mode)``
    evaluates the term on one tuple; for mode-free laws the mode argument is
    ignored.  ``statement`` is the human-readable algebraic form, rendered
    from the term.  Probe laws are evaluated and reported but carry no
    expected verdict.
    """

    name: str
    restriction: str
    term: Term
    probe: bool = False

    @cached_property
    def arity(self) -> int:
        return arity_of(self.term)

    @cached_property
    def mode_sensitivity(self) -> str:
        return PER_MODE if uses_meet(self.term) else MODE_FREE

    @property
    def statement(self) -> str:
        return statement(self.term, self.arity, self.restriction == CLOSED_ONLY)

    @cached_property
    def holds(self):
        """The mask evaluator: ``holds(universe, mode, *masks) -> bool``."""
        return compile_mask(self.term, self.arity)

    @cached_property
    def sliced(self):
        """The bit-sliced evaluator, driven by ``terms.first_failure``."""
        return compile_sliced(self.term, self.arity)

    def predicate(self, universe: Universe, qsets: Sequence[QSet], mode: OpMode) -> bool:
        return self.holds(universe, mode, *[q.mask for q in qsets])


@dataclass(frozen=True)
class CheckStrategy:
    """How to quantify a law: full enumeration or a seeded uniform sample."""

    kind: str
    sample_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "sampled":
            if not self.sample_count or self.sample_count < 1:
                raise ValueError("sampled strategy needs a positive sample_count")
            if not 0 <= self.seed < (1 << 64):
                raise ValueError("seed must fit in 64 unsigned bits")

    @classmethod
    def exhaustive(cls) -> "CheckStrategy":
        return cls("exhaustive")

    @classmethod
    def sampled(cls, sample_count: int, seed: int = 0) -> "CheckStrategy":
        return cls("sampled", sample_count=sample_count, seed=seed)


EXHAUSTIVE = CheckStrategy.exhaustive()


@dataclass(frozen=True)
class LawReport:
    """Outcome of checking one law on one universe in one mode."""

    law: str
    mode: str
    universe_digest: str
    status: str
    cases_checked: int
    counterexample: Optional[dict[str, tuple[str, ...]]]
    minimal: bool

    def to_dict(self) -> dict:
        counterexample = None
        if self.counterexample is not None:
            counterexample = {name: list(ids) for name, ids in self.counterexample.items()}
        return {
            "law": self.law,
            "mode": self.mode,
            "universe_digest": self.universe_digest,
            "status": self.status,
            "cases_checked": self.cases_checked,
            "counterexample": counterexample,
            "minimal": self.minimal,
        }


@dataclass(frozen=True)
class AuditTable:
    """One LawReport per applicable (law, mode) pair, in (law, mode) order."""

    rows: tuple[LawReport, ...]

    def row(self, law: str, mode: str = "n/a") -> LawReport:
        for report in self.rows:
            if report.law == law and report.mode == mode:
                return report
        raise KeyError(f"no row for law {law!r} in mode {mode!r}")

    def to_dict(self) -> dict:
        return {"schema": 1, "rows": [report.to_dict() for report in self.rows]}


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "rows"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": 1},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "law",
                    "mode",
                    "universe_digest",
                    "status",
                    "cases_checked",
                    "counterexample",
                    "minimal",
                ],
                "additionalProperties": False,
                "properties": {
                    "law": {"type": "string"},
                    "mode": {"enum": ["literal", "closure", "n/a"]},
                    "universe_digest": {"type": "string"},
                    "status": {"enum": ["holds", "fails", "skipped"]},
                    "cases_checked": {"type": "integer", "minimum": 0},
                    "counterexample": {
                        "anyOf": [
                            {"type": "null"},
                            {
                                "type": "object",
                                "additionalProperties": {
                                    "type": "array",
                                    "items": {"type": "string"},
                                },
                            },
                        ]
                    },
                    "minimal": {"type": "boolean"},
                },
            },
        },
    },
}


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------


def _build_registry() -> tuple[LawSpec, ...]:
    def law(name, term, *, closed_only=False, probe=False):
        return LawSpec(name, CLOSED_ONLY if closed_only else UNRESTRICTED, term, probe)

    join_over_meet = eq(join(A, meet(B, C)), meet(join(A, B), join(A, C)))
    meet_over_join = eq(meet(A, join(B, C)), join(meet(A, B), meet(A, C)))
    meet_de_morgan = eq(ortho(meet(A, B)), join(ortho(A), ortho(B)))

    entries = [
        # Closure-operator axioms and their consequences.
        law("cloud-extensive", sub(A, cl(A))),
        law("cloud-monotone", implies(sub(A, B), sub(cl(A), cl(B)))),
        law("cloud-transitive", sub(cl(cl(A)), cl(A))),
        law("cloud-idempotent", eq(cl(cl(A)), cl(A))),
        law("cloud-union-upper", sub(union(cl(A), cl(B)), cl(union(A, B)))),
        law("cloud-intersection-lower", sub(cl(inter(A, B)), inter(cl(A), cl(B)))),
        law("cloud-union-of-clouds", eq(cl(union(cl(A), cl(B))), cl(union(A, B)))),
        law("cloud-intersection-closed", eq(inter(cl(A), cl(B)), cl(inter(cl(A), cl(B))))),
        law("cloud-additive", eq(cl(union(A, B)), union(cl(A), cl(B)))),
        law("cloud-empty", eq(cl(ZERO), ZERO)),
        law("interior-sandwich", and_(sub(interior(A), A), sub(A, cl(A)))),
        # Meet against cloud and join.
        law("meet-below-cloud-intersection", sub(meet(A, B), cl(inter(cl(A), cl(B))))),
        law("meet-below-join", sub(meet(A, B), join(A, B))),
        law(
            "closed-pair-stability",
            and_(
                closed(union(A, B)),
                closed(inter(A, B)),
                eq(meet(A, B), inter(cl(A), cl(B))),
            ),
            closed_only=True,
        ),
        # Idempotency.
        law("meet-idempotency", eq(meet(A, A), cl(A))),
        law("join-idempotency", eq(join(A, A), cl(A))),
        law("idempotency-closed", and_(eq(meet(A, A), A), eq(join(A, A), A)), closed_only=True),
        # Commutativity and associativity.
        law("meet-commutativity", eq(meet(A, B), meet(B, A))),
        law("join-commutativity", eq(join(A, B), join(B, A))),
        law("meet-associativity", eq(meet(A, meet(B, C)), meet(meet(A, B), C))),
        law("join-associativity", eq(join(A, join(B, C)), join(join(A, B), C))),
        # Absorption.
        law("meet-absorption", eq(meet(A, join(A, B)), cl(A))),
        law("join-absorption", eq(join(A, meet(A, B)), cl(A))),
        law(
            "absorption-closed",
            and_(eq(meet(A, join(A, B)), A), eq(join(A, meet(A, B)), A)),
            closed_only=True,
        ),
        # Bounds.
        law("zero-meet", eq(meet(ZERO, A), ZERO)),
        law("zero-join", eq(join(ZERO, A), cl(A))),
        law("one-meet", eq(meet(A, ONE), cl(A))),
        law("one-join", eq(join(A, ONE), ONE)),
        # Distributivity.
        law("distributivity-join-over-meet", join_over_meet),
        law("distributivity-meet-over-join", meet_over_join),
        law("distributivity-closed", and_(join_over_meet, meet_over_join), closed_only=True),
        # The induced order.
        law("order-reflexivity", and_(leq(A, A), leq(A, cl(A)))),
        law("order-weak-antisymmetry", implies(and_(leq(A, B), leq(B, A)), eq(cl(A), cl(B)))),
        law("order-transitivity", implies(and_(leq(A, B), leq(B, C)), leq(A, C))),
        law("order-meet-lower-bound", and_(leq(meet(A, B), A), leq(meet(A, B), B))),
        law(
            "order-meet-greatest-lower",
            implies(and_(leq(C, A), leq(C, B)), leq(C, meet(A, B))),
        ),
        law("order-join-upper-bound", and_(leq(A, join(A, B)), leq(B, join(A, B)))),
        law(
            "order-join-least-upper",
            implies(and_(leq(A, C), leq(B, C)), leq(join(A, B), C)),
        ),
        law("order-bounds", and_(leq(ZERO, A), leq(A, ONE))),
        law("order-meet-collapse", implies(leq(A, B), eq(meet(A, B), cl(A)))),
        law("leq-iff-leq1", iff(leq(A, B), eq(meet(A, B), cl(A)))),
        # The orthocomplement.
        law("ortho-empty", eq(ortho(ZERO), ONE)),
        law("ortho-full", eq(ortho(ONE), ZERO)),
        law("ortho-residue", eq(diff(ONE, ortho(A)), cl(A))),
        law("ortho-closed", and_(eq(cl(ortho(A)), ortho(A)), eq(ortho(cl(A)), ortho(A)))),
        law("ortho-involution", eq(ortho(ortho(A)), cl(A))),
        law("ortho-antitone", implies(leq(A, B), leq(ortho(B), ortho(A)))),
        # Complementation and its absorption corollaries.
        law("meet-complementation", eq(meet(A, ortho(A)), ZERO)),
        law("join-complementation", eq(join(A, ortho(A)), ONE)),
        law("join-with-contradiction", eq(join(A, meet(B, ortho(B))), cl(A))),
        law("meet-with-excluded-middle", eq(meet(A, join(B, ortho(B))), cl(A))),
        # De Morgan.
        law("join-de-morgan", eq(ortho(join(A, B)), meet(ortho(A), ortho(B)))),
        law("partial-de-morgan-as-stated", sub(ortho(meet(A, B)), join(ortho(A), ortho(B)))),
        law("partial-de-morgan-corrected", sub(join(ortho(A), ortho(B)), ortho(meet(A, B)))),
        law("meet-de-morgan-equality", meet_de_morgan),
        law("meet-de-morgan-closed", meet_de_morgan, closed_only=True),
        # Orthomodularity, orthogonality, modularity.
        law(
            "orthomodularity",
            implies(leq(A, B), eq(join(A, ortho(join(A, ortho(B)))), cl(B))),
        ),
        law("orthogonality-characterization", iff(orth(A, B), empty(inter(A, cl(B))))),
        law(
            "modularity-probe",
            implies(leq(A, B), eq(join(A, meet(C, B)), meet(join(A, C), B))),
            probe=True,
        ),
    ]
    names = [entry.name for entry in entries]
    if len(set(names)) != len(names):  # pragma: no cover - registry sanity
        raise AssertionError("duplicate law names in registry")
    return tuple(entries)


_REGISTRY = _build_registry()
_BY_NAME = {entry.name: entry for entry in _REGISTRY}


def law_registry() -> tuple[LawSpec, ...]:
    """The fixed list of registered laws; names are stable identifiers."""
    return _REGISTRY


def law_by_name(name: str) -> LawSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown law {name!r}") from None


def law_modes(law: LawSpec, modes: Sequence[OpMode]) -> tuple[OpMode | None, ...]:
    """The modes to check ``law`` in: each of ``modes`` for a per-mode law,
    ``(None,)`` for a mode-free one."""
    return tuple(modes) if law.mode_sensitivity == PER_MODE else (None,)


def mode_name(mode: OpMode | None) -> str:
    """The mode column of a report row: the mode's value, or "n/a" for None."""
    return "n/a" if mode is None else str(mode)


# --------------------------------------------------------------------------
# Deterministic sampling
# --------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SampleStream:
    """Splitmix-style 64-bit stream; reproducible across runs and platforms."""

    def __init__(self, seed: int, universe_digest: str, label: str):
        key = hashlib.blake2b(
            f"{seed}:{universe_digest}:{label}".encode("utf-8"), digest_size=8
        ).digest()
        self._state = int.from_bytes(key, "big")

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        # bound is always a power of two here, so masking is exactly uniform
        return self.next_u64() & (bound - 1)


# --------------------------------------------------------------------------
# The check engine
# --------------------------------------------------------------------------

def _named(universe: Universe, masks: Sequence[int]) -> dict[str, tuple[str, ...]]:
    return {VARIABLES[i]: QSet(universe, mask).members for i, mask in enumerate(masks)}


def _minimize(
    universe: Universe,
    law: LawSpec,
    masks: Sequence[int],
    mode: OpMode,
    restricted: bool,
) -> list[int]:
    """Lexicographic descent: drop one atom (one block, for closed-only laws)
    from any position while the tuple still falsifies the law."""
    if restricted:
        units = list(universe._block_masks)
    else:
        units = [1 << pos for pos in range(len(universe))]
    holds = law.holds
    masks = list(masks)
    improved = True
    while improved:
        improved = False
        for i in range(len(masks)):
            for unit in units:
                if not masks[i] & unit:
                    continue
                candidate = list(masks)
                candidate[i] = masks[i] & ~unit
                if not holds(universe, mode, *candidate):
                    masks = candidate
                    improved = True
                    break
            if improved:
                break
    return masks


def check_law(
    universe: Universe,
    law: LawSpec,
    mode: OpMode | None,
    strategy: CheckStrategy = EXHAUSTIVE,
    *,
    closed_only: bool | None = None,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> LawReport:
    """Quantify one law over one universe and report the outcome.

    Exhaustive strategies cover every tuple of subsets (of closed qsets,
    when the law is restricted or ``closed_only`` is forced), bit-sliced, in
    ``itertools.product`` order; sampled strategies draw tuples from a
    deterministic stream keyed by (seed, universe digest, law name).  The
    first failing tuple is minimized before reporting, and re-evaluates to
    false by construction.
    """
    if law.mode_sensitivity == PER_MODE:
        if mode is None:
            raise ValueError(f"law {law.name!r} is mode-sensitive; a mode is required")
    else:
        mode = None
    # A mode-free law ignores the mode, so any member will do.
    eval_mode = OpMode.LITERAL if mode is None else mode
    report_mode = mode_name(mode)

    restricted = (law.restriction == CLOSED_ONLY) if closed_only is None else closed_only
    if restricted:
        width = len(universe.blocks)
        domain = [q.mask for q in universe.closed_qsets()]
    else:
        width = len(universe)
        require_enumerable(width, "atoms")
        domain = range(1 << width)
    digest = universe.digest

    def failure_report(masks: Sequence[int], checked: int) -> LawReport:
        minimized = _minimize(universe, law, masks, eval_mode, restricted)
        return LawReport(
            law=law.name,
            mode=report_mode,
            universe_digest=digest,
            status="fails",
            cases_checked=checked,
            counterexample=_named(universe, minimized),
            minimal=True,
        )

    if strategy.kind == "exhaustive":
        total = len(domain) ** law.arity
        if total > case_budget:
            raise BudgetExceededError(
                f"law {law.name!r} needs {total} cases on this universe, over the "
                f"budget {case_budget}; use a sampling strategy"
            )
        index = first_failure(law.sliced, law.arity, universe, eval_mode, restricted)
        if index is None:
            return LawReport(law.name, report_mode, digest, "holds", total, None, False)
        digit = (1 << width) - 1
        masks = [
            domain[index >> (width * (law.arity - 1 - p)) & digit] for p in range(law.arity)
        ]
        return failure_report(masks, index + 1)

    stream = SampleStream(strategy.seed, digest, law.name)
    bound = 1 << width
    holds = law.holds
    for draw in range(strategy.sample_count):
        masks = [domain[stream.next_below(bound)] for _ in range(law.arity)]
        if not holds(universe, eval_mode, *masks):
            return failure_report(masks, draw + 1)
    return LawReport(
        law.name, report_mode, digest, "holds", strategy.sample_count, None, False
    )


def audit(
    universe: Universe,
    modes: Sequence[OpMode] = (OpMode.LITERAL, OpMode.CLOSURE),
    strategy: CheckStrategy = EXHAUSTIVE,
    *,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> AuditTable:
    """Run the whole registry on one universe; deterministic row order.

    A law whose exhaustive case count exceeds the budget is reported as
    ``skipped`` rather than aborting the rest of the table.
    """
    rows = []
    for law in law_registry():
        for mode in law_modes(law, modes):
            try:
                rows.append(
                    check_law(universe, law, mode, strategy, case_budget=case_budget)
                )
            except BudgetExceededError:
                rows.append(
                    LawReport(
                        law.name, mode_name(mode), universe.digest, "skipped", 0, None, False
                    )
                )
    rows.sort(key=lambda report: (report.law, report.mode))
    return AuditTable(tuple(rows))


# --------------------------------------------------------------------------
# Universes from partitions, and cross-universe counterexample search
# --------------------------------------------------------------------------

MAX_SEARCH_ATOMS = 6

BELL_NUMBERS = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def enumerate_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..n}, in restricted-growth-string order."""
    if not 1 <= n <= MAX_SEARCH_ATOMS:
        raise ValueError(f"n must be between 1 and {MAX_SEARCH_ATOMS}, got {n}")

    def rec(rgs: list[int], highest: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(rgs) == n:
            blocks: list[list[int]] = [[] for _ in range(highest + 1)]
            for position, block_no in enumerate(rgs):
                blocks[block_no].append(position + 1)
            yield tuple(tuple(block) for block in blocks)
            return
        for value in range(highest + 2):
            rgs.append(value)
            yield from rec(rgs, max(highest, value))
            rgs.pop()

    first: list[int] = [0]
    yield from rec(first, 0)


def universe_from_partition(
    partition: Sequence[Sequence[int]], prefix: str = "x"
) -> Universe:
    """Build the universe of m-atoms ``x1..xn`` with the given partition."""
    size = sum(len(block) for block in partition)
    atoms = [(f"{prefix}{i}", "m") for i in range(1, size + 1)]
    blocks = [[f"{prefix}{i}" for i in block] for block in partition]
    return Universe(atoms, blocks)


def iter_universes(max_atoms: int, prefix: str = "x") -> Iterator[Universe]:
    """Every partition universe with 1..max_atoms atoms, smallest first."""
    for n in range(1, max_atoms + 1):
        for partition in enumerate_partitions(n):
            yield universe_from_partition(partition, prefix)


def search_counterexample(
    law: LawSpec, mode: OpMode | None, max_atoms: int
) -> Optional[tuple[Universe, dict[str, QSet]]]:
    """First (hence minimal under the enumeration order) failing instance.

    Walks every partition universe of 1..max_atoms atoms in canonical order,
    checking the law exhaustively; returns the universe and the minimized
    failing tuple, or None when no universe in range refutes the law.
    """
    if not 1 <= max_atoms <= MAX_SEARCH_ATOMS:
        raise ValueError(f"max_atoms must be between 1 and {MAX_SEARCH_ATOMS}")
    for universe in iter_universes(max_atoms):
        report = check_law(universe, law, mode)
        if report.status == "fails":
            assert report.counterexample is not None
            witness = {
                name: universe.qset(ids) for name, ids in report.counterexample.items()
            }
            return universe, witness
    return None
