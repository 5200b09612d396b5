"""Law registry and enumeration engines that audit the lattice over finite universes.

Every algebraic statement about the cloud operator, the induced order, the
two meets, the orthocomplement and their interaction is registered once as a
named, quantified law.  The engines check a law exhaustively (or by seeded
sampling) over one universe, audit the whole registry, and hunt for a
minimal counterexample across all small universes.

Laws whose predicate mentions the meet (or the meet-based order candidate)
are "per-mode" and get one verdict per meet convention; the rest are
"mode-free".  Laws the source statements restrict to closed qsets quantify
over unions of blocks only.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError
from .lattice import (
    OpMode,
    join,
    leq,
    leq1,
    meet,
    modular_instance,
    one,
    ortho,
    orthogonal,
    orthomodular_instance,
    zero,
)
from .universe import QSet, Universe

DEFAULT_CASE_BUDGET = 1 << 24

MODE_FREE = "mode-free"
PER_MODE = "per-mode"
UNRESTRICTED = "unrestricted"
CLOSED_ONLY = "closed-only"

Predicate = Callable[[Universe, tuple[QSet, ...], OpMode], bool]


@dataclass(frozen=True)
class LawSpec:
    """One named, quantified algebraic law.

    ``predicate`` is a total boolean function of (universe, qset tuple, mode);
    for mode-free laws the mode argument is ignored.  ``statement`` is the
    human-readable algebraic form shown in reports.  Probe laws are evaluated
    and reported but carry no expected verdict.
    """

    name: str
    arity: int
    mode_sensitivity: str
    restriction: str
    predicate: Predicate
    statement: str
    probe: bool = False


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
    def law(name, arity, sensitivity, restriction, statement, predicate, probe=False):
        return LawSpec(name, arity, sensitivity, restriction, predicate, statement, probe)

    cl = lambda q: q.cloud()

    entries = [
        # Closure-operator axioms and their consequences.
        law(
            "cloud-extensive", 1, MODE_FREE, UNRESTRICTED,
            "A ⊆ cl(A)",
            lambda u, q, m: q[0].is_subset(cl(q[0])),
        ),
        law(
            "cloud-monotone", 2, MODE_FREE, UNRESTRICTED,
            "A ⊆ B ⇒ cl(A) ⊆ cl(B)",
            lambda u, q, m: not q[0].is_subset(q[1]) or cl(q[0]).is_subset(cl(q[1])),
        ),
        law(
            "cloud-transitive", 1, MODE_FREE, UNRESTRICTED,
            "cl(cl(A)) ⊆ cl(A)",
            lambda u, q, m: cl(cl(q[0])).is_subset(cl(q[0])),
        ),
        law(
            "cloud-idempotent", 1, MODE_FREE, UNRESTRICTED,
            "cl(cl(A)) = cl(A)",
            lambda u, q, m: cl(cl(q[0])) == cl(q[0]),
        ),
        law(
            "cloud-union-upper", 2, MODE_FREE, UNRESTRICTED,
            "cl(A) ∪ cl(B) ⊆ cl(A ∪ B)",
            lambda u, q, m: (cl(q[0]) | cl(q[1])).is_subset(cl(q[0] | q[1])),
        ),
        law(
            "cloud-intersection-lower", 2, MODE_FREE, UNRESTRICTED,
            "cl(A ∩ B) ⊆ cl(A) ∩ cl(B)",
            lambda u, q, m: cl(q[0] & q[1]).is_subset(cl(q[0]) & cl(q[1])),
        ),
        law(
            "cloud-union-of-clouds", 2, MODE_FREE, UNRESTRICTED,
            "cl(cl(A) ∪ cl(B)) = cl(A ∪ B)",
            lambda u, q, m: cl(cl(q[0]) | cl(q[1])) == cl(q[0] | q[1]),
        ),
        law(
            "cloud-intersection-closed", 2, MODE_FREE, UNRESTRICTED,
            "cl(A) ∩ cl(B) = cl(cl(A) ∩ cl(B))",
            lambda u, q, m: (cl(q[0]) & cl(q[1])) == cl(cl(q[0]) & cl(q[1])),
        ),
        law(
            "cloud-additive", 2, MODE_FREE, UNRESTRICTED,
            "cl(A ∪ B) = cl(A) ∪ cl(B)",
            lambda u, q, m: cl(q[0] | q[1]) == cl(q[0]) | cl(q[1]),
        ),
        law(
            "cloud-empty", 1, MODE_FREE, UNRESTRICTED,
            "cl(∅) = ∅",
            lambda u, q, m: cl(u.empty) == u.empty,
        ),
        law(
            "interior-sandwich", 1, MODE_FREE, UNRESTRICTED,
            "int(A) ⊆ A ⊆ cl(A)",
            lambda u, q, m: q[0].interior().is_subset(q[0]) and q[0].is_subset(cl(q[0])),
        ),
        # Meet against cloud and join.
        law(
            "meet-below-cloud-intersection", 2, PER_MODE, UNRESTRICTED,
            "A ⊓ B ⊆ cl(cl(A) ∩ cl(B))",
            lambda u, q, m: meet(q[0], q[1], m).is_subset(cl(cl(q[0]) & cl(q[1]))),
        ),
        law(
            "meet-below-join", 2, PER_MODE, UNRESTRICTED,
            "A ⊓ B ⊆ A ⊔ B",
            lambda u, q, m: meet(q[0], q[1], m).is_subset(join(q[0], q[1])),
        ),
        law(
            "closed-pair-stability", 2, PER_MODE, CLOSED_ONLY,
            "closed A,B: A ∪ B and A ∩ B closed, A ⊓ B = cl(A) ∩ cl(B)",
            lambda u, q, m: (q[0] | q[1]).is_closed()
            and (q[0] & q[1]).is_closed()
            and meet(q[0], q[1], m) == (cl(q[0]) & cl(q[1])),
        ),
        # Idempotency.
        law(
            "meet-idempotency", 1, PER_MODE, UNRESTRICTED,
            "A ⊓ A = cl(A)",
            lambda u, q, m: meet(q[0], q[0], m) == cl(q[0]),
        ),
        law(
            "join-idempotency", 1, MODE_FREE, UNRESTRICTED,
            "A ⊔ A = cl(A)",
            lambda u, q, m: join(q[0], q[0]) == cl(q[0]),
        ),
        law(
            "idempotency-closed", 1, PER_MODE, CLOSED_ONLY,
            "closed A: A ⊓ A = A and A ⊔ A = A",
            lambda u, q, m: meet(q[0], q[0], m) == q[0] and join(q[0], q[0]) == q[0],
        ),
        # Commutativity and associativity.
        law(
            "meet-commutativity", 2, PER_MODE, UNRESTRICTED,
            "A ⊓ B = B ⊓ A",
            lambda u, q, m: meet(q[0], q[1], m) == meet(q[1], q[0], m),
        ),
        law(
            "join-commutativity", 2, MODE_FREE, UNRESTRICTED,
            "A ⊔ B = B ⊔ A",
            lambda u, q, m: join(q[0], q[1]) == join(q[1], q[0]),
        ),
        law(
            "meet-associativity", 3, PER_MODE, UNRESTRICTED,
            "A ⊓ (B ⊓ C) = (A ⊓ B) ⊓ C",
            lambda u, q, m: meet(q[0], meet(q[1], q[2], m), m)
            == meet(meet(q[0], q[1], m), q[2], m),
        ),
        law(
            "join-associativity", 3, MODE_FREE, UNRESTRICTED,
            "A ⊔ (B ⊔ C) = (A ⊔ B) ⊔ C",
            lambda u, q, m: join(q[0], join(q[1], q[2])) == join(join(q[0], q[1]), q[2]),
        ),
        # Absorption.
        law(
            "meet-absorption", 2, PER_MODE, UNRESTRICTED,
            "A ⊓ (A ⊔ B) = cl(A)",
            lambda u, q, m: meet(q[0], join(q[0], q[1]), m) == cl(q[0]),
        ),
        law(
            "join-absorption", 2, PER_MODE, UNRESTRICTED,
            "A ⊔ (A ⊓ B) = cl(A)",
            lambda u, q, m: join(q[0], meet(q[0], q[1], m)) == cl(q[0]),
        ),
        law(
            "absorption-closed", 2, PER_MODE, CLOSED_ONLY,
            "closed A,B: A ⊓ (A ⊔ B) = A and A ⊔ (A ⊓ B) = A",
            lambda u, q, m: meet(q[0], join(q[0], q[1]), m) == q[0]
            and join(q[0], meet(q[0], q[1], m)) == q[0],
        ),
        # Bounds.
        law(
            "zero-meet", 1, PER_MODE, UNRESTRICTED,
            "0 ⊓ A = 0",
            lambda u, q, m: meet(zero(u), q[0], m) == zero(u),
        ),
        law(
            "zero-join", 1, MODE_FREE, UNRESTRICTED,
            "0 ⊔ A = cl(A)",
            lambda u, q, m: join(zero(u), q[0]) == cl(q[0]),
        ),
        law(
            "one-meet", 1, PER_MODE, UNRESTRICTED,
            "A ⊓ 1 = cl(A)",
            lambda u, q, m: meet(q[0], one(u), m) == cl(q[0]),
        ),
        law(
            "one-join", 1, MODE_FREE, UNRESTRICTED,
            "A ⊔ 1 = 1",
            lambda u, q, m: join(q[0], one(u)) == one(u),
        ),
        # Distributivity.
        law(
            "distributivity-join-over-meet", 3, PER_MODE, UNRESTRICTED,
            "A ⊔ (B ⊓ C) = (A ⊔ B) ⊓ (A ⊔ C)",
            lambda u, q, m: join(q[0], meet(q[1], q[2], m))
            == meet(join(q[0], q[1]), join(q[0], q[2]), m),
        ),
        law(
            "distributivity-meet-over-join", 3, PER_MODE, UNRESTRICTED,
            "A ⊓ (B ⊔ C) = (A ⊓ B) ⊔ (A ⊓ C)",
            lambda u, q, m: meet(q[0], join(q[1], q[2]), m)
            == join(meet(q[0], q[1], m), meet(q[0], q[2], m)),
        ),
        law(
            "distributivity-closed", 3, PER_MODE, CLOSED_ONLY,
            "closed A,B,C: both distributive laws",
            lambda u, q, m: join(q[0], meet(q[1], q[2], m))
            == meet(join(q[0], q[1]), join(q[0], q[2]), m)
            and meet(q[0], join(q[1], q[2]), m)
            == join(meet(q[0], q[1], m), meet(q[0], q[2], m)),
        ),
        # The induced order.
        law(
            "order-reflexivity", 1, MODE_FREE, UNRESTRICTED,
            "A ≤ A and A ≤ cl(A)",
            lambda u, q, m: leq(q[0], q[0]) and leq(q[0], cl(q[0])),
        ),
        law(
            "order-weak-antisymmetry", 2, MODE_FREE, UNRESTRICTED,
            "A ≤ B and B ≤ A ⇒ cl(A) = cl(B)",
            lambda u, q, m: not (leq(q[0], q[1]) and leq(q[1], q[0]))
            or cl(q[0]) == cl(q[1]),
        ),
        law(
            "order-transitivity", 3, MODE_FREE, UNRESTRICTED,
            "A ≤ B and B ≤ C ⇒ A ≤ C",
            lambda u, q, m: not (leq(q[0], q[1]) and leq(q[1], q[2])) or leq(q[0], q[2]),
        ),
        law(
            "order-meet-lower-bound", 2, PER_MODE, UNRESTRICTED,
            "A ⊓ B ≤ A and A ⊓ B ≤ B",
            lambda u, q, m: leq(meet(q[0], q[1], m), q[0]) and leq(meet(q[0], q[1], m), q[1]),
        ),
        law(
            "order-meet-greatest-lower", 3, PER_MODE, UNRESTRICTED,
            "C ≤ A and C ≤ B ⇒ C ≤ A ⊓ B",
            lambda u, q, m: not (leq(q[2], q[0]) and leq(q[2], q[1]))
            or leq(q[2], meet(q[0], q[1], m)),
        ),
        law(
            "order-join-upper-bound", 2, MODE_FREE, UNRESTRICTED,
            "A ≤ A ⊔ B and B ≤ A ⊔ B",
            lambda u, q, m: leq(q[0], join(q[0], q[1])) and leq(q[1], join(q[0], q[1])),
        ),
        law(
            "order-join-least-upper", 3, MODE_FREE, UNRESTRICTED,
            "A ≤ C and B ≤ C ⇒ A ⊔ B ≤ C",
            lambda u, q, m: not (leq(q[0], q[2]) and leq(q[1], q[2]))
            or leq(join(q[0], q[1]), q[2]),
        ),
        law(
            "order-bounds", 1, MODE_FREE, UNRESTRICTED,
            "0 ≤ A and A ≤ 1",
            lambda u, q, m: leq(zero(u), q[0]) and leq(q[0], one(u)),
        ),
        law(
            "order-meet-collapse", 2, PER_MODE, UNRESTRICTED,
            "A ≤ B ⇒ A ⊓ B = cl(A)",
            lambda u, q, m: not leq(q[0], q[1]) or meet(q[0], q[1], m) == cl(q[0]),
        ),
        law(
            "leq-iff-leq1", 2, PER_MODE, UNRESTRICTED,
            "A ≤ B iff A ⊓ B = cl(A)",
            lambda u, q, m: leq(q[0], q[1]) == leq1(q[0], q[1], m),
        ),
        # The orthocomplement.
        law(
            "ortho-empty", 1, MODE_FREE, UNRESTRICTED,
            "∅⊥ = U",
            lambda u, q, m: ortho(zero(u)) == one(u),
        ),
        law(
            "ortho-full", 1, MODE_FREE, UNRESTRICTED,
            "U⊥ = ∅",
            lambda u, q, m: ortho(one(u)) == zero(u),
        ),
        law(
            "ortho-residue", 1, MODE_FREE, UNRESTRICTED,
            "U − A⊥ = cl(A)",
            lambda u, q, m: (one(u) - ortho(q[0])) == cl(q[0]),
        ),
        law(
            "ortho-closed", 1, MODE_FREE, UNRESTRICTED,
            "cl(A⊥) = A⊥ = cl(A)⊥",
            lambda u, q, m: cl(ortho(q[0])) == ortho(q[0])
            and ortho(cl(q[0])) == ortho(q[0]),
        ),
        law(
            "ortho-involution", 1, MODE_FREE, UNRESTRICTED,
            "A⊥⊥ = cl(A)",
            lambda u, q, m: ortho(ortho(q[0])) == cl(q[0]),
        ),
        law(
            "ortho-antitone", 2, MODE_FREE, UNRESTRICTED,
            "A ≤ B ⇒ B⊥ ≤ A⊥",
            lambda u, q, m: not leq(q[0], q[1]) or leq(ortho(q[1]), ortho(q[0])),
        ),
        # Complementation and its absorption corollaries.
        law(
            "meet-complementation", 1, PER_MODE, UNRESTRICTED,
            "A ⊓ A⊥ = 0",
            lambda u, q, m: meet(q[0], ortho(q[0]), m) == zero(u),
        ),
        law(
            "join-complementation", 1, MODE_FREE, UNRESTRICTED,
            "A ⊔ A⊥ = 1",
            lambda u, q, m: join(q[0], ortho(q[0])) == one(u),
        ),
        law(
            "join-with-contradiction", 2, PER_MODE, UNRESTRICTED,
            "A ⊔ (B ⊓ B⊥) = cl(A)",
            lambda u, q, m: join(q[0], meet(q[1], ortho(q[1]), m)) == cl(q[0]),
        ),
        law(
            "meet-with-excluded-middle", 2, PER_MODE, UNRESTRICTED,
            "A ⊓ (B ⊔ B⊥) = cl(A)",
            lambda u, q, m: meet(q[0], join(q[1], ortho(q[1])), m) == cl(q[0]),
        ),
        # De Morgan.
        law(
            "join-de-morgan", 2, PER_MODE, UNRESTRICTED,
            "(A ⊔ B)⊥ = A⊥ ⊓ B⊥",
            lambda u, q, m: ortho(join(q[0], q[1])) == meet(ortho(q[0]), ortho(q[1]), m),
        ),
        law(
            "partial-de-morgan-as-stated", 2, PER_MODE, UNRESTRICTED,
            "(A ⊓ B)⊥ ⊆ A⊥ ⊔ B⊥",
            lambda u, q, m: ortho(meet(q[0], q[1], m)).is_subset(
                join(ortho(q[0]), ortho(q[1]))
            ),
        ),
        law(
            "partial-de-morgan-corrected", 2, PER_MODE, UNRESTRICTED,
            "A⊥ ⊔ B⊥ ⊆ (A ⊓ B)⊥",
            lambda u, q, m: join(ortho(q[0]), ortho(q[1])).is_subset(
                ortho(meet(q[0], q[1], m))
            ),
        ),
        law(
            "meet-de-morgan-equality", 2, PER_MODE, UNRESTRICTED,
            "(A ⊓ B)⊥ = A⊥ ⊔ B⊥",
            lambda u, q, m: ortho(meet(q[0], q[1], m)) == join(ortho(q[0]), ortho(q[1])),
        ),
        law(
            "meet-de-morgan-closed", 2, PER_MODE, CLOSED_ONLY,
            "closed A,B: (A ⊓ B)⊥ = A⊥ ⊔ B⊥",
            lambda u, q, m: ortho(meet(q[0], q[1], m)) == join(ortho(q[0]), ortho(q[1])),
        ),
        # Orthomodularity, orthogonality, modularity.
        law(
            "orthomodularity", 2, MODE_FREE, UNRESTRICTED,
            "A ≤ B ⇒ A ⊔ (A ⊔ B⊥)⊥ = cl(B)",
            lambda u, q, m: orthomodular_instance(q[0], q[1]),
        ),
        law(
            "orthogonality-characterization", 2, MODE_FREE, UNRESTRICTED,
            "A ⊥ B iff A ∩ cl(B) = ∅",
            lambda u, q, m: orthogonal(q[0], q[1]) == (len(q[0] & cl(q[1])) == 0),
        ),
        law(
            "modularity-probe", 3, PER_MODE, UNRESTRICTED,
            "A ≤ B ⇒ A ⊔ (C ⊓ B) = (A ⊔ C) ⊓ B",
            lambda u, q, m: modular_instance(q[0], q[1], q[2], m),
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

_VAR_NAMES = ("A", "B", "C")


def _named(tup: Sequence[QSet]) -> dict[str, tuple[str, ...]]:
    return {_VAR_NAMES[i]: tup[i].members for i in range(len(tup))}


def _minimize(
    universe: Universe,
    law: LawSpec,
    tup: tuple[QSet, ...],
    mode: OpMode,
    restricted: bool,
) -> tuple[QSet, ...]:
    """Lexicographic descent: drop one atom (one block, for closed-only laws)
    from any position while the tuple still falsifies the predicate."""
    if restricted:
        units = list(universe._block_masks)
    else:
        units = [1 << pos for pos in range(len(universe))]
    masks = [q.mask for q in tup]
    improved = True
    while improved:
        improved = False
        for i in range(len(masks)):
            for unit in units:
                if not masks[i] & unit:
                    continue
                candidate = list(masks)
                candidate[i] = masks[i] & ~unit
                qsets = tuple(QSet(universe, m) for m in candidate)
                if not law.predicate(universe, qsets, mode):
                    masks = candidate
                    improved = True
                    break
            if improved:
                break
    return tuple(QSet(universe, m) for m in masks)


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

    Exhaustive strategies iterate every tuple of subsets (of closed qsets,
    when the law is restricted or ``closed_only`` is forced); sampled
    strategies draw tuples from a deterministic stream keyed by
    (seed, universe digest, law name).  The first failing tuple is minimized
    before reporting, and re-evaluates to false by construction.
    """
    if law.mode_sensitivity == PER_MODE:
        if mode is None:
            raise ValueError(f"law {law.name!r} is mode-sensitive; a mode is required")
    else:
        mode = None
    # A mode-free predicate ignores its mode argument, so any member will do.
    eval_mode = OpMode.LITERAL if mode is None else mode
    report_mode = mode_name(mode)

    restricted = (law.restriction == CLOSED_ONLY) if closed_only is None else closed_only
    domain = universe.closed_qsets() if restricted else list(universe.subsets())
    digest = universe.digest

    def failure_report(tup: tuple[QSet, ...], checked: int) -> LawReport:
        minimized = _minimize(universe, law, tup, eval_mode, restricted)
        return LawReport(
            law=law.name,
            mode=report_mode,
            universe_digest=digest,
            status="fails",
            cases_checked=checked,
            counterexample=_named(minimized),
            minimal=True,
        )

    if strategy.kind == "exhaustive":
        total = len(domain) ** law.arity
        if total > case_budget:
            raise BudgetExceededError(
                f"law {law.name!r} needs {total} cases on this universe, over the "
                f"budget {case_budget}; use a sampling strategy"
            )
        checked = 0
        for tup in itertools.product(domain, repeat=law.arity):
            checked += 1
            if not law.predicate(universe, tup, eval_mode):
                return failure_report(tup, checked)
        return LawReport(law.name, report_mode, digest, "holds", total, None, False)

    stream = SampleStream(strategy.seed, digest, law.name)
    bound = 1 << (len(universe.blocks) if restricted else len(universe))
    closed = domain if restricted else None
    for draw in range(strategy.sample_count):
        picks = []
        for _ in range(law.arity):
            index = stream.next_below(bound)
            picks.append(closed[index] if restricted else QSet(universe, index))
        tup = tuple(picks)
        if not law.predicate(universe, tup, eval_mode):
            return failure_report(tup, draw + 1)
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
