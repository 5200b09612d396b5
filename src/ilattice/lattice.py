"""The lattice operations induced by the cloud operator, in two meet conventions.

This module is the one place the operators are written.  Each is a mask
kernel over one universe (``meet_mask``, ``join_mask``, ``ortho_mask``,
``leq_mask``), and the QSet functions are thin wrappers that check both
arguments share a universe.  The formula semantics evaluates through the
same kernels.

The join of A and B is cloud(A) ∪ cloud(B) and the orthocomplement of A is
U − cloud(A); both are convention-free.  The meet comes in two readings that
agree on closed qsets but diverge in general:

* literal mode:  A ⊓ B = cloud(A ∩ B)
* closure mode:  A ⊓ B = cloud(A) ∩ cloud(B)

The literal meet can be strictly smaller (its intersection happens below the
clouds), and several standard lattice laws hold only for the closure reading;
the verifier module quantifies exactly which.  Every operation here returns a
closed qset and never mutates its arguments.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .universe import QSet, Universe


class OpMode(enum.Enum):
    """Which reading of the meet to use."""

    LITERAL = "literal"
    CLOSURE = "closure"

    def __str__(self) -> str:
        return self.value


def zero(universe: Universe) -> QSet:
    return universe.empty


def one(universe: Universe) -> QSet:
    return universe.full


def meet_mask(universe: Universe, a: int, b: int, mode: OpMode) -> int:
    """The meet of two masks of ``universe`` in the given convention.

    Raises ValueError for anything but an ``OpMode`` member, so a mode given
    as a string cannot silently select one of the readings.
    """
    if mode is OpMode.LITERAL:
        return universe.cloud_mask(a & b)
    if mode is OpMode.CLOSURE:
        return universe.cloud_mask(a) & universe.cloud_mask(b)
    raise ValueError(f"mode must be an OpMode member, got {mode!r}")


def join_mask(universe: Universe, a: int, b: int) -> int:
    return universe.cloud_mask(a) | universe.cloud_mask(b)


def ortho_mask(universe: Universe, a: int) -> int:
    return universe._full_mask & ~universe.cloud_mask(a)


def leq_mask(universe: Universe, a: int, b: int) -> bool:
    return not (universe.cloud_mask(a) & ~universe.cloud_mask(b))


def meet(a: QSet, b: QSet, mode: OpMode) -> QSet:
    a._require_same_universe(b)
    return QSet(a.universe, meet_mask(a.universe, a.mask, b.mask, mode))


def join(a: QSet, b: QSet) -> QSet:
    a._require_same_universe(b)
    return QSet(a.universe, join_mask(a.universe, a.mask, b.mask))


def ortho(a: QSet) -> QSet:
    """Generalized complement: U minus the cloud of A.  Always closed."""
    return QSet(a.universe, ortho_mask(a.universe, a.mask))


def leq(a: QSet, b: QSet) -> bool:
    """The induced order: A ≤ B iff A ⊔ B = cloud(B), i.e. cloud(A) ⊆ cloud(B)."""
    a._require_same_universe(b)
    return leq_mask(a.universe, a.mask, b.mask)


def leq1(a: QSet, b: QSet, mode: OpMode) -> bool:
    """The meet-based order candidate: A ≤₁ B iff A ⊓ B = cloud(A).

    Equivalent to ``leq`` in closure mode; in literal mode the equivalence
    fails on non-closed inputs, which the verifier documents.
    """
    a._require_same_universe(b)
    universe = a.universe
    return meet_mask(universe, a.mask, b.mask, mode) == universe.cloud_mask(a.mask)


def orthogonal(a: QSet, b: QSet) -> bool:
    """A ⊥ B, i.e. A ≤ ortho(B); equivalently A ∩ cloud(B) = ∅."""
    a._require_same_universe(b)
    return leq(a, ortho(b))


def accessible(a: QSet, b: QSet) -> bool:
    return not orthogonal(a, b)


def incompatible(a: QSet, b: QSet) -> bool:
    return orthogonal(a, b)


def pairwise_orthogonal(qsets: Sequence[QSet] | Iterable[QSet]) -> bool:
    """True iff every pair of extensionally distinct members is orthogonal."""
    items = list(qsets)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if a != b and not orthogonal(a, b):
                return False
    return True


def orthomodular_instance(a: QSet, b: QSet) -> bool:
    """One instance of the orthomodular law, vacuously true when A ≰ B.

    Checks A ≤ B  ⇒  A ⊔ (A ⊔ ortho(B))⊥ = cloud(B).  Uses join and ortho
    only, so the verdict does not depend on the meet convention.
    """
    a._require_same_universe(b)
    if not leq(a, b):
        return True
    left = join(a, ortho(join(a, ortho(b))))
    return left.mask == a.universe.cloud_mask(b.mask)


def modular_instance(a: QSet, b: QSet, c: QSet, mode: OpMode) -> bool:
    """One instance of the modular law, vacuously true when A ≰ B.

    Checks A ≤ B  ⇒  A ⊔ (C ⊓ B) = (A ⊔ C) ⊓ B.  Whether this holds in
    general is left open; the verifier reports outcomes without asserting
    either way.
    """
    a._require_same_universe(b)
    a._require_same_universe(c)
    if not leq(a, b):
        return True
    left = join(a, meet(c, b, mode))
    right = meet(join(a, c), b, mode)
    return left == right
