"""Finite universes carrying an indistinguishability partition, and their qsets.

A universe is an ordered carrier of atoms together with a partition of the
carrier into blocks; two atoms are indistinguishable exactly when they share
a block.  Qsets are subsets of the carrier, stored as bit masks over the
normalized atom order, so all set algebra is integer arithmetic and every
enumeration has one fixed canonical order.

The cloud of a qset A is the union of the blocks that A touches.  It is a
closure operator: extensive, monotone and idempotent, and additive over
unions, so (U, cloud) is a finite topological space whose closed sets are
exactly the unions of blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, UniverseError, UniverseMismatchError

ATOM_KINDS = ("m", "M")

# Largest carrier for which full subset enumeration is allowed (2**16 subsets).
EXHAUSTIVE_LIMIT = 16


@dataclass(frozen=True)
class Atom:
    """One carrier element.

    Kind "m" marks an atom that may share a block with others; kind "M" marks
    a classical atom, which must sit in a singleton block.
    """

    id: str
    kind: str

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise UniverseError("atom id must be a non-empty string")
        if self.kind not in ATOM_KINDS:
            raise UniverseError(
                f"atom {self.id!r} has unknown kind {self.kind!r}; expected 'm' or 'M'"
            )


class Universe:
    """An ordered finite carrier plus a partition into indistinguishability blocks.

    Immutable after construction.  Block order and within-block order are
    normalized to first occurrence in the atom declaration, so every
    enumeration and report derived from a universe is deterministic.
    """

    __slots__ = (
        "atoms",
        "blocks",
        "_index",
        "_block_masks",
        "_block_of",
        "_full_mask",
        "_cloud_cache",
        "_hash",
    )

    def __init__(self, atoms: Iterable[Atom | tuple[str, str]], blocks: Iterable[Iterable[str]]):
        normalized_atoms = []
        for spec in atoms:
            atom = spec if isinstance(spec, Atom) else Atom(*spec)
            normalized_atoms.append(atom)
        index: dict[str, int] = {}
        for pos, atom in enumerate(normalized_atoms):
            if atom.id in index:
                raise UniverseError(f"duplicate atom id {atom.id!r}")
            index[atom.id] = pos
        if not normalized_atoms:
            raise UniverseError("a universe needs at least one atom")

        seen: dict[str, int] = {}
        raw_blocks = []
        for block_no, block in enumerate(blocks):
            members = list(block)
            if not members:
                raise UniverseError("empty block in partition")
            for member in members:
                if member not in index:
                    raise UniverseError(f"unknown id {member!r} in block")
                if member in seen:
                    raise UniverseError(f"atom {member!r} appears in two blocks")
                seen[member] = block_no
            raw_blocks.append(members)
        for atom in normalized_atoms:
            if atom.id not in seen:
                raise UniverseError(f"atom {atom.id!r} missing from all blocks")
            if atom.kind == "M" and len(raw_blocks[seen[atom.id]]) > 1:
                raise UniverseError(
                    f"M-atom {atom.id!r} lies in a block of size "
                    f"{len(raw_blocks[seen[atom.id]])}; M-atoms must be singletons"
                )

        # Normalize: sort members by declaration order, blocks by first member.
        ordered = [tuple(sorted(members, key=index.__getitem__)) for members in raw_blocks]
        ordered.sort(key=lambda members: index[members[0]])

        self.atoms: tuple[Atom, ...] = tuple(normalized_atoms)
        self.blocks: tuple[tuple[str, ...], ...] = tuple(ordered)
        self._index = index
        block_masks = []
        block_of = [0] * len(normalized_atoms)
        for block_no, members in enumerate(self.blocks):
            mask = 0
            for member in members:
                mask |= 1 << index[member]
                block_of[index[member]] = block_no
            block_masks.append(mask)
        self._block_masks: tuple[int, ...] = tuple(block_masks)
        self._block_of: tuple[int, ...] = tuple(block_of)
        self._full_mask = (1 << len(normalized_atoms)) - 1
        self._cloud_cache: dict[int, int] = {}
        self._hash = hash((self.atoms, self.blocks))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Universe):
            return NotImplemented
        return self.atoms == other.atoms and self.blocks == other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Universe({self.digest})"

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def atom_ids(self) -> tuple[str, ...]:
        return tuple(atom.id for atom in self.atoms)

    @property
    def digest(self) -> str:
        """Canonical text of the blocks; the key used in reports and seeding."""
        return json.dumps([list(block) for block in self.blocks], separators=(",", ":"))

    # -- qset construction --------------------------------------------------

    def qset(self, ids: Iterable[str] = ()) -> QSet:
        mask = 0
        for member in ids:
            try:
                mask |= 1 << self._index[member]
            except KeyError:
                raise UniverseError(f"unknown id {member!r}") from None
        return QSet(self, mask)

    def qset_from_mask(self, mask: int) -> QSet:
        if mask & ~self._full_mask:
            raise UniverseError("mask references atoms outside the universe")
        return QSet(self, mask)

    @property
    def empty(self) -> QSet:
        return QSet(self, 0)

    @property
    def full(self) -> QSet:
        return QSet(self, self._full_mask)

    # -- the partition ------------------------------------------------------

    def indistinguishable(self, x: str, y: str) -> bool:
        """True iff x and y share a block (reflexive, symmetric, transitive)."""
        try:
            return self._block_of[self._index[x]] == self._block_of[self._index[y]]
        except KeyError as exc:
            raise UniverseError(f"unknown id {exc.args[0]!r}") from None

    def cloud_mask(self, mask: int) -> int:
        """Union of the blocks meeting ``mask``; memoized per universe."""
        cached = self._cloud_cache.get(mask)
        if cached is not None:
            return cached
        out = 0
        for block_mask in self._block_masks:
            if block_mask & mask:
                out |= block_mask
        self._cloud_cache[mask] = out
        return out

    # -- enumeration ----------------------------------------------------------

    def subsets(self) -> Iterator[QSet]:
        """All 2**|U| qsets, in binary counting order over the atom order."""
        if len(self.atoms) > EXHAUSTIVE_LIMIT:
            raise BudgetExceededError(
                f"universe has {len(self.atoms)} atoms, above the exhaustive "
                f"limit {EXHAUSTIVE_LIMIT}; use a sampling strategy"
            )
        for mask in range(self._full_mask + 1):
            yield QSet(self, mask)

    def closed_qsets(self) -> list[QSet]:
        """All unions of blocks (2**#blocks of them), in block counting order."""
        if len(self.blocks) > EXHAUSTIVE_LIMIT:
            raise BudgetExceededError(
                f"universe has {len(self.blocks)} blocks, above the exhaustive "
                f"limit {EXHAUSTIVE_LIMIT}; use a sampling strategy"
            )
        out = []
        for combo in range(1 << len(self.blocks)):
            mask = 0
            for block_no, block_mask in enumerate(self._block_masks):
                if combo >> block_no & 1:
                    mask |= block_mask
            out.append(QSet(self, mask))
        return out


class QSet:
    """A subset of a universe's carrier, stored as a membership bit mask.

    Extensional equality: two qsets are equal iff they belong to equal
    universes and their membership vectors coincide.  All operations return
    fresh values; nothing is mutated in place.
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        self.universe = universe
        self.mask = mask

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSet):
            return NotImplemented
        return self.universe == other.universe and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, atom_id: str) -> bool:
        index = self.universe._index.get(atom_id)
        return index is not None and bool(self.mask >> index & 1)

    def __iter__(self) -> Iterator[str]:
        for pos, atom in enumerate(self.universe.atoms):
            if self.mask >> pos & 1:
                yield atom.id

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return "QSet[" + ", ".join(self) + "]"

    def _require_same_universe(self, other: QSet) -> None:
        if self.universe != other.universe:
            raise UniverseMismatchError("qsets belong to different universes")

    # -- raw set algebra ------------------------------------------------------

    def union(self, other: QSet) -> QSet:
        self._require_same_universe(other)
        return QSet(self.universe, self.mask | other.mask)

    def intersection(self, other: QSet) -> QSet:
        self._require_same_universe(other)
        return QSet(self.universe, self.mask & other.mask)

    def difference(self, other: QSet) -> QSet:
        self._require_same_universe(other)
        return QSet(self.universe, self.mask & ~other.mask)

    def complement(self) -> QSet:
        return QSet(self.universe, self.universe._full_mask & ~self.mask)

    def is_subset(self, other: QSet) -> bool:
        self._require_same_universe(other)
        return not (self.mask & ~other.mask)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __le__(self, other: QSet) -> bool:
        return self.is_subset(other)

    # -- closure structure ------------------------------------------------------

    def cloud(self) -> QSet:
        """Everything indistinguishable from some member: the union of touched blocks."""
        return QSet(self.universe, self.universe.cloud_mask(self.mask))

    def interior(self) -> QSet:
        """Complement of the cloud of the complement: the blocks fully inside."""
        full = self.universe._full_mask
        return QSet(self.universe, full & ~self.universe.cloud_mask(full & ~self.mask))

    def is_closed(self) -> bool:
        return self.universe.cloud_mask(self.mask) == self.mask


def build_universe(
    atom_declarations: Sequence[tuple[str, str]], blocks: Sequence[Sequence[str]]
) -> Universe:
    """Validate and normalize a universe declaration.

    ``atom_declarations`` is an ordered list of (id, kind) pairs with kind
    "m" or "M"; ``blocks`` must partition the ids, with every M-atom in a
    singleton block.
    """
    return Universe(atom_declarations, blocks)


_UNIVERSE_FIELDS = {"atoms", "blocks"}
_ATOM_FIELDS = {"id", "kind"}


def universe_from_dict(data: dict) -> Universe:
    """Build a universe from the document format used by universe files.

    The document has exactly two fields: "atoms", a list of {"id", "kind"}
    objects, and "blocks", a list of lists of ids.  Unknown fields are
    rejected.
    """
    if not isinstance(data, dict):
        raise UniverseError("universe document must be an object")
    unknown = set(data) - _UNIVERSE_FIELDS
    if unknown:
        raise UniverseError(f"unknown universe field(s): {sorted(unknown)}")
    missing = _UNIVERSE_FIELDS - set(data)
    if missing:
        raise UniverseError(f"missing universe field(s): {sorted(missing)}")
    atoms = []
    if not isinstance(data["atoms"], list):
        raise UniverseError('"atoms" must be a list')
    for entry in data["atoms"]:
        if not isinstance(entry, dict):
            raise UniverseError("atom entries must be objects")
        extra = set(entry) - _ATOM_FIELDS
        if extra:
            raise UniverseError(f"unknown atom field(s): {sorted(extra)}")
        if set(entry) != _ATOM_FIELDS:
            raise UniverseError('atom entries need exactly "id" and "kind"')
        atoms.append((entry["id"], entry["kind"]))
    if not isinstance(data["blocks"], list):
        raise UniverseError('"blocks" must be a list of lists of ids')
    return Universe(atoms, data["blocks"])


def universe_to_dict(universe: Universe) -> dict:
    return {
        "atoms": [{"id": atom.id, "kind": atom.kind} for atom in universe.atoms],
        "blocks": [list(block) for block in universe.blocks],
    }


def load_universe(path) -> Universe:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise UniverseError(f"malformed universe file {path}: {exc}") from None
    return universe_from_dict(data)
