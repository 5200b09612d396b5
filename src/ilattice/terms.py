"""Laws as terms: a small term language over qsets, with two evaluators.

A set term is built from the variables A, B and C, the constants ∅ and U,
the set operations ∩, ∪ and −, the closure operators cl and int, and the
lattice operations ⊥ (orthocomplement), ⊔ and ⊓ (the meet, in the convention
of the check).  Relations (⊆, =, ≤, orthogonality, closedness, emptiness)
turn set terms into truth terms, and ∧, ⇒ and ⇔ combine truth terms.  A law
is one truth term; its statement is rendered from the term.

Each term is compiled to Python source against one of two interchangeable
algebras:

* the **mask algebra** evaluates one tuple of masks through the kernels in
  ``lattice`` and returns a bool (sampling, minimization, witnesses);
* the **sliced algebra** evaluates a whole block of an exhaustive sweep at
  once (bit-slicing, Biham, FSE 1997).  A qset value is a list of one int per
  atom, and bit t of atom j's int is set when j belongs to the value on tuple
  t.  Set operations become one big-int operation per atom, and a relation
  folds the atoms into one int of truth bits.

``first_failure`` drives the sliced evaluator over a sweep in
``itertools.product`` order and returns the index of the first failing
tuple, which is the tuple a case-by-case loop would stop at.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

from .lattice import OpMode, join_mask, leq_mask, meet_mask, ortho_mask
from .universe import Universe

VARIABLES = ("A", "B", "C")

# Largest number of tuples evaluated together: one slice is at most 8 KB.
SWEEP_CHUNK_BITS = 16


# One node: an operation name and its arguments (for a variable, its index).
# collections.namedtuple is used because typing.NamedTuple costs several
# times more to build at import.
Term = namedtuple("Term", "op args")


A, B, C = (Term("var", (index,)) for index in range(3))
ZERO = Term("zero", ())
ONE = Term("one", ())


# Set operations.
def inter(x: Term, y: Term) -> Term:
    return Term("inter", (x, y))


def union(x: Term, y: Term) -> Term:
    return Term("union", (x, y))


def diff(x: Term, y: Term) -> Term:
    return Term("diff", (x, y))


def cl(x: Term) -> Term:
    return Term("cl", (x,))


def interior(x: Term) -> Term:
    return Term("interior", (x,))


def ortho(x: Term) -> Term:
    return Term("ortho", (x,))


def join(x: Term, y: Term) -> Term:
    return Term("join", (x, y))


def meet(x: Term, y: Term) -> Term:
    """The meet in the convention of the check; a law using it is per-mode."""
    return Term("meet", (x, y))


# Relations.
def sub(x: Term, y: Term) -> Term:
    return Term("sub", (x, y))


def eq(x: Term, y: Term) -> Term:
    return Term("eq", (x, y))


def leq(x: Term, y: Term) -> Term:
    return Term("leq", (x, y))


def orth(x: Term, y: Term) -> Term:
    return Term("orth", (x, y))


def closed(x: Term) -> Term:
    return Term("closed", (x,))


def empty(x: Term) -> Term:
    return Term("empty", (x,))


# Connectives.
def and_(*xs: Term) -> Term:
    return Term("and_", xs)


def implies(x: Term, y: Term) -> Term:
    return Term("implies", (x, y))


def iff(x: Term, y: Term) -> Term:
    return Term("iff", (x, y))


def subterms(term: Term) -> list[Term]:
    """Every node of ``term``, in preorder."""
    nodes = []
    stack = [term]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.op != "var":
            stack.extend(reversed(node.args))
    return nodes


def arity_of(term: Term) -> int:
    """Number of quantified variables: one past the highest variable used.

    A law that mentions no variable is still quantified over A, so it is
    checked once per qset.
    """
    used = [node.args[0] for node in subterms(term) if node.op == "var"]
    return max(used, default=0) + 1


def uses_meet(term: Term) -> bool:
    return any(node.op == "meet" for node in subterms(term))


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

_INFIX = {"inter": "∩", "union": "∪", "diff": "−", "join": "⊔", "meet": "⊓",
          "sub": "⊆", "eq": "=", "leq": "≤", "orth": "⊥",
          "and_": "∧", "implies": "⇒", "iff": "⇔"}
_SET_INFIX = {"inter", "union", "diff", "join", "meet"}
_LOOSE = {"implies", "iff"}


def render(term: Term) -> str:
    """The algebraic text of a term, e.g. ``A ⊓ (B ⊓ C) = (A ⊓ B) ⊓ C``."""
    op, args = term
    if op == "var":
        return VARIABLES[args[0]]
    if op == "zero":
        return "∅"
    if op == "one":
        return "U"
    if op in ("cl", "interior", "closed"):
        return f"{'int' if op == 'interior' else op}({render(args[0])})"
    if op == "ortho":
        return f"{_operand(args[0], _SET_INFIX)}⊥"
    if op == "empty":
        return f"{render(args[0])} = ∅"
    # Set operations parenthesize nested set operations; relations and
    # connectives parenthesize only nested ⇒ and ⇔.
    nested = _SET_INFIX if op in _SET_INFIX else _LOOSE
    return f" {_INFIX[op]} ".join(_operand(arg, nested) for arg in args)


def _operand(term: Term, nested: set) -> str:
    text = render(term)
    return f"({text})" if term.op in nested else text


def statement(term: Term, arity: int, closed_only: bool) -> str:
    """The statement of a law, prefixed ``closed A,B:`` when it quantifies
    over closed qsets only."""
    text = render(term)
    if closed_only:
        text = f"closed {','.join(VARIABLES[:arity])}: {text}"
    return text


# --------------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------------

# The mask algebra: ``u`` is the universe, ``mode`` the meet convention,
# ``cl`` and ``full`` its cloud operator and full mask.
_MASK_SOURCE = {
    "zero": "0",
    "one": "full",
    "inter": "({0} & {1})",
    "union": "({0} | {1})",
    "diff": "({0} & ~{1})",
    "cl": "cl({0})",
    "interior": "(full & ~cl(full & ~{0}))",
    "ortho": "ortho_mask(u, {0})",
    "join": "join_mask(u, {0}, {1})",
    "meet": "meet_mask(u, {0}, {1}, mode)",
    "sub": "(not ({0} & ~{1}))",
    "eq": "({0} == {1})",
    "leq": "leq_mask(u, {0}, {1})",
    "orth": "leq_mask(u, {0}, ortho_mask(u, {1}))",
    "closed": "(cl({0}) == {0})",
    "empty": "(not {0})",
    "and_": " and ",
    "implies": "(not {0} or {1})",
    "iff": "({0} == {1})",
}

_MASK_KERNELS = {
    "join_mask": join_mask,
    "leq_mask": leq_mask,
    "meet_mask": meet_mask,
    "ortho_mask": ortho_mask,
}

# The sliced algebra: ``s`` is a _Slices.  Set values are lists of one int
# per atom, combined atom by atom; a relation turns the atoms' violation
# bits into one int of truth bits with ``s.none``.  The operators follow
# their definitions in ``lattice``: the join is cl(A) ∪ cl(B), the
# orthocomplement U − cl(A), A ≤ B is cl(A) ⊆ cl(B), and A ⊥ B is A ≤ B⊥.
_SLICED_SOURCE = {
    "zero": "s.zero",
    "one": "s.one",
    "inter": "[x & y for x, y in zip({0}, {1})]",
    "union": "[x | y for x, y in zip({0}, {1})]",
    "diff": "[x & ~y for x, y in zip({0}, {1})]",
    "cl": "s.cl({0})",
    "interior": "s.complement(s.cl(s.complement({0})))",
    "ortho": "s.complement(s.cl({0}))",
    "join": "[x | y for x, y in zip(s.cl({0}), s.cl({1}))]",
    "meet": "s.meet({0}, {1})",
    "sub": "s.none([x & ~y for x, y in zip({0}, {1})])",
    "eq": "s.none([x ^ y for x, y in zip({0}, {1})])",
    "leq": "s.none([x & ~y for x, y in zip(s.cl({0}), s.cl({1}))])",
    "orth": "s.none([x & ~y for x, y in zip(s.cl({0}), s.complement(s.cl({1})))])",
    "closed": "s.none([x ^ y for x, y in zip(s.cl({0}), {0})])",
    "empty": "s.none({0})",
    "and_": " & ",
    "implies": "((s.all & ~{0}) | {1})",
    "iff": "(s.all & ~({0} ^ {1}))",
}


def _source(term: Term, table: dict) -> str:
    op, args = term
    if op == "var":
        return VARIABLES[args[0]]
    parts = [_source(arg, table) for arg in args]
    if op == "and_":
        return "(" + table[op].join(parts) + ")"
    return table[op].format(*parts)


def _define(header: str, body: str, arity: int, namespace: dict) -> Callable:
    params = ", ".join(VARIABLES[:arity])
    source = f"def law({header}, {params}):\n{body}"
    exec(compile(source, "<law term>", "exec"), namespace)
    return namespace["law"]


def compile_mask(term: Term, arity: int) -> Callable[..., bool]:
    """``law(universe, mode, *masks) -> bool`` evaluating ``term`` on one tuple."""
    body = (
        "    cl = u.cloud_mask\n"
        "    full = u._full_mask\n"
        f"    return {_source(term, _MASK_SOURCE)}\n"
    )
    return _define("u, mode", body, arity, dict(_MASK_KERNELS))


def compile_sliced(term: Term, arity: int) -> Callable[..., int]:
    """``law(slices, *values) -> int``: the truth bits of ``term`` on a chunk."""
    return _define("s", f"    return {_source(term, _SLICED_SOURCE)}\n", arity, {})


# --------------------------------------------------------------------------
# The sliced algebra and the sweep
# --------------------------------------------------------------------------


class _Slices:
    """The parts of the sliced algebra that need the universe, the meet
    convention or the chunk size (``size`` tuples)."""

    def __init__(self, universe: Universe, mode: OpMode, size: int):
        if not isinstance(mode, OpMode):
            raise ValueError(f"mode must be an OpMode member, got {mode!r}")
        self.mode = mode
        self.all = (1 << size) - 1
        self.zero = [0] * len(universe)
        self.one = [self.all] * len(universe)
        self.blocks = [
            [pos for pos in range(len(universe)) if block_mask >> pos & 1]
            for block_mask in universe._block_masks
        ]
        self.block_of = universe._block_of

    def complement(self, a):
        full = self.all
        return [full & ~x for x in a]

    def cl(self, a):
        touched = []
        for block in self.blocks:
            bits = 0
            for pos in block:
                bits |= a[pos]
            touched.append(bits)
        return [touched[block_no] for block_no in self.block_of]

    def meet(self, a, b):
        if self.mode is OpMode.LITERAL:
            return self.cl([x & y for x, y in zip(a, b)])
        return [x & y for x, y in zip(self.cl(a), self.cl(b))]

    def none(self, violations):
        """Truth bits of the tuples on which no atom's violation bit is set."""
        bad = 0
        for bits in violations:
            bad |= bits
        return self.all & ~bad


# Bit t of _BYTE_PATTERN[s] is bit s of t, for t < 8.
_BYTE_PATTERN = (0xAA, 0xCC, 0xF0)


def _bit_column(s: int, size: int) -> int:
    """The int whose bit t (t < size) is bit ``s`` of t, for s < log2(size)."""
    if s < 3:
        unit = bytes((_BYTE_PATTERN[s],))
    else:
        run = 1 << (s - 3)
        unit = b"\x00" * run + b"\xff" * run
    count = max(size >> 3, 1) // len(unit)
    return int.from_bytes(unit * count, "little") & ((1 << size) - 1)


def first_failure(
    sliced: Callable[..., int],
    arity: int,
    universe: Universe,
    mode: OpMode,
    restricted: bool,
) -> int | None:
    """Index of the first tuple on which a compiled sliced law is false.

    The domain is every qset (index = mask) or, when ``restricted``, every
    union of blocks (index bit k = block k).  Tuples are numbered in
    ``itertools.product`` order, so tuple t's bits are the concatenated
    domain indices of A, B and C, and atom j's membership in variable p is
    one bit of t.  The sweep runs in aligned chunks of at most
    2**SWEEP_CHUNK_BITS tuples; within a chunk the high bits of t are
    constant, so their columns are all ones or all zeros.  Returns None when
    the law holds on every tuple.
    """
    width = len(universe.blocks) if restricted else len(universe)
    digit_bit = universe._block_of if restricted else range(len(universe))
    bits = width * arity
    chunk_bits = min(bits, SWEEP_CHUNK_BITS)
    algebra = _Slices(universe, mode, 1 << chunk_bits)
    low = [_bit_column(s, 1 << chunk_bits) for s in range(chunk_bits)]
    for chunk in range(1 << (bits - chunk_bits)):
        columns = low + [
            algebra.all if chunk >> k & 1 else 0 for k in range(bits - chunk_bits)
        ]
        values = [
            [columns[width * (arity - 1 - p) + e] for e in digit_bit] for p in range(arity)
        ]
        failing = algebra.all & ~sliced(algebra, *values)
        if failing:
            return (chunk << chunk_bits) + (failing & -failing).bit_length() - 1
    return None
