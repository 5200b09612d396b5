"""Propositional formulas over the lattice connectives, with parser and printer.

The language has conjunction ``&``, disjunction ``|``, negation ``~``,
a conditional ``->`` and a biconditional ``<->``.  The conditional is a
defined connective: ``a -> b`` abbreviates ``b | (~a & ~b)``, and
``a <-> b`` abbreviates ``(a -> b) & (b -> a)``; evaluation expands them.

Grammar (precedence ``~`` > ``&`` > ``|`` > ``->`` > ``<->``, with ``->``
right-associative and ``&``/``|``/``<->`` left-associative):

    formula := bicond
    bicond  := cond { "<->" cond }
    cond    := disj [ "->" cond ]
    disj    := conj { "|" conj }
    conj    := neg { "&" neg }
    neg     := "~" neg | atom | "(" formula ")"
    atom    := ident
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import BudgetExceededError, FormulaSyntaxError


@dataclass(frozen=True)
class Var:
    name: str


# A frozen dataclass's generated hash covers only its fields, so without the
# node type Conj(p, q) and Disj(p, q) would collide and sets and dicts of
# formulas would degrade to linear scans.


@dataclass(frozen=True)
class Neg:
    inner: "Formula"

    def __hash__(self) -> int:
        return hash((Neg, self.inner))


@dataclass(frozen=True)
class _Binary:
    left: "Formula"
    right: "Formula"

    def __hash__(self) -> int:
        return hash((type(self), self.left, self.right))


class Conj(_Binary):
    pass


class Disj(_Binary):
    pass


class Cond(_Binary):
    pass


class Bicond(_Binary):
    pass


# A PEP 604 union, not typing.Union: typing caches each Union it builds, so
# every re-import of this module would leave its old classes (and the modules
# their methods close over) alive in that cache.
Formula = Var | Neg | Conj | Disj | Cond | Bicond


def atoms_of(formula: Formula) -> tuple[str, ...]:
    """Sorted names of the propositional atoms occurring in the formula."""
    names: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.inner)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return tuple(sorted(names))


def formula_depth(formula: Formula) -> int:
    if isinstance(formula, Var):
        return 0
    if isinstance(formula, Neg):
        return 1 + formula_depth(formula.inner)
    return 1 + max(formula_depth(formula.left), formula_depth(formula.right))


def subformulas(formula: Formula) -> Iterator[Formula]:
    """The formula and everything under it, parents before children."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.inner)
        elif isinstance(node, _Binary):
            stack.append(node.right)
            stack.append(node.left)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"<->|->|[&|~()]|[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise FormulaSyntaxError(f"unexpected character {text[position]!r}", position)
        tokens.append((match.group(0), match.start()))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def advance(self) -> str:
        token, _ = self.tokens[self.index]
        self.index += 1
        return token

    def position(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def parse(self) -> Formula:
        formula = self.bicond()
        if self.index != len(self.tokens):
            raise FormulaSyntaxError(
                f"unexpected token {self.peek()!r}", self.position()
            )
        return formula

    def bicond(self) -> Formula:
        left = self.cond()
        while self.peek() == "<->":
            self.advance()
            left = Bicond(left, self.cond())
        return left

    def cond(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.advance()
            return Cond(left, self.cond())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.peek() == "|":
            self.advance()
            left = Disj(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.neg()
        while self.peek() == "&":
            self.advance()
            left = Conj(left, self.neg())
        return left

    def neg(self) -> Formula:
        token = self.peek()
        if token is None:
            raise FormulaSyntaxError("unexpected end of input", self.position())
        if token == "~":
            self.advance()
            return Neg(self.neg())
        if token == "(":
            self.advance()
            inner = self.bicond()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.position())
            self.advance()
            return inner
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            self.advance()
            return Var(token)
        raise FormulaSyntaxError(f"unexpected token {token!r}", self.position())


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with the failing position."""
    parser = _Parser(text)
    if not parser.tokens:
        raise FormulaSyntaxError("empty formula", 0)
    return parser.parse()


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

_PREC = {Bicond: 0, Cond: 1, Disj: 2, Conj: 3, Neg: 4, Var: 5}


def _render(formula: Formula, minimum: int) -> str:
    precedence = _PREC[type(formula)]
    if isinstance(formula, Var):
        text = formula.name
    elif isinstance(formula, Neg):
        text = "~" + _render(formula.inner, 4)
    elif isinstance(formula, Cond):
        # right-associative: the right child may sit at the same level
        text = _render(formula.left, 2) + " -> " + _render(formula.right, 1)
    else:
        symbol = {Conj: "&", Disj: "|", Bicond: "<->"}[type(formula)]
        text = (
            _render(formula.left, precedence)
            + f" {symbol} "
            + _render(formula.right, precedence + 1)
        )
    if precedence < minimum:
        return "(" + text + ")"
    return text


def render(formula: Formula) -> str:
    """Canonical text; ``parse_formula(render(f))`` is structurally ``f``."""
    return _render(formula, 0)


# --------------------------------------------------------------------------
# Bounded formula universes
# --------------------------------------------------------------------------

MAX_DEPTH = 3
MAX_ATOMS = 2
# Most formulas one universe may hold.  One atom reaches depth 3 (91,356
# formulas); two atoms at depth 3 would need about 10.5M.
MAX_FORMULAS = 1 << 17


@dataclass(frozen=True)
class FormulaUniverse:
    """All formulas over the given atoms up to the depth bound.

    Deduplicated up to structural equality, closed under subformulas, and in
    one canonical order (children always precede their parents).
    """

    atoms: tuple[str, ...]
    depth: int
    formulas: tuple[Formula, ...]

    def __len__(self) -> int:
        return len(self.formulas)

    @cached_property
    def _members(self) -> frozenset[Formula]:
        return frozenset(self.formulas)

    def __contains__(self, formula: Formula) -> bool:
        return formula in self._members

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)


def generate_formulas(atoms: Sequence[str], depth: int) -> FormulaUniverse:
    """Enumerate every formula of AST depth <= ``depth`` over ``atoms``."""
    if depth > MAX_DEPTH or depth < 0:
        raise BudgetExceededError(f"depth must be between 0 and {MAX_DEPTH}")
    if not 1 <= len(atoms) <= MAX_ATOMS:
        raise BudgetExceededError(f"need between 1 and {MAX_ATOMS} atoms")
    ordered: list[Formula] = [Var(name) for name in sorted(atoms)]
    seen: set[Formula] = set(ordered)
    for _level in range(depth):
        base = list(ordered)
        bound = len(ordered) + len(base) + 4 * len(base) ** 2
        if bound > MAX_FORMULAS:
            raise BudgetExceededError(
                f"depth {depth} over {len(atoms)} atom(s) needs up to {bound} formulas, "
                f"over the cap {MAX_FORMULAS}; use a smaller --depth"
            )
        for phi in base:
            candidate = Neg(phi)
            if candidate not in seen:
                seen.add(candidate)
                ordered.append(candidate)
        for constructor in (Conj, Disj, Cond, Bicond):
            for phi in base:
                for psi in base:
                    candidate = constructor(phi, psi)
                    if candidate not in seen:
                        seen.add(candidate)
                        ordered.append(candidate)
    return FormulaUniverse(tuple(sorted(atoms)), depth, tuple(ordered))
