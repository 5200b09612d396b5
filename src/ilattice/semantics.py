"""Valuations of formulas into the lattice, truth, validity and consequence.

A valuation assigns a qset to every propositional atom and extends
compositionally through the lattice's mask kernel: conjunction evaluates
through the meet (in the chosen mode), disjunction through the join and
negation through the orthocomplement.  This module adds only the two
defined connectives on top of the kernel: the conditional and the
biconditional, through their definitional expansions.  Every non-atomic
formula therefore evaluates to a closed qset.

A formula is true under a valuation when it evaluates to the whole carrier.
Sweeps (validity, consequence, the implication conditions, the consequence
operator and the probes) quantify valuations over a domain of qsets per
atom.  By default that domain is the closed qsets: over closed values the
two meet modes coincide, truth behaves classically, and the standard
implication conditions are theorems.  Passing ``closed_valuations=False``
sweeps all subsets instead, the regime where several of those conditions
break down; the test suite pins both behaviours.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, ValuationError
from .formulas import (
    Bicond,
    Cond,
    Conj,
    Disj,
    Formula,
    FormulaUniverse,
    Neg,
    Var,
    atoms_of,
    render,
)
from .lattice import OpMode, join_mask, leq_mask, meet_mask, ortho_mask
from .universe import QSet, Universe
from .verifier import DEFAULT_CASE_BUDGET, EXHAUSTIVE, CheckStrategy, SampleStream


class Valuation:
    """An assignment of qsets of one universe to propositional atom names."""

    __slots__ = ("universe", "_assignment")

    def __init__(
        self, universe: Universe, assignment: Mapping[str, QSet | Iterable[str]]
    ):
        self.universe = universe
        values: dict[str, QSet] = {}
        for name, value in assignment.items():
            if isinstance(value, QSet):
                if value.universe != universe:
                    raise ValuationError(
                        f"value for atom {name!r} belongs to a different universe"
                    )
                values[name] = value
            else:
                values[name] = universe.qset(value)
        self._assignment = values

    def value(self, name: str) -> QSet:
        try:
            return self._assignment[name]
        except KeyError:
            raise ValuationError(f"no value assigned to atom {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._assignment

    def items(self):
        return self._assignment.items()

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        return {name: value.members for name, value in self._assignment.items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in self._assignment.items())
        return f"Valuation({inner})"


def valuation_from_dict(universe: Universe, data: Mapping) -> Valuation:
    if not isinstance(data, Mapping):
        raise ValuationError("valuation document must map atom names to id lists")
    return Valuation(universe, {str(name): ids for name, ids in data.items()})


def load_valuation(path, universe: Universe) -> Valuation:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValuationError(f"malformed valuation file {path}: {exc}") from None
    return valuation_from_dict(universe, data)


# --------------------------------------------------------------------------
# The defined connectives and the connective table, over the lattice kernel
# --------------------------------------------------------------------------


def _cond_mask(universe: Universe, a: int, b: int, mode: OpMode) -> int:
    """``a -> b`` abbreviates ``b | (~a & ~b)``."""
    return join_mask(
        universe, b, meet_mask(universe, ortho_mask(universe, a), ortho_mask(universe, b), mode)
    )


def _bicond_mask(universe: Universe, a: int, b: int, mode: OpMode) -> int:
    """``a <-> b`` abbreviates ``(a -> b) & (b -> a)``."""
    return meet_mask(
        universe, _cond_mask(universe, a, b, mode), _cond_mask(universe, b, a, mode), mode
    )


# The mask operator behind each binary connective, called as
# ``op(universe, left, right, mode)``.
_CONNECTIVES = {
    Conj: meet_mask,
    Disj: lambda universe, a, b, mode: join_mask(universe, a, b),
    Cond: _cond_mask,
    Bicond: _bicond_mask,
}


def _eval_mask(formula: Formula, env: Mapping[str, int], universe: Universe, mode: OpMode) -> int:
    if isinstance(formula, Var):
        try:
            return env[formula.name]
        except KeyError:
            raise ValuationError(f"no value assigned to atom {formula.name!r}") from None
    if isinstance(formula, Neg):
        return ortho_mask(universe, _eval_mask(formula.inner, env, universe, mode))
    return _CONNECTIVES[type(formula)](
        universe,
        _eval_mask(formula.left, env, universe, mode),
        _eval_mask(formula.right, env, universe, mode),
        mode,
    )


def eval_formula(formula: Formula, valuation: Valuation, mode: OpMode) -> QSet:
    """Compositional value of the formula under the valuation."""
    env = {name: value.mask for name, value in valuation.items()}
    return QSet(valuation.universe, _eval_mask(formula, env, valuation.universe, mode))


def is_true(formula: Formula, valuation: Valuation, mode: OpMode) -> bool:
    """Truth: the formula evaluates to the whole carrier."""
    env = {name: value.mask for name, value in valuation.items()}
    universe = valuation.universe
    return _eval_mask(formula, env, universe, mode) == universe._full_mask


def is_definable_by(
    target: QSet, formula: Formula, valuation: Valuation, mode: OpMode
) -> bool:
    """Whether the formula's value under the valuation is exactly ``target``."""
    return eval_formula(formula, valuation, mode) == target


# --------------------------------------------------------------------------
# Valuation sweeps
# --------------------------------------------------------------------------


def _domain_masks(universe: Universe, closed_valuations: bool) -> list[int]:
    if closed_valuations:
        return [qset.mask for qset in universe.closed_qsets()]
    return list(range(universe._full_mask + 1))


def _assignments(
    universe: Universe,
    names: Sequence[str],
    strategy: CheckStrategy,
    closed_valuations: bool,
    label: str,
    case_budget: int,
) -> list[tuple[int, ...]]:
    domain = _domain_masks(universe, closed_valuations)
    if strategy.kind == "exhaustive":
        total = len(domain) ** len(names)
        if total > case_budget:
            raise BudgetExceededError(
                f"{total} valuations exceed the budget {case_budget}; "
                "use a sampling strategy"
            )
        return list(itertools.product(domain, repeat=len(names)))
    stream = SampleStream(strategy.seed, universe.digest, label)
    bound = 1 << (len(universe.blocks) if closed_valuations else len(universe))
    draws = []
    for _ in range(strategy.sample_count):
        masks = []
        for _ in names:
            index = stream.next_below(bound)
            masks.append(domain[index] if closed_valuations else index)
        draws.append(tuple(masks))
    return draws


def _witness(universe: Universe, names: Sequence[str], masks: Sequence[int]) -> dict:
    return {
        name: QSet(universe, mask).members for name, mask in zip(names, masks)
    }


@dataclass(frozen=True)
class ValidityReport:
    formula: Formula
    mode: str
    domain: str
    valid: bool
    witness: Optional[dict[str, tuple[str, ...]]]
    valuations_checked: int

    def to_dict(self) -> dict:
        return {
            "formula": render(self.formula),
            "mode": self.mode,
            "domain": self.domain,
            "valid": self.valid,
            "witness": None
            if self.witness is None
            else {name: list(ids) for name, ids in self.witness.items()},
            "valuations_checked": self.valuations_checked,
        }


def is_valid(
    universe: Universe,
    formula: Formula,
    strategy: CheckStrategy = EXHAUSTIVE,
    mode: OpMode = OpMode.LITERAL,
    *,
    closed_valuations: bool = True,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> ValidityReport:
    """Quantify truth of the formula over every valuation of its atoms."""
    names = atoms_of(formula)
    domain_name = "closed" if closed_valuations else "all"
    assignments = _assignments(
        universe, names, strategy, closed_valuations, f"valid:{render(formula)}", case_budget
    )
    checked = 0
    for masks in assignments:
        checked += 1
        env = dict(zip(names, masks))
        if _eval_mask(formula, env, universe, mode) != universe._full_mask:
            return ValidityReport(
                formula, str(mode), domain_name, False, _witness(universe, names, masks), checked
            )
    return ValidityReport(formula, str(mode), domain_name, True, None, checked)


@dataclass(frozen=True)
class ConsequenceReport:
    gamma: tuple[Formula, ...]
    alpha: Formula
    relation: str
    verdict: bool
    valuations_checked: int
    witness: Optional[dict[str, tuple[str, ...]]] = None

    def to_dict(self) -> dict:
        return {
            "gamma": [render(formula) for formula in self.gamma],
            "alpha": render(self.alpha),
            "relation": self.relation,
            "verdict": self.verdict,
            "valuations_checked": self.valuations_checked,
            "witness": None
            if self.witness is None
            else {name: list(ids) for name, ids in self.witness.items()},
        }


def semantic_consequence(
    universe: Universe,
    gamma: Sequence[Formula],
    alpha: Formula,
    strategy: CheckStrategy = EXHAUSTIVE,
    mode: OpMode = OpMode.LITERAL,
    *,
    closed_valuations: bool = True,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> ConsequenceReport:
    """Whether every valuation making all of gamma true makes alpha true."""
    premises = tuple(gamma)
    names = sorted(set(atoms_of(alpha)).union(*(atoms_of(g) for g in premises)) if premises else atoms_of(alpha))
    label = "consequence:" + ";".join([render(g) for g in premises] + [render(alpha)])
    assignments = _assignments(
        universe, names, strategy, closed_valuations, label, case_budget
    )
    full = universe._full_mask
    checked = 0
    for masks in assignments:
        checked += 1
        env = dict(zip(names, masks))
        if all(_eval_mask(g, env, universe, mode) == full for g in premises):
            if _eval_mask(alpha, env, universe, mode) != full:
                return ConsequenceReport(
                    premises, alpha, "semantic", False, checked,
                    _witness(universe, names, masks),
                )
    return ConsequenceReport(premises, alpha, "semantic", True, checked)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    mode: str
    domain: str
    holds: bool
    witness: Optional[dict[str, tuple[str, ...]]]
    valuations_checked: int

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "mode": self.mode,
            "domain": self.domain,
            "holds": self.holds,
            "witness": None
            if self.witness is None
            else {name: list(ids) for name, ids in self.witness.items()},
            "valuations_checked": self.valuations_checked,
        }


def check_implication_conditions(
    universe: Universe,
    strategy: CheckStrategy = EXHAUSTIVE,
    mode: OpMode = OpMode.LITERAL,
    *,
    closed_valuations: bool = True,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """Audit the three conditions a connective must meet to count as an
    implication: identity, modus ponens, and reflection of the order.

    Each condition is swept over valuations of two atoms; the first failing
    valuation, if any, is reported as a witness.
    """
    domain_name = "closed" if closed_valuations else "all"
    names = ("a", "b")
    assignments = _assignments(
        universe, names, strategy, closed_valuations, "implication-conditions", case_budget
    )
    full = universe._full_mask
    mode_name = str(mode)

    identity_witness = None
    mp_witness = None
    order_witness = None
    for va, vb in assignments:
        if identity_witness is None:
            if _cond_mask(universe, va, va, mode) != full:
                identity_witness = _witness(universe, ("a",), (va,))
        cond_value = _cond_mask(universe, va, vb, mode)
        if mp_witness is None:
            if va == full and cond_value == full and vb != full:
                mp_witness = _witness(universe, names, (va, vb))
        if order_witness is None:
            if (cond_value == full) != leq_mask(universe, va, vb):
                order_witness = _witness(universe, names, (va, vb))
    checked = len(assignments)
    return (
        ConditionReport("identity", mode_name, domain_name, identity_witness is None, identity_witness, checked),
        ConditionReport("modus-ponens", mode_name, domain_name, mp_witness is None, mp_witness, checked),
        ConditionReport("order-reflection", mode_name, domain_name, order_witness is None, order_witness, checked),
    )


# --------------------------------------------------------------------------
# The consequence operator over a bounded formula universe
# --------------------------------------------------------------------------


class ModelTable:
    """Denotation vectors of every formula of a formula universe.

    Precomputes, per valuation of the formula universe's atoms, the value of
    each formula, and derives a bit mask of the valuations under which the
    formula is true.  All consequence machinery reduces to mask arithmetic,
    so the induced consequence operator and the probes stay fast even for
    thousands of formulas.  Formulas outside the universe (over the same
    atoms) are evaluated on demand and memoized.
    """

    def __init__(
        self,
        universe: Universe,
        f0: FormulaUniverse,
        mode: OpMode = OpMode.LITERAL,
        strategy: CheckStrategy = EXHAUSTIVE,
        *,
        closed_valuations: bool = True,
        case_budget: int = DEFAULT_CASE_BUDGET,
    ):
        self.universe = universe
        self.f0 = f0
        self.mode = mode
        self.closed_valuations = closed_valuations
        self.assignments = _assignments(
            universe, f0.atoms, strategy, closed_valuations,
            f"cn:{','.join(f0.atoms)}:{f0.depth}", case_budget,
        )
        self.all_models = (1 << len(self.assignments)) - 1
        self._vectors: dict[Formula, tuple[int, ...]] = {}
        self._models: dict[Formula, int] = {}
        for position, name in enumerate(f0.atoms):
            column = tuple(masks[position] for masks in self.assignments)
            self._vectors[Var(name)] = column
        self.index_of: dict[Formula, int] = {
            formula: index for index, formula in enumerate(f0.formulas)
        }
        self._models_by_index = [self.models_mask(formula) for formula in f0.formulas]

    def value_vector(self, formula: Formula) -> tuple[int, ...]:
        cached = self._vectors.get(formula)
        if cached is not None:
            return cached
        universe = self.universe
        mode = self.mode
        if isinstance(formula, Var):
            raise ValuationError(f"atom {formula.name!r} is not in the formula universe")
        if isinstance(formula, Neg):
            inner = self.value_vector(formula.inner)
            vector = tuple(ortho_mask(universe, value) for value in inner)
        else:
            op = _CONNECTIVES[type(formula)]
            left = self.value_vector(formula.left)
            right = self.value_vector(formula.right)
            vector = tuple(op(universe, a, b, mode) for a, b in zip(left, right))
        self._vectors[formula] = vector
        return vector

    def models_mask(self, formula: Formula) -> int:
        cached = self._models.get(formula)
        if cached is not None:
            return cached
        full = self.universe._full_mask
        mask = 0
        for index, value in enumerate(self.value_vector(formula)):
            if value == full:
                mask |= 1 << index
        self._models[formula] = mask
        return mask

    def models_of(self, gamma: Iterable[Formula]) -> int:
        mask = self.all_models
        for formula in gamma:
            mask &= self.models_mask(formula)
        return mask

    def is_consequence(self, gamma: Iterable[Formula], alpha: Formula) -> bool:
        return not (self.models_of(gamma) & ~self.models_mask(alpha) & self.all_models)

    def cn(self, gamma: Iterable[Formula]) -> tuple[Formula, ...]:
        """Everything in the formula universe entailed by gamma, in canonical order."""
        premises = self.models_of(gamma)
        return tuple(
            formula
            for formula in self.f0.formulas
            if not (premises & ~self.models_mask(formula) & self.all_models)
        )

    def is_theory(self, gamma: Iterable[Formula]) -> bool:
        return set(self.cn(gamma)) == set(gamma)

    # Index-mask variants: premise sets as bit masks over the formula
    # universe's canonical order, so closure-operator checks over large
    # premise families stay pure integer arithmetic.

    def formula_mask(self, gamma: Iterable[Formula]) -> int:
        mask = 0
        for formula in gamma:
            mask |= 1 << self.index_of[formula]
        return mask

    def formulas_of_mask(self, mask: int) -> tuple[Formula, ...]:
        return tuple(
            formula
            for index, formula in enumerate(self.f0.formulas)
            if mask >> index & 1
        )

    def cn_mask(self, premise_mask: int) -> int:
        premises = self.all_models
        remaining = premise_mask
        while remaining:
            low = remaining & -remaining
            premises &= self._models_by_index[low.bit_length() - 1]
            remaining ^= low
        out = 0
        for index, models in enumerate(self._models_by_index):
            if not (premises & ~models & self.all_models):
                out |= 1 << index
        return out

    def is_theory_mask(self, premise_mask: int) -> bool:
        return self.cn_mask(premise_mask) == premise_mask

    def valuation_at(self, index: int) -> Valuation:
        masks = self.assignments[index]
        return Valuation(
            self.universe,
            {
                name: QSet(self.universe, mask)
                for name, mask in zip(self.f0.atoms, masks)
            },
        )


def cn(
    universe: Universe,
    gamma: Sequence[Formula],
    f0: FormulaUniverse,
    strategy: CheckStrategy = EXHAUSTIVE,
    mode: OpMode = OpMode.LITERAL,
    *,
    closed_valuations: bool = True,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> tuple[Formula, ...]:
    """The consequence operator: all members of ``f0`` entailed by ``gamma``.

    Realized semantically; theories are exactly the fixed points, and the
    operator satisfies the closure axioms (extensive, monotone, idempotent),
    which the test suite checks.
    """
    for formula in gamma:
        if formula not in f0:
            raise ValueError(f"premise {render(formula)!r} is not in the formula universe")
    table = ModelTable(
        universe, f0, mode, strategy,
        closed_valuations=closed_valuations, case_budget=case_budget,
    )
    return table.cn(tuple(gamma))


def syntactic_consequence(
    universe: Universe,
    gamma: Sequence[Formula],
    alpha: Formula,
    f0: FormulaUniverse,
    strategy: CheckStrategy = EXHAUSTIVE,
    mode: OpMode = OpMode.LITERAL,
    *,
    closed_valuations: bool = True,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> ConsequenceReport:
    """Consequence through the theory family: membership in cn(gamma).

    The theories are the semantically closed subsets of the formula
    universe, so this coincides with semantic consequence on it.
    """
    table = ModelTable(
        universe, f0, mode, strategy,
        closed_valuations=closed_valuations, case_budget=case_budget,
    )
    verdict = table.is_consequence(tuple(gamma), alpha)
    return ConsequenceReport(
        tuple(gamma), alpha, "cn-syntactic", verdict, len(table.assignments)
    )


@dataclass(frozen=True)
class DeductionProbeReport:
    """Outcome of hunting for a failure of the deduction theorem.

    A witness is a triple (gamma, alpha, beta) where gamma plus alpha entails
    beta but gamma alone does not entail alpha -> beta.  The report records
    an outcome, not an expected truth.
    """

    universe_digest: str
    mode: str
    domain: str
    found: bool
    gamma: Optional[tuple[Formula, ...]]
    alpha: Optional[Formula]
    beta: Optional[Formula]
    triples_checked: int
    valuations_checked: int

    def to_dict(self) -> dict:
        return {
            "universe_digest": self.universe_digest,
            "mode": self.mode,
            "domain": self.domain,
            "found": self.found,
            "gamma": None if self.gamma is None else [render(g) for g in self.gamma],
            "alpha": None if self.alpha is None else render(self.alpha),
            "beta": None if self.beta is None else render(self.beta),
            "triples_checked": self.triples_checked,
            "valuations_checked": self.valuations_checked,
        }


def deduction_theorem_probe(
    universe: Universe,
    f0: FormulaUniverse,
    strategy: CheckStrategy = EXHAUSTIVE,
    mode: OpMode = OpMode.LITERAL,
    *,
    closed_valuations: bool = True,
    case_budget: int = DEFAULT_CASE_BUDGET,
) -> DeductionProbeReport:
    """Search the formula universe for a deduction-theorem failure.

    Premise sets range over the empty set and singletons; candidate formulas
    range over one representative per semantic equivalence class of the
    formula universe (consequence only depends on denotation vectors, so the
    collapse is exact).  Returns the first witness in canonical order, or an
    exhaustion report.
    """
    table = ModelTable(
        universe, f0, mode, strategy,
        closed_valuations=closed_valuations, case_budget=case_budget,
    )
    representatives: list[Formula] = []
    seen_vectors: set[tuple[int, ...]] = set()
    for formula in f0.formulas:
        vector = table.value_vector(formula)
        if vector not in seen_vectors:
            seen_vectors.add(vector)
            representatives.append(formula)

    premise_sets: list[tuple[Formula, ...]] = [()]
    premise_sets.extend((formula,) for formula in representatives)
    triples = 0
    domain_name = "closed" if closed_valuations else "all"
    for gamma in premise_sets:
        gamma_models = table.models_of(gamma)
        for alpha in representatives:
            with_alpha = gamma_models & table.models_mask(alpha)
            for beta in representatives:
                triples += 1
                entails = not (with_alpha & ~table.models_mask(beta) & table.all_models)
                if not entails:
                    continue
                conditional = Cond(alpha, beta)
                detaches = not (
                    gamma_models & ~table.models_mask(conditional) & table.all_models
                )
                if not detaches:
                    return DeductionProbeReport(
                        universe.digest, str(mode), domain_name, True,
                        gamma, alpha, beta, triples, len(table.assignments),
                    )
    return DeductionProbeReport(
        universe.digest, str(mode), domain_name, False,
        None, None, None, triples, len(table.assignments),
    )
