"""The law terms: their transcription, their rendering, and the sliced sweep.

Two checks stand between the terms and the verdicts they produce:

* every law's mask evaluator agrees with the independent frozenset oracle on
  every tuple of its domain, not only on the verdict, so a term that is wrong
  only after its first failing tuple is still caught;
* the bit-sliced sweep inside ``check_law`` reports the same status, case
  count and counterexample as a plain ``itertools.product`` loop over the
  mask evaluator, which is kept here as the reference.
"""

import itertools

import pytest

from ilattice import build_universe
from ilattice.lattice import OpMode
from ilattice.terms import (
    A,
    B,
    C,
    SWEEP_CHUNK_BITS,
    ZERO,
    arity_of,
    cl,
    eq,
    meet,
    ortho,
    render,
    uses_meet,
)
from ilattice.verifier import (
    CLOSED_ONLY,
    _minimize,
    _named,
    check_law,
    iter_universes,
    law_by_name,
    law_modes,
    law_registry,
    mode_name,
    universe_from_partition,
)
from naive_oracle import LAWS as ORACLE_LAWS, SetOps

MODES = (OpMode.LITERAL, OpMode.CLOSURE)

CLASSICAL_PAIR = build_universe(
    [("x1", "m"), ("x2", "m"), ("y", "M")], [["x1", "x2"], ["y"]]
)


def rows():
    for law in law_registry():
        for mode in law_modes(law, MODES):
            yield law, mode


def domain(universe, law):
    if law.restriction == CLOSED_ONLY:
        return [q.mask for q in universe.closed_qsets()]
    return list(range(1 << len(universe)))


def members(universe, mask):
    return frozenset(atom.id for pos, atom in enumerate(universe.atoms) if mask >> pos & 1)


@pytest.mark.parametrize(
    "universe",
    [*iter_universes(3), CLASSICAL_PAIR],
    ids=lambda universe: universe.digest,
)
def test_terms_match_oracle_on_every_tuple(universe):
    ops = SetOps(universe.atom_ids, universe.blocks)
    for law, mode in rows():
        arity, closed_only, predicate = ORACLE_LAWS[law.name]
        assert (arity, closed_only) == (law.arity, law.restriction == CLOSED_ONLY)
        eval_mode = OpMode.LITERAL if mode is None else mode
        masks = domain(universe, law)
        sets = {mask: members(universe, mask) for mask in masks}
        for tup in itertools.product(masks, repeat=law.arity):
            expected = predicate(ops, tuple(sets[m] for m in tup), eval_mode.value)
            assert law.holds(universe, eval_mode, *tup) == expected, (
                law.name, mode_name(mode), [sorted(sets[m]) for m in tup]
            )


def reference_check(universe, law, mode):
    """The case-by-case loop the sliced sweep replaces."""
    eval_mode = OpMode.LITERAL if mode is None else mode
    restricted = law.restriction == CLOSED_ONLY
    checked = 0
    for tup in itertools.product(domain(universe, law), repeat=law.arity):
        checked += 1
        if not law.holds(universe, eval_mode, *tup):
            minimized = _minimize(universe, law, tup, eval_mode, restricted)
            return "fails", checked, _named(universe, minimized)
    return "holds", checked, None


def assert_engines_agree(universe, law, mode):
    report = check_law(universe, law, mode)
    assert (report.status, report.cases_checked, report.counterexample) == (
        reference_check(universe, law, mode)
    ), (law.name, mode_name(mode))
    return report


@pytest.mark.parametrize(
    "universe", list(iter_universes(4)), ids=lambda universe: universe.digest
)
def test_sliced_sweep_matches_case_loop(universe):
    for law, mode in rows():
        assert_engines_agree(universe, law, mode)


FIVE_BLOCKS = universe_from_partition([[1], [2], [3], [4], [5, 6]])


@pytest.mark.parametrize(
    "name, first_failure",
    [("meet-associativity", 66_593), ("distributivity-meet-over-join", 65_569)],
)
def test_first_failure_past_the_first_chunk(name, first_failure):
    assert first_failure > 1 << SWEEP_CHUNK_BITS
    report = assert_engines_agree(FIVE_BLOCKS, law_by_name(name), OpMode.LITERAL)
    assert report.status == "fails"
    assert report.cases_checked == first_failure


def test_holding_sweep_over_several_chunks():
    universe = universe_from_partition([[1, 2, 3], [4, 5], [6]])
    report = assert_engines_agree(universe, law_by_name("meet-associativity"), OpMode.CLOSURE)
    assert report.status == "holds"
    assert report.cases_checked == 1 << 18 == 4 << SWEEP_CHUNK_BITS


def test_term_shape():
    associativity = eq(meet(A, meet(B, C)), meet(meet(A, B), C))
    assert render(associativity) == "A ⊓ (B ⊓ C) = (A ⊓ B) ⊓ C"
    assert arity_of(associativity) == 3 and uses_meet(associativity)
    assert render(eq(ortho(ortho(A)), cl(A))) == "A⊥⊥ = cl(A)"
    # A law without variables is still quantified over A.
    assert arity_of(eq(cl(ZERO), ZERO)) == 1
    assert law_by_name("closed-pair-stability").statement.startswith("closed A,B: ")
    assert law_by_name("meet-associativity").statement == render(associativity)
