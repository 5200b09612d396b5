"""Parser, printer, and bounded formula-universe generation."""

import pytest

from ilattice import (
    Bicond,
    BudgetExceededError,
    Cond,
    Conj,
    Disj,
    FormulaSyntaxError,
    Neg,
    Var,
    atoms_of,
    formula_depth,
    generate_formulas,
    parse_formula,
    render,
    subformulas,
)


class TestParser:
    def test_negation_binds_tighter_than_conjunction(self):
        assert parse_formula("~a & b") == Conj(Neg(Var("a")), Var("b"))

    def test_simple_conditional(self):
        assert parse_formula("a -> a") == Cond(Var("a"), Var("a"))

    def test_conditional_right_associative(self):
        assert parse_formula("a -> b -> c") == Cond(Var("a"), Cond(Var("b"), Var("c")))

    def test_conjunction_left_associative(self):
        assert parse_formula("a & b & c") == Conj(Conj(Var("a"), Var("b")), Var("c"))

    def test_precedence_ladder(self):
        assert parse_formula("a | b & c") == Disj(Var("a"), Conj(Var("b"), Var("c")))
        assert parse_formula("a -> b | c") == Cond(Var("a"), Disj(Var("b"), Var("c")))
        assert parse_formula("a <-> b -> c") == Bicond(Var("a"), Cond(Var("b"), Var("c")))

    def test_biconditional_left_associative(self):
        assert parse_formula("a <-> b <-> c") == Bicond(
            Bicond(Var("a"), Var("b")), Var("c")
        )

    def test_parentheses(self):
        assert parse_formula("(a -> b) -> c") == Cond(Cond(Var("a"), Var("b")), Var("c"))
        assert parse_formula("~(a & b)") == Neg(Conj(Var("a"), Var("b")))

    def test_identifier_names(self):
        assert parse_formula("alpha_2 & b1") == Conj(Var("alpha_2"), Var("b1"))

    def test_syntax_errors_carry_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("a & ")
        assert info.value.position == 4
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(a")
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("a $ b")
        assert info.value.position == 2
        with pytest.raises(FormulaSyntaxError):
            parse_formula("")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a b")


class TestRender:
    def test_round_trip_is_structural_identity(self):
        for formula in generate_formulas(["a", "b"], 2):
            assert parse_formula(render(formula)) == formula

    def test_render_after_parse_is_identity_on_canonical_text(self):
        for formula in generate_formulas(["a", "b"], 2).formulas[:200]:
            text = render(formula)
            assert render(parse_formula(text)) == text

    def test_minimal_parentheses(self):
        assert render(parse_formula("a -> (b -> c)")) == "a -> b -> c"
        assert render(Conj(Var("a"), Conj(Var("b"), Var("c")))) == "a & (b & c)"
        assert render(Neg(Neg(Var("a")))) == "~~a"
        assert render(Neg(Conj(Var("a"), Var("b")))) == "~(a & b)"


class TestHelpers:
    def test_atoms_of(self):
        assert atoms_of(parse_formula("b & a -> ~a")) == ("a", "b")

    def test_depth(self):
        assert formula_depth(Var("a")) == 0
        assert formula_depth(parse_formula("~a & b")) == 2

    def test_subformulas_include_children(self):
        formula = parse_formula("a -> ~b")
        seen = set(subformulas(formula))
        assert {formula, Var("a"), Neg(Var("b")), Var("b")} == seen


class TestFormulaUniverse:
    def test_single_atom_depth_zero(self):
        f0 = generate_formulas(["a"], 0)
        assert f0.formulas == (Var("a"),)

    def test_single_atom_depth_one_constructor_closure(self):
        f0 = generate_formulas(["a"], 1)
        a = Var("a")
        assert f0.formulas == (
            a, Neg(a), Conj(a, a), Disj(a, a), Cond(a, a), Bicond(a, a),
        )

    def test_growth_is_monotone(self):
        sizes = [len(generate_formulas(["a", "b"], depth)) for depth in range(3)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_closed_under_subformulas_and_deduplicated(self):
        f0 = generate_formulas(["a", "b"], 2)
        members = set(f0.formulas)
        assert len(members) == len(f0.formulas)
        for formula in f0.formulas:
            for part in subformulas(formula):
                assert part in members

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            generate_formulas(["a"], 4)
        with pytest.raises(BudgetExceededError):
            generate_formulas(["a", "b", "c"], 1)
        with pytest.raises(BudgetExceededError, match="smaller --depth"):
            generate_formulas(["a", "b"], 3)

    def test_one_atom_reaches_depth_three(self):
        f0 = generate_formulas(["a"], 3)
        assert len(f0) == 91356
        assert Bicond(Neg(Var("a")), Conj(Var("a"), Var("a"))) in f0

    def test_connectives_hash_apart(self):
        a, b = Var("a"), Var("b")
        hashes = {hash(node(a, b)) for node in (Conj, Disj, Cond, Bicond)}
        assert len(hashes) == 4
