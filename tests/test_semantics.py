"""Valuations, truth, validity, consequence, and the logic-level probes."""

import itertools

import pytest

from ilattice import (
    Bicond,
    Cond,
    Conj,
    Disj,
    ModelTable,
    Neg,
    OpMode,
    ValuationError,
    Valuation,
    Var,
    build_universe,
    check_implication_conditions,
    cn,
    deduction_theorem_probe,
    eval_formula,
    generate_formulas,
    is_definable_by,
    is_true,
    is_valid,
    iter_universes,
    load_valuation,
    meet,
    ortho,
    semantic_consequence,
    syntactic_consequence,
    universe_from_partition,
    valuation_from_dict,
)

MODES = (OpMode.LITERAL, OpMode.CLOSURE)

A = Var("a")
B = Var("b")


@pytest.fixture
def mixed():
    return build_universe([("x1", "m"), ("x2", "m"), ("y", "M")], [["x1", "x2"], ["y"]])


@pytest.fixture
def one_block():
    return universe_from_partition([(1, 2)])


class TestEval:
    def test_contradiction_and_excluded_middle(self, mixed):
        for value in mixed.subsets():
            v = Valuation(mixed, {"a": value})
            for mode in MODES:
                assert eval_formula(Conj(A, Neg(A)), v, mode) == mixed.empty
                assert eval_formula(Disj(A, Neg(A)), v, mode) == mixed.full

    def test_double_negation_is_cloud_not_identity(self, mixed):
        value = mixed.qset(["x1"])  # not closed
        v = Valuation(mixed, {"a": value})
        for mode in MODES:
            result = eval_formula(Neg(Neg(A)), v, mode)
            assert result == value.cloud()
            assert result != value

    def test_conditional_expansion_identity(self, mixed):
        for mode in MODES:
            for va, vb in itertools.product(mixed.subsets(), repeat=2):
                v = Valuation(mixed, {"a": va, "b": vb})
                expected = (vb | (ortho(va) & ortho(vb))).cloud()
                assert eval_formula(Cond(A, B), v, mode) == expected

    def test_biconditional_is_both_directions(self, mixed):
        for mode in MODES:
            for va, vb in itertools.product(mixed.subsets(), repeat=2):
                v = Valuation(mixed, {"a": va, "b": vb})
                expected = meet(
                    eval_formula(Cond(A, B), v, mode),
                    eval_formula(Cond(B, A), v, mode),
                    mode,
                )
                assert eval_formula(Bicond(A, B), v, mode) == expected

    def test_non_atomic_values_are_closed(self, mixed):
        f0 = generate_formulas(["a", "b"], 2)
        v = Valuation(mixed, {"a": mixed.qset(["x1"]), "b": mixed.qset(["x2", "y"])})
        for formula in f0.formulas[:300]:
            if not isinstance(formula, Var):
                assert eval_formula(formula, v, OpMode.LITERAL).is_closed()

    def test_string_mode_is_rejected(self, one_block):
        a, b = one_block.qset(["x1"]), one_block.qset(["x2"])
        with pytest.raises(ValueError, match="OpMode"):
            meet(a, b, "literal")
        v = Valuation(one_block, {"a": a, "b": b})
        with pytest.raises(ValueError, match="OpMode"):
            eval_formula(Conj(A, B), v, "literal")

    def test_unassigned_atom(self, mixed):
        v = Valuation(mixed, {"a": mixed.empty})
        with pytest.raises(ValuationError, match="no value"):
            eval_formula(B, v, OpMode.LITERAL)

    def test_valuation_validation(self, mixed, one_block):
        with pytest.raises(ValuationError, match="different universe"):
            Valuation(mixed, {"a": one_block.qset(["x1"])})
        v = valuation_from_dict(mixed, {"a": ["x1", "y"]})
        assert v.value("a") == mixed.qset(["x1", "y"])

    def test_load_valuation(self, mixed, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"a": ["x1"], "b": []}')
        v = load_valuation(path, mixed)
        assert v.value("b") == mixed.empty


class TestTruthAndValidity:
    def test_identity_true_under_every_valuation(self, mixed):
        for value in mixed.subsets():
            v = Valuation(mixed, {"a": value})
            for mode in MODES:
                assert is_true(Cond(A, A), v, mode)
                assert is_true(Disj(A, Neg(A)), v, mode)

    def test_atom_false_when_not_full(self, mixed):
        v = Valuation(mixed, {"a": mixed.empty})
        assert not is_true(A, v, OpMode.LITERAL)

    def test_identity_valid_everywhere(self):
        for universe in iter_universes(3):
            for mode in MODES:
                for closed in (True, False):
                    report = is_valid(
                        universe, Cond(A, A), mode=mode, closed_valuations=closed
                    )
                    assert report.valid

    def test_atom_invalid_with_empty_witness(self, mixed):
        report = is_valid(mixed, A, mode=OpMode.LITERAL)
        assert not report.valid
        assert report.witness == {"a": ()}

    def test_validity_of_weakening_computed_by_sweep(self, one_block):
        # no asserted expectation beyond determinism: both modes agree with a
        # direct sweep over the same valuation domain
        formula = Cond(Conj(A, B), A)
        for mode in MODES:
            report = is_valid(one_block, formula, mode=mode)
            domain = one_block.closed_qsets()
            expected = all(
                is_true(formula, Valuation(one_block, {"a": va, "b": vb}), mode)
                for va in domain
                for vb in domain
            )
            assert report.valid == expected


class TestConsequence:
    def test_reflexivity(self, mixed):
        report = semantic_consequence(mixed, [A], A)
        assert report.verdict

    def test_modus_ponens_semantics_on_closed_domain(self, mixed):
        for mode in MODES:
            report = semantic_consequence(mixed, [A, Cond(A, B)], B, mode=mode)
            assert report.verdict

    def test_identity_from_empty_premises(self, mixed):
        assert semantic_consequence(mixed, [], Cond(A, A)).verdict

    def test_modus_ponens_fails_over_all_subsets(self, one_block):
        report = semantic_consequence(
            one_block, [A, Cond(A, B)], B, closed_valuations=False
        )
        assert not report.verdict
        assert report.witness == {"a": ("x1", "x2"), "b": ("x1",)}


class TestImplicationConditions:
    def test_all_three_hold_on_closed_domain(self):
        for universe in iter_universes(3):
            for mode in MODES:
                reports = check_implication_conditions(universe, mode=mode)
                assert all(report.holds for report in reports)

    def test_identity_and_order_reflection_hold_over_all_subsets(self):
        for universe in iter_universes(3):
            reports = check_implication_conditions(
                universe, mode=OpMode.LITERAL, closed_valuations=False
            )
            by_name = {report.condition: report for report in reports}
            assert by_name["identity"].holds
            assert by_name["order-reflection"].holds

    def test_modus_ponens_fails_pointwise_over_all_subsets(self, one_block):
        # v(a) = U forces cl(v(b)) = U, which does not force v(b) = U
        reports = check_implication_conditions(
            one_block, mode=OpMode.LITERAL, closed_valuations=False
        )
        by_name = {report.condition: report for report in reports}
        assert not by_name["modus-ponens"].holds
        assert by_name["modus-ponens"].witness == {"a": ("x1", "x2"), "b": ("x1",)}


class TestDefinability:
    def test_atom_defines_its_own_value(self, mixed):
        value = mixed.qset(["x1"])
        v = Valuation(mixed, {"a": value})
        assert is_definable_by(value, A, v, OpMode.LITERAL)

    def test_double_negation_defines_the_cloud(self, mixed):
        value = mixed.qset(["x1"])
        v = Valuation(mixed, {"a": value})
        assert is_definable_by(value.cloud(), Neg(Neg(A)), v, OpMode.LITERAL)

    def test_non_closed_qsets_are_not_definable_compositionally(self, mixed):
        target = mixed.qset(["x1"])  # not closed
        v = Valuation(mixed, {"a": mixed.qset(["x2"])})
        for formula in generate_formulas(["a"], 2):
            if not isinstance(formula, Var):
                assert not is_definable_by(target, formula, v, OpMode.LITERAL)


class TestConsequenceOperator:
    def test_empty_closure_contains_identity(self, one_block):
        f0 = generate_formulas(["a", "b"], 2)
        closure = cn(one_block, [], f0)
        assert Cond(A, A) in closure
        assert Cond(B, B) in closure

    def test_membership(self, one_block):
        f0 = generate_formulas(["a"], 1)
        assert Neg(A) in cn(one_block, [Neg(A)], f0)

    def test_idempotence_on_depth_one(self, one_block):
        f0 = generate_formulas(["a"], 1)
        table = ModelTable(one_block, f0)
        first = table.cn([A])
        assert table.cn(first) == first

    def test_premise_must_live_in_the_formula_universe(self, one_block):
        f0 = generate_formulas(["a"], 1)
        with pytest.raises(ValueError, match="not in the formula universe"):
            cn(one_block, [Conj(A, Neg(A))], f0)

    def test_closure_axioms_and_consequence_properties(self, mixed):
        f0 = generate_formulas(["a", "b"], 2)
        table = ModelTable(mixed, f0)
        pool = [
            (),
            (A,),
            (B,),
            (Neg(A),),
            (Cond(A, B),),
            (A, Cond(A, B)),
            (Conj(A, B),),
            (A, B),
            (Disj(A, B),),
            (Bicond(A, B),),
        ]
        masks = [table.formula_mask(gamma) for gamma in pool]
        closures = [table.cn_mask(mask) for mask in masks]
        for gamma, closure in zip(masks, closures):
            # extensive, and membership entails consequence
            assert not gamma & ~closure
            # idempotent
            assert table.cn_mask(closure) == closure
        for gamma, gamma_closure in zip(masks, closures):
            for delta, delta_closure in zip(masks, closures):
                if not gamma & ~delta:
                    assert not gamma_closure & ~delta_closure
                # monotone under premise extension
                assert not gamma_closure & ~table.cn_mask(gamma | delta)
                # cut: if everything in gamma follows from delta, consequences transfer
                if not gamma & ~delta_closure:
                    assert not gamma_closure & ~delta_closure
                # the intersection of two theories is a theory
                assert table.is_theory_mask(gamma_closure & delta_closure)

    def test_mask_api_agrees_with_formula_api(self, one_block):
        f0 = generate_formulas(["a", "b"], 1)
        table = ModelTable(one_block, f0)
        for gamma in [(), (A,), (A, Cond(A, B))]:
            closure = table.cn_mask(table.formula_mask(gamma))
            assert table.formulas_of_mask(closure) == table.cn(gamma)

    def test_syntactic_consequence_coincides_with_semantic(self, one_block):
        f0 = generate_formulas(["a", "b"], 1)
        for gamma, alpha in [((A,), A), ((A, Cond(A, B)), B), ((), Cond(A, A)), ((A,), B)]:
            semantic = semantic_consequence(one_block, list(gamma), alpha).verdict
            syntactic = syntactic_consequence(one_block, list(gamma), alpha, f0).verdict
            assert semantic == syntactic

    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_model_table_matches_direct_evaluation(self, mixed, mode, closed):
        f0 = generate_formulas(["a", "b"], 1)
        table = ModelTable(mixed, f0, mode, closed_valuations=closed)
        for index in range(len(table.assignments)):
            valuation = table.valuation_at(index)
            for formula in f0.formulas:
                direct = eval_formula(formula, valuation, mode)
                assert table.value_vector(formula)[index] == direct.mask


class TestDeductionProbe:
    def test_classical_universe_reports_none_found(self):
        universe = universe_from_partition([(1,), (2,)])
        f0 = generate_formulas(["a", "b"], 2)
        for mode in MODES:
            report = deduction_theorem_probe(universe, f0, mode=mode)
            assert not report.found

    def test_one_block_probe_completes_and_any_witness_is_sound(self, one_block):
        f0 = generate_formulas(["a", "b"], 2)
        for closed in (True, False):
            report = deduction_theorem_probe(
                one_block, f0, mode=OpMode.LITERAL, closed_valuations=closed
            )
            assert report.triples_checked > 0
            if report.found:
                premises = list(report.gamma) + [report.alpha]
                entails = semantic_consequence(
                    one_block, premises, report.beta, closed_valuations=closed
                )
                detaches = semantic_consequence(
                    one_block,
                    list(report.gamma),
                    Cond(report.alpha, report.beta),
                    closed_valuations=closed,
                )
                assert entails.verdict and not detaches.verdict

    def test_probe_is_deterministic(self, one_block):
        f0 = generate_formulas(["a", "b"], 1)
        first = deduction_theorem_probe(one_block, f0, closed_valuations=False)
        second = deduction_theorem_probe(one_block, f0, closed_valuations=False)
        assert first == second
