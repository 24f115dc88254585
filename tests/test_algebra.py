"""Graded algebra constructors, validation and the file schema."""

import copy
import json
import re
from fractions import Fraction

import pytest

from lodayhom.algebra import (
    AlgebraAxiomError, Coefficients, GradedAlgebra, InvalidTruncation,
    SchemaError, dump_algebra, exterior, load_algebra, parse_algebra_expr,
    parse_coeff_expr, polynomial, truncated_poly, unit_coefficient_algebra,
    validate_algebra,
)
from lodayhom.exactlinalg import make_field


class TestTruncatedPoly:
    def test_f3_square_zero(self):
        a = truncated_poly(3, 2)
        assert a.dim == 2
        assert a.mul(1, 1) == {}
        assert validate_algebra(a).ok

    def test_rationals(self):
        a = truncated_poly("Q", 2)
        assert a.dim == 2
        assert a.field.is_rational

    def test_higher_truncation(self):
        a = truncated_poly(5, 3)
        assert [a.name(i) for i in range(3)] == ["1", "t", "t^2"]
        assert a.mul(1, 1) == {2: 1}
        assert a.mul(1, 2) == {}

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_invalid_truncation(self, m):
        with pytest.raises(InvalidTruncation):
            truncated_poly(3, m)

    def test_weight_components(self):
        a = truncated_poly(3, 4)
        for w in range(4):
            assert len(a.indices_of_weight(w)) == 1
        assert a.indices_of_weight(4) == ()

    def test_validates_all_builtins(self):
        assert validate_algebra(truncated_poly(5, 4)).ok


class TestPolynomial:
    def test_one_monomial_per_weight(self):
        a = polynomial("Q")
        for w in range(6):
            assert len(a.indices_of_weight(w)) == 1

    def test_augmentation(self):
        a = polynomial(3)
        assert a.aug(0) == 1
        assert a.aug(1) == 0

    def test_exponent_addition(self):
        a = polynomial("Q")
        assert a.mul(2, 3) == {5: Fraction(1)}

    def test_validate_with_bound(self):
        assert validate_algebra(polynomial("Q"), weight_bound=6).ok

    def test_validate_requires_bound(self):
        with pytest.raises(ValueError):
            validate_algebra(polynomial("Q"))


class TestExterior:
    def test_basics(self):
        a = exterior(3)
        assert a.dim == 2
        assert a.mul(1, 1) == {}
        assert a.aug(1) == 0
        assert validate_algebra(a).ok

    def test_matches_truncated_poly_as_algebra(self):
        e, t = exterior(5), truncated_poly(5, 2)
        assert e.weights == t.weights
        assert all(e.mul(i, j) == t.mul(i, j) for i in range(2) for j in range(2))


class TestAugmentationUnitComposition:
    @pytest.mark.parametrize("algebra", [
        truncated_poly(3, 2), truncated_poly("Q", 4), exterior(2),
    ])
    def test_identity_on_the_field(self, algebra):
        assert algebra.aug(algebra.unit) == algebra.field.one


class TestCorruptedStructure:
    def test_named_violation(self):
        field = make_field(3)
        structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {1: 1}}
        bad = GradedAlgebra(field, ("1", "t"), (0, 1), 0, structure, (1, 0))
        report = validate_algebra(bad)
        assert not report.ok
        assert any(axiom == "weight" for axiom, _ in report.violations)

    def test_broken_commutativity(self):
        field = make_field(3)
        structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 2},
                     (1, 1): {}}
        bad = GradedAlgebra(field, ("1", "t"), (0, 1), 0, structure, (1, 0))
        report = validate_algebra(bad)
        assert any(axiom == "commutativity" for axiom, _ in report.violations)

    def test_broken_associativity(self):
        field = make_field(5)
        # x*x = y, x*y = 1 in weights (0, 1, 2) is not associative
        structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                     (1, 1): {2: 1}, (1, 2): {0: 1}, (2, 2): {}}
        bad = GradedAlgebra(field, ("1", "x", "y"), (0, 1, 2), 0, structure,
                            (1, 0, 0))
        report = validate_algebra(bad)
        assert any(axiom in ("associativity", "weight")
                   for axiom, _ in report.violations)

    def test_associativity_alone(self):
        """A commutative, weight-additive table that is not associative:
        x*y = y*y = u and x*u = v, every other product of non-units 0."""
        field = make_field(5)
        names = ("ee", "xx", "yy", "uu", "vv")
        structure = {(0, i): {i: 1} for i in range(5)}
        structure.update({(1, 2): {3: 1}, (2, 1): {3: 1}, (2, 2): {3: 1},
                          (1, 3): {4: 1}, (3, 1): {4: 1}})
        bad = GradedAlgebra(field, names, (0, 1, 1, 2, 3), 0, structure,
                            (1, 0, 0, 0, 0))
        report = validate_algebra(bad)
        assert {axiom for axiom, _ in report.violations} == {"associativity"}
        triples = [flagged(detail)[:3] for _, detail in report.violations]
        assert ("xx", "yy", "yy") in triples  # (x*y)*y = 0 != x*(y*y) = v
        # and (x*x)*y = 0 != x*(x*y) = v, with both their mirror images
        assert sorted(triples) == [("xx", "xx", "yy"), ("xx", "yy", "yy"),
                                   ("yy", "xx", "xx"), ("yy", "yy", "xx")]


# names no detail wording can contain, so that a violation's detail names
# the elements it flags whatever its wording
NAMES = ("ee", "tt", "uu", "xx", "yy", "vv")


def flagged(detail):
    """The basis elements a violation's detail names, in order."""
    return tuple(re.findall(r"\b(%s)\b" % "|".join(NAMES), detail))


def square_zero_f3(augmentation, unit_square=1):
    """F3[t]/t^2 on the basis ee (the unit), tt, with the given
    augmentation and ee * ee = unit_square * ee."""
    structure = {(0, 0): {0: unit_square}, (0, 1): {1: 1}, (1, 1): {}}
    return GradedAlgebra(make_field(3), ("ee", "tt"), (0, 1), 0, structure,
                         augmentation)


class TestAugmentationViolations:
    """The augmentation must be a ring map A -> k: it sends 1 to 1, kills
    the positive weights and is multiplicative.  Each test pins the axiom
    and the elements its violations flag, not their wording."""

    def augmentation_flags(self, algebra):
        report = validate_algebra(algebra)
        return sorted(flagged(detail) for axiom, detail in report.violations
                      if axiom == "augmentation")

    def test_unit_not_sent_to_one(self):
        # aug(1) = 2, and then aug(1 * 1) = 2 != aug(1) * aug(1) = 1
        assert self.augmentation_flags(square_zero_f3((2, 0))) == \
            [(), ("ee", "ee")]

    def test_nonzero_in_positive_weight(self):
        # aug(t) = 1, and then aug(t * t) = 0 != aug(t) * aug(t) = 1
        assert self.augmentation_flags(square_zero_f3((1, 1))) == \
            [("tt",), ("tt", "tt")]

    def test_not_multiplicative(self):
        # 1 * 1 = 2 * 1 breaks the unit law, and aug(1 * 1) = 2 != 1
        algebra = square_zero_f3((1, 0), unit_square=2)
        assert self.augmentation_flags(algebra) == [("ee", "ee")]
        assert "unit" in {axiom for axiom, _ in
                          validate_algebra(algebra).violations}

    def test_a_file_algebra_names_the_axiom(self):
        doc = dump_algebra(truncated_poly(3, 2))
        doc["augmentation"].append({"basis": "t", "coeff": 1})
        with pytest.raises(AlgebraAxiomError) as err:
            load_algebra(doc)
        assert err.value.axiom == "augmentation"


class TestMulLincomb:
    """``mul_lincomb`` against products worked out by hand."""

    def test_finite_over_f3_cancels(self):
        # x*x = x*y = u, so (x + 2y) * x = 3u = 0 and (x + 2y) * 1 = x + 2y
        structure = {(0, i): {i: 1} for i in range(4)}
        structure.update({(1, 1): {3: 1}, (1, 2): {3: 1}})
        a = GradedAlgebra(make_field(3), ("1", "x", "y", "u"), (0, 1, 1, 2),
                          0, structure, (1, 0, 0, 0))
        assert a.mul_lincomb({1: 1, 2: 2}, 1) == {}
        assert a.mul_lincomb({1: 1, 2: 2}, 0) == {1: 1, 2: 2}
        assert a.mul_lincomb({0: 2, 1: 1}, 2) == {2: 2, 3: 1}

    def test_finite_over_q(self):
        a = truncated_poly("Q", 3)
        got = a.mul_lincomb({0: Fraction(1, 2), 1: Fraction(-3)}, 1)
        assert got == {1: Fraction(1, 2), 2: Fraction(-3)}
        assert a.mul_lincomb({1: Fraction(1, 2), 2: Fraction(5)}, 1) == \
            {2: Fraction(1, 2)}
        assert a.mul_lincomb({2: Fraction(7)}, 2) == {}

    def test_polynomial_over_f3_and_q(self):
        assert polynomial(3).mul_lincomb({0: 1, 2: 2}, 3) == {3: 1, 5: 2}
        assert polynomial(3).mul_lincomb({1: 0, 2: 1}, 1) == {3: 1}
        q = polynomial("Q")
        assert q.mul_lincomb({1: Fraction(2, 3), 4: Fraction(-1)}, 0) == \
            {1: Fraction(2, 3), 4: Fraction(-1)}
        assert q.mul_lincomb({}, 5) == {}


class TestFileSchema:
    def doc(self):
        return dump_algebra(truncated_poly(3, 2))

    def test_round_trip_equals_constructor(self):
        back = load_algebra(json.dumps(self.doc()))
        ref = truncated_poly(3, 2)
        assert back.dim == ref.dim
        assert back.weights == ref.weights
        assert all(back.mul(i, j) == ref.mul(i, j)
                   for i in range(2) for j in range(2))
        assert all(back.aug(i) == ref.aug(i) for i in range(2))

    def test_non_weight_additive_structure(self):
        doc = self.doc()
        doc["structure"].append(
            {"left": "t", "right": "t", "value": [{"basis": "t", "coeff": 1}]})
        with pytest.raises(AlgebraAxiomError) as err:
            load_algebra(doc)
        assert err.value.axiom == "weight"

    def test_missing_unit_row(self):
        doc = self.doc()
        del doc["unit"]
        with pytest.raises(SchemaError):
            load_algebra(doc)

    def test_duplicate_basis_names(self):
        doc = self.doc()
        doc["basis"].append({"name": "t", "weight": 1})
        with pytest.raises(SchemaError):
            load_algebra(doc)

    def test_unknown_name_in_structure(self):
        doc = self.doc()
        doc["structure"].append(
            {"left": "nope", "right": "t", "value": []})
        with pytest.raises(SchemaError):
            load_algebra(doc)

    def test_missing_structure_defaults_to_zero(self):
        doc = self.doc()  # has no (t, t) row: zero product
        algebra = load_algebra(doc)
        assert algebra.mul(1, 1) == {}

    def test_fraction_coefficients_over_q(self):
        doc = dump_algebra(truncated_poly("Q", 2))
        doc["structure"] = [
            {"left": "1", "right": "1", "value": [{"basis": "1", "coeff": 1}]},
            {"left": "1", "right": "t", "value": [{"basis": "t", "coeff": "1/1"}]},
        ]
        algebra = load_algebra(doc)
        assert algebra.mul(0, 1) == {1: Fraction(1)}

    def test_fraction_rejected_over_prime_field(self):
        doc = self.doc()
        doc["structure"][1]["value"][0]["coeff"] = "1/2"
        with pytest.raises(SchemaError):
            load_algebra(doc)

    def test_bad_json_text(self):
        with pytest.raises(SchemaError):
            load_algebra("{not json")

    def test_bad_field_tag(self):
        doc = self.doc()
        doc["field"] = "GF9"
        with pytest.raises(SchemaError):
            load_algebra(doc)

    def test_unit_law_must_be_spelled_out(self):
        doc = self.doc()
        doc["structure"] = [e for e in doc["structure"]
                            if (e["left"], e["right"]) != ("1", "t")]
        with pytest.raises(AlgebraAxiomError) as err:
            load_algebra(doc)
        assert err.value.axiom == "unit"


class TestCoefficients:
    def test_modes(self):
        assert Coefficients.unit().mode == "unit"
        assert Coefficients.self_algebra().mode == "self"
        c = Coefficients.custom(truncated_poly(3, 2), [{0: 1}, {1: 1}])
        assert c.mode == "custom"

    def test_custom_needs_algebra(self):
        with pytest.raises(ValueError):
            Coefficients("custom")

    @pytest.mark.parametrize("mode", ["unit", "self"])
    def test_unit_and_self_reject_algebra_and_action(self, mode):
        with pytest.raises(ValueError):
            Coefficients(mode, algebra=exterior(5))
        with pytest.raises(ValueError):
            Coefficients(mode, action=[{0: 1}, {}])
        with pytest.raises(ValueError):
            Coefficients(mode, algebra=exterior(5), action=[{0: 1}, {}])

    @pytest.mark.parametrize("text,mode", [
        ("unit", "unit"), (" self", "self"), ("unit\t", "unit"),
        ("  self  ", "self"),
    ])
    def test_parse_strips_surrounding_whitespace(self, text, mode):
        # as parse_algebra_expr does
        assert parse_coeff_expr(text, 3).mode == mode

    def test_unit_coefficient_algebra(self):
        k = unit_coefficient_algebra(make_field(7))
        assert k.dim == 1 and k.weight(0) == 0
        assert validate_algebra(k).ok
