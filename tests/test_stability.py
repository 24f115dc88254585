"""Comparison drivers and their verdicts."""

import pytest

from lodayhom.algebra import (
    Coefficients, parse_algebra_expr, polynomial, truncated_poly,
)
from lodayhom.exactlinalg import make_field
from lodayhom.simplicial import PointedSimplicialSet
from lodayhom.stability import (
    NotConnected, PRESET_EQUIVALENT_PAIRS, compare_spaces,
    product_decomposition_check,
)

UNIT = Coefficients.unit()
TORUS = "prod(S1,S1)"
WEDGE = "wedge(wedge(S1,S1),sphere(2))"


class TestCompareSpaces:
    def test_odd_prime_discrepancy(self):
        report = compare_spaces(TORUS, WEDGE, truncated_poly(3, 2), UNIT, 2)
        assert not report.agrees
        assert report.left_totals() == [1, 2, 3]
        assert report.right_totals() == [1, 2, 4]
        assert report.first_discrepancy == (2, 2, 2, 3)
        assert report.verdict == "first-discrepancy(degree=2,weight=2,left=2,right=3)"

    def test_char_two_agreement(self):
        report = compare_spaces(TORUS, WEDGE, truncated_poly(2, 2), UNIT, 2)
        assert report.agrees
        assert report.left_totals() == report.right_totals() == [1, 2, 4]

    def test_sphere_models_agree(self):
        report = compare_spaces("sphere(2)", "simplexsphere(2)",
                                truncated_poly(3, 2), UNIT, 2)
        assert report.agrees

    def test_reflexivity(self):
        for text in ("S1", "sphere(2)", WEDGE):
            report = compare_spaces(text, text, truncated_poly(3, 2), UNIT, 1)
            assert report.agrees, text

    def test_symmetry_of_the_verdict(self):
        left = compare_spaces(TORUS, WEDGE, truncated_poly(3, 2), UNIT, 2)
        right = compare_spaces(WEDGE, TORUS, truncated_poly(3, 2), UNIT, 2)
        n, w, a, b = left.first_discrepancy
        assert right.first_discrepancy == (n, w, b, a)

    def test_wedge_of_agreeing_pairs_agrees(self):
        pairs = (("sphere(2)", "simplexsphere(2)"), ("S1", "torus(1)"))
        for (x, y) in pairs:
            assert compare_spaces(x, y, truncated_poly(3, 2), UNIT, 2).agrees
        combined = compare_spaces(
            f"wedge({pairs[0][0]},{pairs[1][0]})",
            f"wedge({pairs[0][1]},{pairs[1][1]})",
            truncated_poly(3, 2), UNIT, 2)
        assert combined.agrees

    def test_missing_blocks_count_as_zero(self):
        # S^1 against the point: every block of the point side is absent
        report = compare_spaces("S1", "pt", truncated_poly(3, 2), UNIT, 1)
        assert not report.agrees
        assert report.first_discrepancy == (1, 1, 1, 0)


class TestProductDecomposition:
    def test_square_zero_fails(self):
        report = product_decomposition_check("S1", "S1", truncated_poly(3, 2),
                                             UNIT, 2)
        assert not report.agrees
        assert report.first_discrepancy[0] == 2
        assert report.left_totals()[2] == 3
        assert report.right_totals()[2] == 4

    def test_polynomial_holds(self):
        report = product_decomposition_check("S1", "S1", polynomial(3), UNIT,
                                             2, weight_bound=3)
        assert report.agrees

    def test_with_a_point_is_trivial(self):
        report = product_decomposition_check("S1", "pt", truncated_poly(3, 2),
                                             UNIT, 2)
        assert report.agrees

    @pytest.mark.parametrize("x,y,algebra,field,coeffs,degree,normalized", [
        ("wedge(S1,S1)", "pt", "poly", "F3", "unit", 2, True),
        ("pt", "wedge(S1,S1)", "poly", "F3", "unit", 2, True),
        ("S1", "S1", "truncpoly(2)", "F3", "unit", 2, True),
        ("S1", "S1", "truncpoly(2)", "F2", "unit", 2, False),
        ("S1", "S1", "truncpoly(2)", "Q", "self", 2, True),
        ("wedge(S1,S1)", "pt", "truncpoly(3)", "F2", "self", 2, False),
        ("S1", "wedge(S1,S1)", "exterior", "Q", "unit", 1, True),
        ("sphere(2)", "S1", "exterior", "F3", "self", 1, True),
        ("S1", "sphere(2)", "truncpoly(2)", "F2", "unit", 1, True),
        ("wedge(S1,S1)", "S1", "truncpoly(2)", "Q", "unit", 1, False),
    ])
    def test_each_side_matches_the_diagonal(self, x, y, algebra, field,
                                            coeffs, degree, normalized):
        # the product side runs on the factors' axes and, with unit
        # coefficients, the wedge side is a Künneth convolution; the
        # diagonal complexes of prod(X,Y) and of the wedge are the oracle
        alg = parse_algebra_expr(algebra, make_field(field))
        coefficients = UNIT if coeffs == "unit" else Coefficients.self_algebra()
        bound = 3 if algebra == "poly" else None
        report = product_decomposition_check(x, y, alg, coefficients, degree,
                                             bound, normalized)
        diagonal = compare_spaces(
            f"prod({x},{y})", f"wedge(wedge({x},{y}),smash({x},{y}))", alg,
            coefficients, degree, bound, normalized)
        assert report.rows == diagonal.rows
        assert report.verdict == diagonal.verdict

    @pytest.mark.parametrize("y", ["S1", "sphere(2)"])
    def test_a_factor_repeated_is_ranked_once(self, monkeypatch, y):
        """With unit coefficients the wedge side ranks the diagonal complex
        of X once and reuses its table for Y when Y is the same expression;
        a Y of its own is ranked on its own.  Either way the report is the
        diagonal complexes'."""
        import lodayhom.stability as stability
        spaces, original = [], stability.build_complex

        def spy(space, *args):
            spaces.append(space.label)
            return original(space, *args)

        monkeypatch.setattr(stability, "build_complex", spy)
        alg = polynomial(3)
        report = product_decomposition_check("S1", y, alg, UNIT, 2, 5)
        factors = [label for label in spaces if "smash" not in label]
        assert factors == (["S1"] if y == "S1" else ["S1", y])
        diagonal = compare_spaces(
            f"prod(S1,{y})", f"wedge(wedge(S1,{y}),smash(S1,{y}))", alg,
            UNIT, 2, 5)
        assert (report.rows, report.verdict) == \
            (diagonal.rows, diagonal.verdict)

    def test_not_connected_rejected(self, monkeypatch):
        import lodayhom.stability as stability
        # two disjoint vertices: connected fails, so the check must refuse
        sizes = (2, 2, 2)
        faces = {(p, i): (0, 1) for p in range(1, 3) for i in range(p + 1)}
        degens = {(p, i): (0, 1) for p in range(2) for i in range(p + 1)}
        two_points = PointedSimplicialSet(sizes, (0, 0, 0), faces, degens)
        orig = stability.build_space

        def fake(expr, top):
            return two_points if str(expr) == "pt" else orig(expr, top)

        monkeypatch.setattr(stability, "build_space", fake)
        with pytest.raises(NotConnected):
            stability.product_decomposition_check(
                "pt", "S1", truncated_poly(3, 2), UNIT, 1)


class TestSuspensionInvariance:
    @pytest.mark.parametrize("left,right", [
        ("susp(S1)", "sphere(2)"),
        ("susp(S1)", "simplexsphere(2)"),
    ])
    def test_degree_two_pairs(self, left, right):
        report = compare_spaces(left, right, truncated_poly(3, 2), UNIT, 2)
        assert report.agrees

    def test_s3_models_low_degree(self):
        # level-3 chains of the smash-power model of S^3 are far beyond the
        # basis ceiling, so the two models are compared through degree 1
        report = compare_spaces("smash(S1,sphere(2))", "sphere(3)",
                                truncated_poly(3, 2), UNIT, 1)
        assert report.agrees

    def test_sphere_three_model_independence_low_degree(self):
        report = compare_spaces("sphere(3)", "simplexsphere(3)",
                                truncated_poly(3, 2), UNIT, 1)
        assert report.agrees

    def test_presets_parse(self):
        from lodayhom.simplicial import parse_space_expr
        for left, right in PRESET_EQUIVALENT_PAIRS:
            parse_space_expr(left)
            parse_space_expr(right)
