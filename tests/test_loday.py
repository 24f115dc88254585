"""Chain assembly, normalization and homology of the labelled complexes."""

import json
import re
from random import Random
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from lodayhom import loday, oracle
from lodayhom.acceptance import hochschild_closed_form, random_small_inputs
from lodayhom.algebra import (
    AlgebraAxiomError, Coefficients, GradedAlgebra, exterior, load_algebra,
    parse_algebra_expr, polynomial, truncated_poly,
)
from lodayhom.exactlinalg import make_field
from lodayhom.loday import (
    BasisSizeExceeded, FieldMismatch, LodayComplex, TruncationTooShallow,
    WeightBoundRequired, _block_counts, _degenerate_complements,
    _enumerate_block_bases, _normalized_counts, build_complex, chain_dims,
    homology_dims,
)
from lodayhom.simplicial import (
    PointedSimplicialSet, build_space, circle, point, simplex_sphere, validate,
)

UNIT = Coefficients.unit()


class Labeling(NamedTuple):
    """A packed labeling code read back: the algebra label per
    non-basepoint slot, and the coefficient index."""

    assignment: tuple
    coeff: int


def decode(code, n_slots, bits):
    """The ``Labeling`` of a packed code over ``n_slots`` slots of ``bits``
    bits each, the coefficient above the last slot
    (``loday._pull_faces``)."""
    digit = (1 << bits) - 1
    return Labeling(tuple(code >> q * bits & digit for q in range(n_slots)),
                    code >> n_slots * bits)


def decoded_terms(complex_):
    """The ``terms`` of a complex, keyed ``level + (w,)``, as ``Labeling``
    lists; for one axis they are its ``bases``."""
    return {key: [decode(code, len(complex_.slots[key[:-1]]), complex_.bits)
                  for code in codes]
            for key, codes in complex_.terms.items()}


def degree_totals(dims_by_block, degree):
    return sum(v for (p, _), v in dims_by_block.items() if p == degree)


class TestChainDims:
    def test_circle_unnormalized_powers_of_two(self):
        complex_ = build_complex(circle(4), truncated_poly(3, 2), UNIT, 3,
                                 normalized=False)
        dims = chain_dims(complex_)
        assert [degree_totals(dims, p) for p in range(5)] == [1, 2, 4, 8, 16]

    def test_circle_normalized_all_ones(self):
        complex_ = build_complex(circle(4), truncated_poly(3, 2), UNIT, 3)
        dims = chain_dims(complex_)
        assert [degree_totals(dims, p) for p in range(5)] == [1, 1, 1, 1, 1]

    def test_torus_degree3_block(self):
        complex_ = build_complex(build_space("prod(S1,S1)", 3),
                                 truncated_poly(3, 2), UNIT, 2,
                                 normalized=False)
        dims = chain_dims(complex_)
        assert degree_totals(dims, 2) == 2 ** 8
        assert degree_totals(dims, 3) == 2 ** 15

    def test_circle_degree_five(self):
        complex_ = build_complex(circle(6), truncated_poly(3, 2), UNIT, 5,
                                 normalized=False)
        assert degree_totals(chain_dims(complex_), 5) == 32

    def test_polynomial_normalized_weight_two(self):
        complex_ = build_complex(circle(3), polynomial("Q"), UNIT, 2,
                                 weight_bound=2)
        dims = chain_dims(complex_)
        # only t (x) t survives normalization in weight 2 at degree 2;
        # t^2 (x) 1 and 1 (x) t^2 are degeneracy images
        assert dims[(2, 2)] == 1
        assert dims == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1}


class TestChainDimsListsNothing:
    """``chain_dims`` sums the exact counts per (total degree, weight) and
    lists no level; the counts are the sizes of the listed ``bases``."""

    def test_calls_level_for_no_level(self, monkeypatch):
        complex_ = build_complex(build_space("prod(S1,S1)", 3),
                                 truncated_poly(3, 2), UNIT, 2)
        listed, level = [], LodayComplex.level

        def spied_level(self, key):
            listed.append(key)
            return level(self, key)

        monkeypatch.setattr(LodayComplex, "level", spied_level)
        dims = chain_dims(complex_)
        assert listed == []
        assert dims == {k: len(codes) for k, codes in complex_.bases.items()}
        assert listed == [(3,)]

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_counts_are_the_listed_sizes(self, coeffs, normalized):
        complexes = [build_complex(build_space(expr, d + 1),
                                   parse_algebra_expr(spec, p), coeffs, d,
                                   normalized=normalized)
                     for expr, spec, p, d in random_small_inputs()]
        complexes += [
            LodayComplex((circle(3), circle(3)), truncated_poly(3, 2), coeffs,
                         2, None, normalized),
            LodayComplex((build_space("wedge(S1,S1)", 2), build_space("pt", 2)),
                         truncated_poly(2, 2), coeffs, 1, None, normalized),
            build_complex(circle(4), polynomial(3), coeffs, 3, weight_bound=3,
                          normalized=normalized),
            build_complex(build_space("pt", 3), truncated_poly(3, 3), coeffs,
                          2, normalized=normalized),
        ]
        for complex_ in complexes:
            assert chain_dims(complex_) == {
                k: len(codes) for k, codes in complex_.bases.items()}


def degenerate_span_count(space, algebra, c_alg_dim, level, bases_below, unit):
    """Independent count of degenerate labelings at a level: the union of the
    degeneracy pushforward images of the basis one level down."""
    images = set()
    bp = space.basepoints[level]
    slots = [s for s in range(space.size(level)) if s != bp]
    pos = {sid: q for q, sid in enumerate(slots)}
    bp_low = space.basepoints[level - 1]
    slots_low = [s for s in range(space.size(level - 1)) if s != bp_low]
    for j in range(level):
        smap = space.degeneracy(level - 1, j)
        for lab in bases_below:
            assignment = [unit] * len(slots)
            for q_low, sid_low in enumerate(slots_low):
                assignment[pos[smap[sid_low]]] = lab.assignment[q_low]
            images.add(Labeling(tuple(assignment), lab.coeff))
    return len(images)


class TestNormalizationCriterion:
    @pytest.mark.parametrize("space_text,algebra", [
        ("S1", truncated_poly(3, 2)),
        ("sphere(2)", truncated_poly(3, 2)),
        ("prod(S1,S1)", exterior(2)),
        ("wedge(S1,simplexsphere(2))", truncated_poly(5, 3)),
    ])
    def test_normalized_count_matches_degeneracy_span(self, space_text, algebra):
        space = build_space(space_text, 3)
        full = build_complex(space, algebra, UNIT, 2, normalized=False)
        norm = build_complex(space, algebra, UNIT, 2, normalized=True)
        for p in range(1, 4):
            total = sum(len(v) for (q, w), v in full.bases.items() if q == p)
            kept = sum(len(v) for (q, w), v in norm.bases.items() if q == p)
            below = [lab for (q, w), labs in decoded_terms(full).items()
                     if q == p - 1 for lab in labs]
            degenerate = degenerate_span_count(space, algebra, 1, p, below,
                                               algebra.unit)
            assert kept == total - degenerate, (space_text, p)


def filtered_block_bases(algebra, c_alg, n_slots, bound, complements):
    """Reference enumeration: every labeling within the weight bound, in
    lexicographic order, then drop those that are the unit on all slots of
    some complement."""
    unit = algebra.unit
    slot_indices = list(algebra.basis_indices(bound))
    coeffs = sorted(c_alg.basis_indices(bound), key=c_alg.weight)
    out = {}

    def walk(prefix, used):
        if len(prefix) == n_slots:
            if any(all(prefix[q] == unit for q in comp)
                   for comp in complements):
                return
            for ci in coeffs:
                w = used + c_alg.weight(ci)
                if w <= bound:
                    out.setdefault(w, []).append(Labeling(tuple(prefix), ci))
            return
        for i in slot_indices:
            if used + algebra.weight(i) <= bound:
                walk(prefix + [i], used + algebra.weight(i))

    walk([], 0)
    return out


def enumeration_levels():
    """Every level of the random small inputs and of a few named spaces, with
    its slots and degeneracy complements."""
    inputs = [(expr, max_degree + 1)
              for expr, _, _, max_degree in random_small_inputs()]
    inputs += [(expr, 3) for expr in ("S1", "sphere(2)", "simplexsphere(2)",
                                      "prod(S1,S1)", "smash(S1,S1)")]
    for expr, top in inputs:
        space = build_space(expr, top)
        for p in range(top + 1):
            bp = space.basepoints[p]
            slots = tuple(s for s in range(space.size(p)) if s != bp)
            yield expr, p, slots, _degenerate_complements(
                (space,), (p,), [(s,) for s in slots])


def label_bits(algebra, c_alg, bound):
    """Bits per slot that hold every label and coefficient index up to the
    weight bound."""
    top = max(max(algebra.basis_indices(bound)),
              max(c_alg.basis_indices(bound)))
    return max(1, top.bit_length())


def cube_unit_second():
    """k[x]/x^3 over F3 on the basis x, 1, y (weights 1, 0, 2), so that its
    unit is index 1: a label and a coefficient algebra whose unit is not the
    first index."""
    products = [{"left": "1", "right": b, "value": [{"basis": b, "coeff": 1}]}
                for b in ("x", "1", "y")]
    return load_algebra(json.dumps({
        "field": "Fp:3",
        "basis": [{"name": "x", "weight": 1}, {"name": "1", "weight": 0},
                  {"name": "y", "weight": 2}],
        "unit": "1",
        "structure": products + [{"left": "x", "right": "x",
                                  "value": [{"basis": "y", "coeff": 1}]}],
        "augmentation": [{"basis": "1", "coeff": 1}],
    }))


class TestPrunedEnumeration:
    @pytest.mark.parametrize("algebra,bound", [
        (truncated_poly(3, 2), 30), (exterior(3), 30), (polynomial(3), 4),
    ], ids=["truncpoly(2)", "exterior", "poly"])
    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_matches_filtered_enumeration(self, algebra, bound, coeffs):
        c_alg, _ = coeffs.resolve(algebra)
        saw_degenerate_level = False
        for expr, p, slots, complements in enumeration_levels():
            bits = label_bits(algebra, c_alg, bound)
            got = {w: [decode(x, len(slots), bits) for x in codes]
                   for w, codes in _enumerate_block_bases(
                       algebra, c_alg, len(slots), bound, bits,
                       complements).items()}
            want = filtered_block_bases(algebra, c_alg, len(slots), bound,
                                        complements)
            assert got == want, (expr, p)
            if not all(complements):
                saw_degenerate_level = True
                assert got == {}, (expr, p)
        assert saw_degenerate_level

    @pytest.mark.parametrize("algebra,bound", [
        (truncated_poly(3, 2), 30), (polynomial(3), 4),
        (cube_unit_second(), 5),
    ], ids=["truncpoly(2)", "poly", "cube-unit-second"])
    @pytest.mark.parametrize("coeffs", [
        UNIT, Coefficients.self_algebra(),
        Coefficients.custom(cube_unit_second(), None),
    ], ids=["unit", "self", "custom"])
    @pytest.mark.parametrize("axes,max_degree", [
        (("S1", "S1"), 3), (("wedge(S1,S1)", "pt"), 3),
        (("S1", "simplexsphere(2)"), 2),
    ], ids=["S1xS1", "wedge-x-pt", "S1xS2"])
    def test_matches_filtered_enumeration_on_several_axes(
            self, algebra, bound, coeffs, axes, max_degree):
        """Per-axis normalized levels of products, whose degeneracies miss
        several slots at once, list the same codes in the same order as the
        filtered reference; the coefficients of the custom algebra, the
        algebra of ``self`` on the cube, and the cube's labels have several
        weights and a unit that is not the first index."""
        c_alg, _ = coeffs.resolve(algebra)
        bits = label_bits(algebra, c_alg, bound)
        spaces = tuple(build_space(expr, max_degree + 1) for expr in axes)
        complex_ = LodayComplex(spaces, algebra, UNIT, max_degree, bound)
        several = False
        for key, slots in complex_.slots.items():
            complements = _degenerate_complements(spaces, key, slots)
            several |= any(len(comp) > 1 for comp in complements)
            got = {w: [decode(x, len(slots), bits) for x in codes]
                   for w, codes in _enumerate_block_bases(
                       algebra, c_alg, len(slots), bound, bits,
                       complements).items()}
            want = filtered_block_bases(algebra, c_alg, len(slots), bound,
                                        complements)
            assert got == want, key
            assert list(got) == sorted(want), key
        assert several


class TestBlockCounts:
    @pytest.mark.parametrize("algebra,bound", [
        (truncated_poly(3, 2), 8), (truncated_poly(2, 4), 8), (exterior(2), 6),
        (polynomial(3), 5),
    ], ids=["truncpoly(2)", "truncpoly(4)", "exterior", "poly"])
    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_counts_equal_unnormalized_block_sizes(self, algebra, bound,
                                                   coeffs):
        c_alg, _ = coeffs.resolve(algebra)
        for n_slots in range(6):
            blocks = _enumerate_block_bases(algebra, c_alg, n_slots, bound,
                                            label_bits(algebra, c_alg, bound))
            assert _block_counts(algebra, c_alg, n_slots, bound) == \
                [len(blocks.get(w, ())) for w in range(bound + 1)], n_slots

    @staticmethod
    def _assert_derived_counts_equal_fresh_ones(complex_):
        for key, cells in complex_.slots.items():
            assert complex_.counts[key] == _block_counts(
                complex_.algebra, complex_.c_alg, len(cells),
                complex_.bound), key

    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_derived_level_counts_equal_fresh_ones(self, coeffs):
        """Each level's counts, derived from the level with the most slots
        below it, equal the convolution from scratch: on every level of
        the random small inputs, of a two-axis product and of a
        weight-bounded complex over k[t]."""
        for expr, algebra_spec, p, d in random_small_inputs():
            algebra = parse_algebra_expr(algebra_spec, p)
            self._assert_derived_counts_equal_fresh_ones(build_complex(
                build_space(expr, d + 1), algebra, coeffs, d))
        grid = LodayComplex((circle(4), build_space("sphere(2)", 4)),
                            truncated_poly(3, 2), coeffs, 3)
        assert len({len(cells) for cells in grid.slots.values()}) > 4
        self._assert_derived_counts_equal_fresh_ones(grid)
        self._assert_derived_counts_equal_fresh_ones(build_complex(
            build_space("wedge(S1,sphere(2))", 5), polynomial(3), coeffs, 4,
            weight_bound=6))


def level_sizes(space, algebra, coefficients, levels, normalized=True,
                bound=None):
    """Per level of ``levels``: the block sizes of the complex's enumeration
    weight by weight, asserted equal to the counts the implicit top reads
    (the Dold–Kan inversion ``_normalized_counts`` of the stored counts of
    levels 0..p when normalized, the stored counts otherwise); returns the
    level totals.  The complex's top level is the highest of ``levels``."""
    complex_ = LodayComplex((space,), algebra, coefficients, max(levels) - 1,
                            bound, normalized)
    totals = []
    for p in levels:
        counts = complex_.counts[(p,)]
        if normalized:
            counts = _normalized_counts(complex_.counts, (p,))
        blocks = complex_.level((p,))
        assert counts == [len(blocks.get(w, ()))
                          for w in range(complex_.bound + 1)], \
            (space.label, p, normalized)
        totals.append(sum(counts))
    return totals


class TestNormalizedCounts:
    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_every_level_of_the_random_small_inputs(self, coeffs):
        for expr, algebra_spec, p, d in random_small_inputs():
            space = build_space(expr, d + 1)
            algebra = parse_algebra_expr(algebra_spec, p)
            for normalized in (True, False):
                level_sizes(space, algebra, coeffs, range(d + 2), normalized)

    @pytest.mark.parametrize("expr", ["prod(S1,S1)",
                                      "wedge(wedge(S1,S1),sphere(2))"])
    def test_headline_spaces_to_level_three(self, expr):
        assert level_sizes(build_space(expr, 3), truncated_poly(3, 2), UNIT,
                           range(4)) == [1, 7, 241, 32023]

    @pytest.mark.parametrize("normalized", [True, False])
    def test_circle_truncpoly_four_at_level_eight(self, normalized):
        level_sizes(circle(8), truncated_poly(3, 4), UNIT, [8], normalized)

    def test_circle_at_level_thirty_one(self):
        """Sized from the 32 level counts, whatever the 31 degeneracy
        complements are."""
        assert level_sizes(circle(31), polynomial(3), UNIT, [31],
                           bound=3) == [0]

    def test_torus_over_poly_at_level_nine(self):
        assert level_sizes(build_space("prod(S1,S1)", 9), polynomial(3), UNIT,
                           [9], bound=1) == [0]


class TestHochschildClosedForm:
    """Weight by weight, the thin top blocks included, against an oracle that
    shares no code with the complex."""

    @pytest.mark.parametrize("m,d", [(2, 7), (3, 6), (4, 5), (5, 4)])
    @pytest.mark.parametrize("field", [2, 3, 5, "Q"])
    def test_truncated_polynomials(self, m, d, field):
        algebra = truncated_poly(field, m)
        want = hochschild_closed_form(m, algebra.field.p, d)
        for normalized in (True, False):
            table = homology_dims(build_complex(
                circle(d + 1), algebra, Coefficients.self_algebra(), d,
                normalized=normalized))
            assert table.dims == want, normalized

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from([2, 3, 5, "Q"]), m=st.integers(2, 6),
           d=st.integers(0, 7), normalized=st.booleans())
    def test_random_truncations(self, field, m, d, normalized):
        # m ** (d + 2) bounds the labelings of the top level; past 20 000 a
        # draw takes seconds or is refused by the ceiling
        assume(m ** (d + 2) <= 20_000)
        algebra = truncated_poly(field, m)
        table = homology_dims(build_complex(
            circle(d + 1), algebra, Coefficients.self_algebra(), d,
            normalized=normalized))
        assert table.dims == hochschild_closed_form(m, algebra.field.p, d)


def free_graded_commutative(betti, d, max_weight):
    """Dimensions per (degree, weight), through degree d and weight
    max_weight, of the free graded-commutative algebra on ``betti[n]``
    generators of degree n, each of weight 1: exterior on the odd ones,
    polynomial on the even ones."""
    dims = {(0, 0): 1}
    for n, count in betti.items():
        for _ in range(count):
            grown = {}
            for (deg, w), v in dims.items():
                for k in range(2 if n % 2 else max_weight + 1):
                    key = (deg + k * n, w + k)
                    if key[0] <= d and key[1] <= max_weight:
                        grown[key] = grown.get(key, 0) + v
            dims = grown
    return dims


class TestPolynomialClosedForm:
    """Over Q with unit coefficients, L_X(k[t]; k) is the free
    graded-commutative algebra on the reduced rational homology of X,
    placed in weight 1 (Pirashvili, Ann. Sci. ÉNS 2000).  Not true in
    characteristic p."""

    @pytest.mark.parametrize("expr,betti,d,max_weight", [
        ("S1", {1: 1}, 6, 6),
        ("simplexsphere(2)", {2: 1}, 4, 3),
        ("prod(S1,S1)", {1: 2, 2: 1}, 3, 3),
        ("prod(S1,S1)", {1: 2, 2: 1}, 8, 1),
        ("wedge(S1,S1)", {1: 2}, 4, 3),
        ("wedge(S1,simplexsphere(2))", {1: 1, 2: 1}, 3, 3),
    ])
    def test_rational_polynomial(self, expr, betti, d, max_weight):
        table = homology_dims(build_complex(
            build_space(expr, d + 1), polynomial("Q"), UNIT, d,
            weight_bound=max_weight))
        assert table.dims == free_graded_commutative(betti, d, max_weight)


class TestHomology:
    def test_circle_closed_form(self):
        table = homology_dims(
            build_complex(circle(4), truncated_poly(3, 2), UNIT, 3))
        assert table.totals() == [1, 1, 1, 1]
        # one class per degree, sitting in weight = degree
        assert table.nonzero_blocks() == [((0, 0), 1), ((1, 1), 1),
                                          ((2, 2), 1), ((3, 3), 1)]

    def test_point(self):
        table = homology_dims(
            build_complex(point(3), truncated_poly(5, 2), UNIT, 2))
        assert table.totals() == [1, 0, 0]

    def test_sphere_two_models_agree(self):
        smash_model = homology_dims(build_complex(
            build_space("sphere(2)", 3), truncated_poly(3, 2), UNIT, 2))
        delta_model = homology_dims(build_complex(
            simplex_sphere(2, 3), truncated_poly(3, 2), UNIT, 2))
        assert smash_model.totals() == delta_model.totals() == [1, 0, 1]
        assert smash_model.dims == delta_model.dims

    def test_torus(self):
        table = homology_dims(build_complex(
            build_space("prod(S1,S1)", 3), truncated_poly(3, 2), UNIT, 2))
        assert table.totals() == [1, 2, 3]

    def test_wedge_degree_two(self):
        table = homology_dims(build_complex(
            build_space("wedge(wedge(S1,S1),sphere(2))", 3),
            truncated_poly(3, 2), UNIT, 2))
        assert table.totals() == [1, 2, 4]

    def test_h0_is_one_for_connected_spaces(self):
        for text in ("S1", "sphere(2)", "torus(2)", "wedge(S1,sphere(2))"):
            table = homology_dims(build_complex(
                build_space(text, 2), truncated_poly(3, 2), UNIT, 1))
            assert table.total(0) == 1, text

    def test_boundary_squares_everywhere(self):
        complex_ = build_complex(build_space("smash(S1,simplexsphere(2))", 3),
                                 truncated_poly(3, 3), UNIT, 2)
        assert complex_.check_boundary_squares() == []


def sympy_rank(matrix):
    """The rank of a ``SparseMatrix`` from sympy's sparse domain matrices
    over GF(p) or QQ, an elimination of its own.  A matrix wider than it is
    tall is transposed first: sympy's row reduction is many times slower on
    the wide top blocks."""
    field = matrix.field
    if field.is_rational:
        domain, scalar = QQ, lambda v: QQ(v.numerator, v.denominator)
    else:
        domain = scalar = GF(field.p)
    wide = matrix.cols > matrix.rows
    rows = {}
    for (r, c), v in matrix.entries.items():
        if wide:
            r, c = c, r
        rows.setdefault(r, {})[c] = scalar(v)
    shape = (matrix.rows, matrix.cols)
    return DomainMatrix(rows, shape[::-1] if wide else shape, domain).rank()


def plain_rank_dims(complex_):
    """Homology dims from the rank of every full boundary block, without
    clearing, each ranked by sympy (``sympy_rank``) rather than by the
    elimination that ``homology_dims`` runs: the reference for it."""
    ranks = {key: sympy_rank(mat) for key, mat in complex_.boundaries.items()}
    dims = {}
    for (p, w), labs in complex_.bases.items():
        if p <= complex_.max_degree:
            value = len(labs) - ranks.get((p, w), 0) - ranks.get((p + 1, w), 0)
            if value:
                dims[(p, w)] = value
    return dims


class TestClearedRank:
    """``homology_dims`` leaves the pivot columns of each block out of the
    rows of the block above; the dims must equal those of plain ranks."""

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("mode", ["unit", "self"])
    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_small_inputs(self, field, mode, normalized):
        for expr, algebra_spec, _, d in random_small_inputs():
            algebra = parse_algebra_expr(algebra_spec, field)
            coefficients = Coefficients(mode)
            complex_ = build_complex(build_space(expr, d + 1), algebra,
                                     coefficients, d, normalized=normalized)
            assert homology_dims(complex_).dims == \
                plain_rank_dims(complex_), (expr, algebra_spec)

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_grid_total_complex(self, field):
        grid = oracle.torus_bicomplex(truncated_poly(field, 2), UNIT, 2)
        assert homology_dims(grid).dims == plain_rank_dims(grid)

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("field,positive", [(2, 4), (3, 3), ("Q", 3)])
    def test_circle_truncpoly_four_self(self, field, positive, normalized):
        """HH of k[t]/t^4 to degree 4: four blocks per weight above the
        first, so a cleared set carried past the next block shows."""
        complex_ = build_complex(circle(5), truncated_poly(field, 4),
                                 Coefficients.self_algebra(), 4,
                                 normalized=normalized)
        table = homology_dims(complex_)
        assert table.dims == plain_rank_dims(complex_)
        assert table.totals() == [4] + [positive] * 4


class TestSelfAndCustomCoefficients:
    def test_self_coefficients_circle(self):
        table = homology_dims(build_complex(
            circle(4), truncated_poly(3, 2), Coefficients.self_algebra(), 3))
        assert table.totals() == [2, 1, 1, 1]
        unnorm = homology_dims(build_complex(
            circle(4), truncated_poly(3, 2), Coefficients.self_algebra(), 3,
            normalized=False))
        assert unnorm.dims == table.dims

    def test_self_coefficients_char_two(self):
        table = homology_dims(build_complex(
            circle(4), truncated_poly(2, 2), Coefficients.self_algebra(), 3))
        assert table.totals() == [2, 2, 2, 2]

    def test_custom_action(self):
        # F3[t]/t^3 acting on F3[t]/t^2 by t -> t
        source = truncated_poly(3, 3)
        target = truncated_poly(3, 2)
        coeffs = Coefficients.custom(target, [{0: 1}, {1: 1}, {}])
        table = homology_dims(build_complex(circle(3), source, coeffs, 2))
        unnorm = homology_dims(build_complex(circle(3), source, coeffs, 2,
                                             normalized=False))
        assert table.dims == unnorm.dims
        assert table.total(0) == 2  # C / (positive part of A acting) = C

    def test_custom_action_must_be_multiplicative(self):
        source = truncated_poly(3, 3)
        target = truncated_poly(3, 2)
        # t -> t but t^2 -> t is not a ring map (t*t = t^2 -> 0 != t)
        with pytest.raises(ValueError):
            build_complex(circle(3), source,
                          Coefficients.custom(target, [{0: 1}, {1: 1}, {1: 1}]),
                          1)

    @staticmethod
    def cube_f3():
        """F3[t]/t^3 on the basis ee (the unit), tt, uu = t^2: names no
        detail wording can contain."""
        structure = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                     (1, 1): {2: 1}, (1, 2): {}, (2, 2): {}}
        return GradedAlgebra(make_field(3), ("ee", "tt", "uu"), (0, 1, 2), 0,
                             structure, (1, 0, 0))

    @pytest.mark.parametrize("action,flagged", [
        ([{0: 2}, {1: 1}, {2: 1}], ()),  # 1 -> 2
        ([{0: 1}, {2: 1}, {}], ("tt",)),  # t -> t^2 leaves weight 1
        ([{0: 1}, {1: 1}, {2: 2}], ("tt", "tt")),  # t^2 -> 2t^2 != t * t
    ], ids=["unit", "weight", "multiplicative"])
    def test_custom_action_violation_flags(self, action, flagged):
        """A custom action that is no ring map is refused with the axiom
        ``custom action``, naming the first element or pair it fails on
        (pinned, not the wording)."""
        cube = self.cube_f3()
        with pytest.raises(AlgebraAxiomError) as err:
            build_complex(circle(3), cube, Coefficients.custom(cube, action),
                          1)
        assert err.value.axiom == "custom action"
        names = re.findall(r"\b(ee|tt|uu)\b", str(err.value))
        assert tuple(names) == flagged

    def test_custom_action_field_mismatch(self):
        source = truncated_poly(3, 2)
        target = truncated_poly(5, 2)
        with pytest.raises(FieldMismatch):
            build_complex(circle(3), source,
                          Coefficients.custom(target, [{0: 1}, {1: 1}]), 1)


class TestWeightBlocks:
    def test_boundaries_preserve_weight_structurally(self):
        complex_ = build_complex(build_space("wedge(S1,S1)", 3),
                                 truncated_poly(3, 3), UNIT, 2)
        for (p, w), mat in complex_.boundaries.items():
            assert mat.cols == len(complex_.bases[(p, w)])
            assert mat.rows == len(complex_.bases.get((p - 1, w), ()))

    def test_weight_bound_consistency(self):
        small = homology_dims(build_complex(
            circle(3), polynomial(3), UNIT, 2, weight_bound=2))
        large = homology_dims(build_complex(
            circle(3), polynomial(3), UNIT, 2, weight_bound=4))
        for (n, w), dim in small.dims.items():
            assert large.get(n, w) == dim
        for (n, w), dim in large.dims.items():
            if w <= 2:
                assert small.get(n, w) == dim

    def test_homology_invariant_under_simplex_relabeling(self):
        rng = Random(11)
        base = build_space("prod(S1,S1)", 2)
        perms = []
        for p in range(3):
            ids = [x for x in range(base.size(p)) if x != base.basepoints[p]]
            rng.shuffle(ids)
            perm = {}
            free = iter(ids)
            for x in range(base.size(p)):
                perm[x] = (base.basepoints[p] if x == base.basepoints[p]
                           else next(free))
            perms.append(perm)
        faces = {}
        for p in range(1, 3):
            for i in range(p + 1):
                old = base.face(p, i)
                new = [0] * base.size(p)
                for x in range(base.size(p)):
                    new[perms[p][x]] = perms[p - 1][old[x]]
                faces[(p, i)] = new
        degens = {}
        for p in range(2):
            for i in range(p + 1):
                old = base.degeneracy(p, i)
                new = [0] * base.size(p)
                for x in range(base.size(p)):
                    new[perms[p][x]] = perms[p + 1][old[x]]
                degens[(p, i)] = new
        shuffled = PointedSimplicialSet(base.level_sizes, base.basepoints,
                                        faces, degens)
        assert validate(shuffled).ok
        left = homology_dims(build_complex(base, truncated_poly(3, 2), UNIT, 1))
        right = homology_dims(build_complex(shuffled, truncated_poly(3, 2),
                                            UNIT, 1))
        assert left.dims == right.dims


class TestErrors:
    def test_truncation_too_shallow(self):
        with pytest.raises(TruncationTooShallow):
            build_complex(circle(2), truncated_poly(3, 2), UNIT, 2)

    def test_weight_bound_required(self):
        with pytest.raises(WeightBoundRequired):
            build_complex(circle(3), polynomial(3), UNIT, 2)

    def test_custom_coefficient_algebra_must_be_finite(self):
        with pytest.raises(ValueError, match="must be finite"):
            build_complex(circle(3), truncated_poly(3, 2),
                          Coefficients.custom(polynomial(3), None), 1)

    def test_basis_ceiling(self):
        with pytest.raises(BasisSizeExceeded):
            build_complex(build_space("prod(S1,S1)", 3), truncated_poly(3, 2),
                          UNIT, 2, max_block_size=100)

    def test_total_ceiling_fails_before_enumerating(self, monkeypatch):
        # every (degree, weight) block of the degree-2 torus over k[t]/t^3
        # fits under the default ceiling; the whole complex does not
        def enumerate_nothing(*args):
            raise AssertionError("enumerated past the ceiling")
        monkeypatch.setattr(loday, "_enumerate_block_bases", enumerate_nothing)
        total = 3 ** 0 + 3 ** 3 + 3 ** 8 + 3 ** 15
        with pytest.raises(BasisSizeExceeded, match=f"needs {total} labelings"):
            build_complex(build_space("prod(S1,S1)", 3), truncated_poly(2, 3),
                          UNIT, 2)

    def test_ceiling_without_weight_bound_fails_before_counting(self,
                                                              monkeypatch):
        # level p of the 4-torus has (p + 1)^4 - 1 slots; without a weight
        # bound every labeling fits, so the total needs no convolution
        def count_nothing(*args):
            raise AssertionError("convolved past the ceiling")
        monkeypatch.setattr(loday, "_block_counts", count_nothing)
        total = sum(2 ** ((p + 1) ** 4 - 1) for p in range(5))
        with pytest.raises(BasisSizeExceeded,
                           match=f"needs {total} labelings, ceiling is 10$"):
            build_complex(build_space("torus(4)", 4), truncated_poly(3, 2),
                          UNIT, 3, max_block_size=10)

    def test_negative_weight_bound(self):
        with pytest.raises(ValueError, match="weight_bound"):
            build_complex(circle(2), polynomial(3), UNIT, 1, weight_bound=-1)

    def test_deterministic_bases_and_boundaries(self):
        def build():
            return build_complex(build_space("wedge(S1,sphere(2))", 3),
                                 truncated_poly(5, 2), UNIT, 2)
        a, b = build(), build()
        assert a.bases == b.bases
        assert {k: m.entries for k, m in a.boundaries.items()} == \
            {k: m.entries for k, m in b.boundaries.items()}
