"""The grid, its total complex, and the Künneth convolution."""

import pytest

from lodayhom.algebra import Coefficients, polynomial, truncated_poly
from lodayhom.exactlinalg import SparseMatrix, make_field
from lodayhom.loday import (
    BasisSizeExceeded, HomologyTable, Labeling, LodayComplex,
    WeightBoundRequired, _Labelings, _over_axes, build_complex, homology_dims,
)
from lodayhom.oracle import (
    CoefficientMismatch, torus_bicomplex, wedge_kunneth_dims,
)
from lodayhom.simplicial import build_space, circle
from test_loday import plain_rank_dims

UNIT = Coefficients.unit()


def term_dims(bicomplex):
    """Labelings per bidegree (n, m), summed over weights."""
    dims = {}
    for (n, m, _), labs in bicomplex.terms.items():
        dims[(n, m)] = dims.get((n, m), 0) + len(labs)
    return dims


class TestTermDims:
    def test_counts_follow_the_grid_formula(self):
        dims = term_dims(torus_bicomplex(truncated_poly(3, 2), UNIT, 3))
        assert dims[(1, 1)] == 2 ** 3
        assert dims[(0, 1)] == 2
        assert dims[(2, 2)] == 2 ** 8

    def test_all_terms_present_through_total_degree(self):
        d = 2
        bicomplex = torus_bicomplex(truncated_poly(3, 2), UNIT, d)
        expected = {(n, m) for n in range(d + 2) for m in range(d + 2 - n)}
        assert set(term_dims(bicomplex)) == expected


def broken_identities(b):
    """Which of h.h = 0, v.v = 0 and h.v = v.h fail on the grid ``b``."""
    h, v = b.axis_boundaries
    broken = set()
    for (n, m, w), mat in h.items():
        low = h.get((n - 1, m, w))
        if low is not None and not low.matmul(mat).is_zero:
            broken.add("h.h")
        if (n, m, w) in v and (n - 1, m, w) in v and (n, m - 1, w) in h:
            if (v[(n - 1, m, w)].matmul(mat).entries
                    != h[(n, m - 1, w)].matmul(v[(n, m, w)]).entries):
                broken.add("h.v")
    for (n, m, w), mat in v.items():
        low = v.get((n, m - 1, w))
        if low is not None and not low.matmul(mat).is_zero:
            broken.add("v.v")
    return broken


def corrupted(b, axis, key, pos):
    """A new complex over the codes of the grid ``b`` with one entry of one
    block along ``axis`` changed in its ``.axis_boundaries``, before its
    total complex is first read."""
    bad = LodayComplex(b._labelings, b._codes)
    blocks = bad.axis_boundaries[axis]
    mat = blocks[key]
    field = mat.field
    entries = dict(mat.entries)
    value = field.add(entries.pop(pos, field.zero), field.one)
    if value != field.zero:
        entries[pos] = value
    blocks[key] = SparseMatrix(mat.rows, mat.cols, entries, field)
    return bad


class TestSquares:
    @pytest.mark.parametrize("field", [3, 2, "Q"])
    def test_directions_square_and_commute(self, field):
        bicomplex = torus_bicomplex(truncated_poly(field, 2), UNIT, 2)
        assert bicomplex.check_boundary_squares() == []

    def test_twisted_total_square_vanishes(self):
        # from degree 3 on, h.v and v.h meet in nonzero blocks, so the
        # audit sees the sign twist
        bicomplex = torus_bicomplex(truncated_poly(3, 2), UNIT, 3)
        assert bicomplex.check_boundary_squares() == []

    def test_polynomial_grid(self):
        bicomplex = torus_bicomplex(polynomial(3), UNIT, 2, weight_bound=3)
        assert bicomplex.check_boundary_squares() == []

    def test_total_audit_catches_each_broken_identity(self, bicomplex):
        # D^2 sums h.h, v.v and (-1)^n (h.v - v.h), which land in different
        # summands, so the total audit flags a corrupted grid exactly when
        # one of the three identities fails
        caught = set()
        for axis, blocks in enumerate(bicomplex.axis_boundaries):
            for key, mat in sorted(blocks.items()):
                if not (mat.rows and mat.cols):
                    continue
                for pos in sorted({(0, 0), (mat.rows - 1, mat.cols - 1),
                                   *list(mat.entries)[:2]}):
                    bad = corrupted(bicomplex, axis, key, pos)
                    broken = broken_identities(bad)
                    flagged = bad.check_boundary_squares()
                    assert bool(flagged) == bool(broken), (axis, key, pos)
                    caught |= broken
        assert caught == {"h.h", "v.v", "h.v"}


class TestTotalHomology:
    def test_odd_prime(self):
        table = homology_dims(torus_bicomplex(truncated_poly(3, 2), UNIT, 2))
        assert table.totals() == [1, 2, 3]

    def test_char_two(self):
        table = homology_dims(torus_bicomplex(truncated_poly(2, 2), UNIT, 2))
        assert table.totals() == [1, 2, 4]
        assert table.get(2, 2) == 3

    def test_rationals(self):
        table = homology_dims(torus_bicomplex(truncated_poly("Q", 2), UNIT, 2))
        assert table.totals() == [1, 2, 3]

    @pytest.mark.parametrize("field", [3, 2, "Q"])
    def test_agrees_with_diagonal_product_blockwise(self, field):
        via_grid = homology_dims(
            torus_bicomplex(truncated_poly(field, 2), UNIT, 2))
        direct = homology_dims(build_complex(
            build_space("prod(S1,S1)", 3), truncated_poly(field, 2), UNIT, 2))
        assert via_grid.dims == direct.dims

    def test_polynomial_agrees_with_diagonal(self):
        via_grid = homology_dims(
            torus_bicomplex(polynomial(3), UNIT, 2, weight_bound=3))
        direct = homology_dims(build_complex(
            build_space("prod(S1,S1)", 3), polynomial(3), UNIT, 2,
            weight_bound=3))
        assert via_grid.dims == direct.dims


def grid(axes, algebra, coefficients, d, normalized=False, weight_bound=None):
    """The complex of the labelings over two axes through total degree
    d + 1, made as ``torus_bicomplex`` makes the two-circle grid."""
    return _over_axes(axes, algebra, coefficients, d, weight_bound,
                      normalized, None)


def deferred_and_assembled(bicomplex):
    """``homology_dims`` of a grid, then, ranked apart from it, the
    homology of its eagerly assembled total complex (``plain_rank_dims``)."""
    return homology_dims(bicomplex).dims, plain_rank_dims(bicomplex)


class TestDeferredTotal:
    """``homology_dims`` ranks a grid on the uncleared rows of its twisted
    total complex, never listing its top total degree; the result equals
    the homology of the assembled total complex block by block."""

    @pytest.mark.parametrize("field", [2, 3, 5, "Q"])
    @pytest.mark.parametrize("make,bound,d", [
        (lambda f: truncated_poly(f, 2), None, 3),
        (lambda f: truncated_poly(f, 3), None, 2), (polynomial, 3, 2),
    ], ids=["truncpoly(2)", "truncpoly(3)", "poly"])
    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_torus_equals_assembled(self, field, make, bound, d, coeffs):
        deferred, assembled = deferred_and_assembled(
            torus_bicomplex(make(field), coeffs, d, bound))
        assert deferred == assembled

    @pytest.mark.parametrize("field", [2, 3, 5, "Q"])
    @pytest.mark.parametrize("left,right,normalized", [
        ("S1", "simplexsphere(2)", False), ("simplexsphere(2)", "S1", False),
        ("S1", "simplexsphere(2)", True), ("S1", "S1", True),
    ])
    def test_any_axes_equal_assembled(self, field, left, right, normalized):
        axes = (build_space(left, 3), build_space(right, 3))
        deferred, assembled = deferred_and_assembled(
            grid(axes, truncated_poly(field, 2), UNIT, 2, normalized))
        assert deferred == assembled

    def test_eager_read_of_the_deferred_total_complex(self):
        # an eager read lists the top total degree once, keeps its views,
        # totalizes the levels per total degree and leaves the ranking as
        # it was
        bicomplex = torus_bicomplex(truncated_poly(3, 2), UNIT, 2)
        before = homology_dims(bicomplex).dims
        views = (bicomplex.terms, bicomplex.axis_boundaries,
                 bicomplex.bases, bicomplex.boundaries)
        assert all(a is b for a, b in zip(views, (
            bicomplex.terms, bicomplex.axis_boundaries, bicomplex.bases,
            bicomplex.boundaries)))
        sizes = {}
        for (n, m, w), labs in bicomplex.terms.items():
            sizes[(n + m, w)] = sizes.get((n + m, w), 0) + len(labs)
        assert {k: len(labs) for k, labs in bicomplex.bases.items()} == sizes
        assert max(k for k, _ in bicomplex.boundaries) == 3
        assert homology_dims(bicomplex).dims == before == \
            plain_rank_dims(bicomplex)

    def test_degree_five_over_f3(self):
        table = homology_dims(torus_bicomplex(truncated_poly(3, 2), UNIT, 5))
        assert table.totals() == [1, 2, 3, 6, 8, 13]

    def test_leaves_the_grid_unassembled(self, monkeypatch):
        """No ``Labeling`` tuple or ``SparseMatrix`` is made and no level of
        the top total degree is listed; the grid still reads eagerly after."""
        made, listed = [], []
        new, adopt = Labeling.__new__, SparseMatrix._adopt
        level = _Labelings.level

        def counted_new(cls, *args):
            made.append("Labeling")
            return new(cls, *args)

        def counted_adopt(self, *args):
            made.append("SparseMatrix")
            return adopt(self, *args)

        def spied_level(self, key):
            listed.append(key)
            return level(self, key)

        bicomplex = torus_bicomplex(truncated_poly(3, 2), UNIT, 3)
        monkeypatch.setattr(Labeling, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(SparseMatrix, "_adopt", counted_adopt)
        monkeypatch.setattr(_Labelings, "level", spied_level)
        assert homology_dims(bicomplex).totals() == [1, 2, 3, 6]
        assert made == [] and listed == []
        assert all(type(code) is int
                   for codes in bicomplex._codes.values() for code in codes)
        assert max(n + m for n, m, _ in bicomplex._codes) == 3
        assert max(n + m for n, m, _ in bicomplex.terms) == 4
        assert {key for key in listed if sum(key) == 4} == {
            (n, 4 - n) for n in range(5)}
        assert set(made) == {"Labeling", "SparseMatrix"}


class TestAnyAxes:
    """The evaluator behind the torus grid is not specific to two circles."""

    @pytest.mark.parametrize("field", [3, 2, "Q"])
    @pytest.mark.parametrize("left,right", [("S1", "simplexsphere(2)"),
                                            ("simplexsphere(2)", "S1")])
    def test_eilenberg_zilber(self, field, left, right):
        # the twisted total complex of X x Y as a bicomplex computes the
        # homology of the diagonal prod(X, Y)
        axes = (build_space(left, 3), build_space(right, 3))
        via_axes = homology_dims(grid(axes, truncated_poly(field, 2), UNIT, 2))
        direct = homology_dims(build_complex(
            build_space(f"prod({left},{right})", 3), truncated_poly(field, 2),
            UNIT, 2))
        assert via_axes.dims == direct.dims

    @pytest.mark.parametrize("field", [3, 2, "Q"])
    @pytest.mark.parametrize("make,bound", [
        (lambda f: truncated_poly(f, 2), None),
        (lambda f: truncated_poly(f, 3), None), (polynomial, 3),
    ], ids=["truncpoly(2)", "truncpoly(3)", "poly"])
    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_per_axis_normalization(self, field, make, bound, coeffs):
        algebra = make(field)
        s1 = circle(3)
        full = grid((s1, s1), algebra, coeffs, 2, weight_bound=bound)
        normalized = grid((s1, s1), algebra, coeffs, 2, True, bound)
        assert homology_dims(normalized).dims == homology_dims(full).dims
        assert sum(map(len, normalized.terms.values())) < \
            sum(map(len, full.terms.values()))


class TestArgumentChecks:
    """The grid runs the same argument checks and basis guard as the
    diagonal complex."""

    def test_basis_ceiling(self):
        with pytest.raises(BasisSizeExceeded):
            # the grid through total degree 4 holds, summed over n + m <= 4,
            # 2^((n+1)(m+1) - 1) labelings: 645 in all
            torus_bicomplex(truncated_poly(3, 2), UNIT, 3, max_block_size=10)

    def test_unbounded_algebra_needs_weight_bound(self):
        with pytest.raises(WeightBoundRequired):
            torus_bicomplex(polynomial(3), UNIT, 2)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            torus_bicomplex(truncated_poly(3, 2), UNIT, -1)

    def test_coefficients_must_be_typed(self):
        with pytest.raises(TypeError):
            torus_bicomplex(truncated_poly(3, 2), "unit", 2)


@pytest.fixture(scope="module")
def bicomplex():
    return torus_bicomplex(truncated_poly(3, 2), UNIT, 2)


class TestExplicitBoundaries:
    """Hand-computed pushforwards in the grid over F_3, k[t]/t^2, unit
    coefficients.  Labelings are written over the lexicographic slot lists
    [(0,1),(1,0),(1,1)] at bidegree (1,1) and
    [(0,1),(1,0),(1,1),(2,0),(2,1)] at (2,1); label index 0 is 1, index 1
    is t.
    """

    def test_terms_are_labelings_and_boundaries_matrices(self, bicomplex):
        # the grid is built eagerly: its terms are decoded from their codes
        # and its blocks are matrices, as the tests below read them
        assert all(type(lab) is Labeling
                   for labs in bicomplex.terms.values() for lab in labs)
        assert all(type(mat) is SparseMatrix
                   for boundaries in bicomplex.axis_boundaries
                   for mat in boundaries.values())

    def test_bidegree_one_one_consists_of_cycles(self, bicomplex):
        # both circle faces at level 1 hit the basepoint, so the two face
        # pushforwards cancel and every (1,1) chain is a cycle
        for w in (1, 2, 3):
            assert bicomplex.axis_boundaries[0][(1, 1, w)].is_zero
            assert bicomplex.axis_boundaries[1][(1, 1, w)].is_zero

    def column(self, mat, col):
        return {r: v for (r, c), v in mat.entries.items() if c == col}

    def test_collapse_of_the_symmetric_candidate(self, bicomplex):
        # the (2,1) chain with label rows (1 1 / 1 t / 1 t) maps to twice the
        # chain (1 1 / 1 t): only the outer faces survive, the middle face
        # dies on t*t = 0
        src = bicomplex.terms[(2, 1, 2)].index(((0, 0, 1, 0, 1), 0))
        dst = bicomplex.terms[(1, 1, 2)].index(((1, 0, 1), 0))
        col = self.column(bicomplex.axis_boundaries[0][(2, 1, 2)], src)
        assert col == {dst: 2}
        assert self.column(bicomplex.axis_boundaries[1][(2, 1, 2)], src) == {}

    def test_top_weight_candidate_is_a_boundary(self, bicomplex):
        # (1 1 / 1 t / t t) maps to (1 t / t t) on the nose: two faces die on
        # the augmentation of t, the outer face survives with coefficient 1
        src = bicomplex.terms[(2, 1, 3)].index(((0, 0, 1, 1, 1), 0))
        dst = bicomplex.terms[(1, 1, 3)].index(((1, 1, 1), 0))
        assert self.column(bicomplex.axis_boundaries[0][(2, 1, 3)], src) == {dst: 1}

    def test_homologous_pair(self, bicomplex):
        # (1 1 / t 1 / 1 t) has boundary (1 t / t 1) - (1 1 / t t), making the
        # two weight-2 candidates homologous
        src = bicomplex.terms[(2, 1, 2)].index(((0, 1, 0, 0, 1), 0))
        plus = bicomplex.terms[(1, 1, 2)].index(((1, 1, 0), 0))
        minus = bicomplex.terms[(1, 1, 2)].index(((0, 1, 1), 0))
        col = self.column(bicomplex.axis_boundaries[0][(2, 1, 2)], src)
        assert col == {plus: 1, minus: 3 - 1}

    def test_vertical_counterpart(self, bicomplex):
        # (1 1 1 / 1 t t) at bidegree (1,2): slots
        # [(0,1),(0,2),(1,0),(1,1),(1,2)]; its vertical boundary is twice
        # (1 1 / t t)
        src = bicomplex.terms[(1, 2, 2)].index(((0, 0, 0, 1, 1), 0))
        dst = bicomplex.terms[(1, 1, 2)].index(((0, 1, 1), 0))
        assert self.column(bicomplex.axis_boundaries[1][(1, 2, 2)], src) == {dst: 2}
        assert self.column(bicomplex.axis_boundaries[0][(1, 2, 2)], src) == {}

    def test_factor_of_two_dies_in_characteristic_two(self):
        # the same chains bound nothing mod 2, which is where the extra
        # degree-2 torus class comes from
        char2 = torus_bicomplex(truncated_poly(2, 2), UNIT, 2)
        src = char2.terms[(2, 1, 2)].index(((0, 0, 1, 0, 1), 0))
        assert self.column(char2.axis_boundaries[0][(2, 1, 2)], src) == {}
        src = char2.terms[(1, 2, 2)].index(((0, 0, 0, 1, 1), 0))
        assert self.column(char2.axis_boundaries[1][(1, 2, 2)], src) == {}


class TestKunneth:
    def table(self, text, field=3, d=2):
        return homology_dims(build_complex(
            build_space(text, d + 1), truncated_poly(field, 2), UNIT, d))

    def test_point_table_is_the_unit(self):
        circle_table = self.table("S1")
        pt = self.table("pt")
        conv = wedge_kunneth_dims(circle_table, pt, 2)
        assert conv.dims == circle_table.dims

    def test_circle_with_circle(self):
        circle_table = self.table("S1")
        conv = wedge_kunneth_dims(circle_table, circle_table, 2)
        assert conv.totals() == [1, 2, 3]
        assert conv.dims == self.table("wedge(S1,S1)").dims

    def test_predicts_the_wedge_of_three(self):
        two_circles = wedge_kunneth_dims(self.table("S1"), self.table("S1"), 2)
        full = wedge_kunneth_dims(two_circles, self.table("sphere(2)"), 2)
        assert full.total(2) == 4
        assert full.dims == self.table("wedge(wedge(S1,S1),sphere(2))").dims

    def test_rejects_degrees_past_the_tables(self):
        shallow = self.table("S1", d=1)
        with pytest.raises(ValueError):
            wedge_kunneth_dims(shallow, self.table("S1", d=3), 3)
        with pytest.raises(ValueError):
            wedge_kunneth_dims(self.table("S1", d=3), shallow, 3)
        assert wedge_kunneth_dims(shallow, shallow, 1).totals() == [1, 2]

    def test_rejects_non_unit_coefficients(self):
        good = self.table("S1")
        bad = HomologyTable(dict(good.dims), 2, None, "self", good.field)
        with pytest.raises(CoefficientMismatch):
            wedge_kunneth_dims(good, bad, 2)

    def test_rejects_mixed_fields(self):
        left = self.table("S1", field=3)
        right = HomologyTable(dict(left.dims), 2, None, "unit", make_field(5))
        with pytest.raises(CoefficientMismatch):
            wedge_kunneth_dims(left, right, 2)

    def test_weight_bounded_tables_convolve(self):
        circle_table = homology_dims(build_complex(
            build_space("S1", 3), polynomial(3), UNIT, 2, weight_bound=3))
        predicted = wedge_kunneth_dims(circle_table, circle_table, 2)
        direct = homology_dims(build_complex(
            build_space("wedge(S1,S1)", 3), polynomial(3), UNIT, 2,
            weight_bound=3))
        assert predicted.weight_bound == 3
        assert predicted.dims == direct.dims

    def test_one_bounded_table_bounds_the_convolution(self):
        def circle_table(bound):
            return homology_dims(build_complex(
                build_space("S1", 3), truncated_poly(3, 3), UNIT, 2,
                weight_bound=bound))
        direct = homology_dims(build_complex(
            build_space("wedge(S1,S1)", 3), truncated_poly(3, 3), UNIT, 2,
            weight_bound=2))
        unbounded, bounded = circle_table(None), circle_table(2)
        for left, right in ((unbounded, bounded), (bounded, unbounded)):
            predicted = wedge_kunneth_dims(left, right, 2)
            assert predicted.weight_bound == 2
            assert predicted.dims == direct.dims
            assert (2, 3) not in predicted.dims
