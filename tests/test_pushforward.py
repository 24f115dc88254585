"""Boundary blocks read off the structure tables, against references.

Every block is pulled from its rows by ``_pull_block``, whatever the tables.
``_push_labeling`` below is the reference: it pushes one labeling along one
face, re-deriving every product through ``algebra.mul`` and ``mul_lincomb``
with field arithmetic, and the blocks it assembles from the listed bases
must equal the pulled ones, on monomial tables and on presentations with
other structure constants; so must each face pulled alone, from every
basis labeling of the unnormalized complex.  ``homology_dims`` builds each
block on its uncleared rows, the top level's from the columns they reach,
and its homology must equal that of the listed and assembled complex,
ranked apart from it (``plain_rank_dims``), whether or not the complex was
read eagerly first; the top blocks pulled onto all their rows must equal
the listed ones once each reached column code takes its listed number.
Labelings stay packed codes in the library; the tests read them back as
``Labeling`` tuples (``test_loday.decode``).
"""

import hashlib
import json
from fractions import Fraction
from itertools import product as iter_product

import pytest

from lodayhom import loday, oracle
from lodayhom.acceptance import random_small_inputs
from lodayhom.algebra import (
    Coefficients, load_algebra, parse_algebra_expr, polynomial, truncated_poly,
)
from lodayhom.exactlinalg import SparseMatrix, integer_rows, make_field
from lodayhom.loday import (
    _factorizations, _lowered, _matrix, _pull_block, _pull_faces,
    _resolve_coefficients, _structure_tables, build_complex, homology_dims,
)
from lodayhom.simplicial import build_space, circle
from test_loday import Labeling, decode, decoded_terms, plain_rank_dims

SMALL_INPUTS = random_small_inputs()


def _push_labeling(algebra, c_alg, action, plan, labeling, field):
    """Pushforward of a basis labeling along one face map, expanded into a
    sparse combination of labelings one level down."""
    pre, to_base = plan
    one = field.one
    assignment = labeling.assignment
    coeff_lin = {labeling.coeff: one}
    for q in to_base:
        a = assignment[q]
        if a == algebra.unit:
            continue
        img = action(a)
        if not img:
            return {}
        nxt = {}
        for c0, v0 in coeff_lin.items():
            for k, v in img.items():
                out = c_alg.mul(c0, k)
                for r, s in out.items():
                    key = r
                    val = field.mul(field.mul(v0, v), s)
                    cur = nxt.get(key, field.zero)
                    tot = field.add(cur, val)
                    if tot == field.zero:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = tot
        coeff_lin = nxt
        if not coeff_lin:
            return {}
    slot_lins = []
    unit = algebra.unit
    for srcs in pre:
        if not srcs:
            slot_lins.append({unit: one})
            continue
        if len(srcs) == 1:
            slot_lins.append({assignment[srcs[0]]: one})
            continue
        lin = {assignment[srcs[0]]: one}
        for q in srcs[1:]:
            lin = algebra.mul_lincomb(lin, assignment[q])
            if not lin:
                return {}
        slot_lins.append(lin)
    out = {}
    slot_items = [sorted(l.items()) for l in slot_lins]
    for combo in iter_product(*slot_items):
        labels = tuple(k for k, _ in combo)
        scalar = one
        for _, v in combo:
            scalar = field.mul(scalar, v)
        for ci, cv in sorted(coeff_lin.items()):
            s = field.mul(scalar, cv)
            key = Labeling(labels, ci)
            tot = field.add(out.get(key, field.zero), s)
            if tot == field.zero:
                out.pop(key, None)
            else:
                out[key] = tot
    return out


def _coefficients(mode, algebra):
    if mode == "unit":
        return Coefficients.unit()
    if mode == "self":
        return Coefficients.self_algebra()
    # A -> exterior(k) sending the weight-1 generator to x and the rest of
    # the positive part to zero: a monomial ring map for every input algebra
    target = parse_algebra_expr("exterior", algebra.field)
    return Coefficients.custom(
        target, [{0: 1}, {1: 1}] + [{}] * (algebra.dim - 2))


def _cube_truncation_without_monomials(field_tag, square=2):
    """k[x]/x^3 on the basis 1, x, y with x*x = square * y, loaded from
    JSON: not monomial, since the square of x carries a coefficient other
    than one ("1/2" is read as a fraction over Q)."""
    unit_products = [{"left": "1", "right": b, "value": [{"basis": b,
                                                          "coeff": 1}]}
                     for b in ("1", "x", "y")]
    return load_algebra(json.dumps({
        "field": field_tag,
        "basis": [{"name": "1", "weight": 0}, {"name": "x", "weight": 1},
                  {"name": "y", "weight": 2}],
        "unit": "1",
        "structure": unit_products + [
            {"left": "x", "right": "x",
             "value": [{"basis": "y", "coeff": square}]}],
        "augmentation": [{"basis": "1", "coeff": 1}],
    }))


CUBE_FIELDS = [("Fp:3", 3), ("Fp:5", 5), ("Q", "Q")]


def _assert_faces_equal_reference(space, algebra, coefficients, d):
    """Every face of the unnormalized complex through degree d, pulled alone
    by ``_pull_faces`` and ``_pull_block`` onto every basis labeling one
    level down, against ``_push_labeling`` from every basis labeling; the
    pull reaches no column outside the basis.  Returns whether every entry
    of the structure tables is zero or one basis element with scalar one."""
    field = algebra.field
    complex_ = build_complex(space, algebra, coefficients, d,
                             normalized=False)
    c_alg, action = _resolve_coefficients(algebra, coefficients)
    bits = complex_.bits
    for key in sorted(complex_.slots):
        if not key[0]:
            continue
        low = _lowered(key, 0)
        n, n_low = len(complex_.slots[key]), len(complex_.slots[low])
        cols, rows = complex_.level(key), complex_.level(low)
        for _, plan in complex_.signed_plans(key, 0):
            faces = _pull_faces([(1, plan)], n, (), complex_.unfold,
                                complex_.sizes, bits)
            for w, col_codes in cols.items():
                row_codes = rows.get(w, ())
                col_index = {x: c for c, x in enumerate(col_codes)}
                out, end = _pull_block(faces, row_codes, col_index, field,
                                       bits, n_low, (),
                                       [{} for _ in row_codes], 0)
                assert end == len(col_codes), (key, plan, w)
                row_of = {decode(x, n_low, bits): r
                          for r, x in enumerate(row_codes)}
                expected = {}
                for c, x in enumerate(col_codes):
                    for image, v in _push_labeling(
                            algebra, c_alg, action, plan,
                            decode(x, n, bits), field).items():
                        expected[(row_of[image], c)] = v
                assert _matrix((out, end), field).entries == expected, \
                    (key, plan, w)
    tables = _structure_tables(algebra, c_alg, action, complex_.bound)
    return all(len(terms) <= 1 and all(s == 1 for _, s in terms)
               for table in tables for row in table for terms in row)


@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_table_face_equals_push_labeling(expr, algebra_spec, p, d, mode):
    algebra = parse_algebra_expr(algebra_spec, p)
    assert _assert_faces_equal_reference(
        build_space(expr, d + 1), algebra, _coefficients(mode, algebra), d)


@pytest.mark.parametrize("mode", ["unit", "self"])
@pytest.mark.parametrize("field_tag,field", CUBE_FIELDS)
def test_table_face_on_non_monomial_presentation(field_tag, field, mode):
    algebra = _cube_truncation_without_monomials(field_tag)
    coefficients = _coefficients(mode, algebra)
    for space, d in ((circle(4), 3), (build_space("sphere(2)", 2), 1)):
        assert not _assert_faces_equal_reference(space, algebra, coefficients,
                                                 d)


def _reference_blocks(complex_, coefficients, bases, i):
    """The blocks along axis i of the levels ``bases`` (``Labeling`` lists
    keyed ``level + (w,)``) as ``{(row, col): scalar}``, keyed like their
    columns: each face of ``complex_.signed_plans`` pushed by
    ``_push_labeling`` from every column, with its sign, onto the rows one
    level down; images that are not rows (degenerate ones) are dropped."""
    algebra, field = complex_.algebra, complex_.field
    c_alg, action = _resolve_coefficients(algebra, coefficients)
    blocks = {}
    for key, cols in bases.items():
        level, w = key[:-1], key[-1]
        if not level[i]:
            continue
        rows = {lab: r for r, lab in enumerate(
            bases.get(_lowered(level, i) + (w,), ()))}
        entries = {}
        for sign, plan in complex_.signed_plans(level, i):
            for c, lab in enumerate(cols):
                for image, v in _push_labeling(algebra, c_alg, action, plan,
                                               lab, field).items():
                    r = rows.get(image)
                    if r is not None:
                        entries[(r, c)] = field.add(
                            entries.get((r, c), field.zero),
                            v if sign > 0 else field.neg(v))
        blocks[key] = {rc: v for rc, v in entries.items() if v != field.zero}
    return blocks


# the diagonal torus to degree 1: a degeneracy misses five of the eight top
# cells, so its degenerate preimages are dropped by the complement test of
# ``_pull_block``, not by the unit bitmasks of a lone complement
DIAGONAL_TORUS = ("prod(S1,S1)", "truncpoly(2)", 3, 1)


def test_diagonal_torus_has_a_complement_of_several_slots():
    expr, _, _, d = DIAGONAL_TORUS
    space = build_space(expr, d + 1)
    level = d + 1
    cells = tuple((s,) for s in range(space.size(level))
                  if s != space.basepoints[level])
    assert len(cells) == 8
    assert max(len(comp) for comp in loday._degenerate_complements(
        (space,), (level,), cells)) == 5


def _assert_pull_equals_reference(space, algebra, coefficients, d,
                                  weight_bound=None):
    """Pulled blocks, the top's onto its listed labelings, equal the blocks
    assembled by ``_push_labeling``, normalized or not."""
    for normalized in (True, False):
        complex_ = build_complex(space, algebra, coefficients, d, weight_bound,
                                 normalized=normalized)
        assert {k: m.entries for k, m in complex_.boundaries.items()} == \
            _reference_blocks(complex_, coefficients,
                              decoded_terms(complex_), 0), normalized


@pytest.mark.parametrize("field", [2, 3, "Q"])
@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d",
                         SMALL_INPUTS + [DIAGONAL_TORUS])
def test_boundaries_equal_reference(expr, algebra_spec, p, d, mode, field):
    algebra = parse_algebra_expr(algebra_spec, field)
    _assert_pull_equals_reference(build_space(expr, d + 1), algebra,
                                  _coefficients(mode, algebra), d)


@pytest.mark.parametrize("mode", ["unit", "self"])
@pytest.mark.parametrize("field_tag,field", CUBE_FIELDS)
def test_boundaries_on_non_monomial_presentation(field_tag, field, mode):
    algebra = _cube_truncation_without_monomials(field_tag)
    for space, d in ((circle(4), 3), (build_space("sphere(2)", 2), 1)):
        _assert_pull_equals_reference(space, algebra,
                                      _coefficients(mode, algebra), d)


@pytest.mark.parametrize("field", [2, 3, "Q"])
def test_pull_folds_cosplits_into_the_last_of_several_merges(field):
    """``_pull_faces`` folds the cosplit offsets into the split offsets of a
    face's last merged slot.  The degree-2 diagonal torus with self
    coefficients has faces that merge several slots and send several slots
    into the basepoint, where the coefficient t of ``truncpoly(2)`` has more
    than one cosplit; its pulled blocks must equal the reference."""
    algebra = truncated_poly(field, 2)
    coefficients = Coefficients.self_algebra()
    d, bound = 2, 4
    space = build_space("prod(S1,S1)", d + 1)
    keys = [(p,) for p in range(d + 2)]
    complex_ = loday.LodayComplex((space,), algebra, coefficients, d, bound)
    folded = [(key, j) for key in keys[1:]
              for j, (_, (pre, to_base)) in enumerate(
                  complex_.signed_plans(key, 0))
              if sum(len(srcs) > 1 for srcs in pre) >= 2
              and max(sum(map(len, complex_.unfold(1, c, len(to_base),
                                                   0).values()))
                      for c in range(complex_.sizes[1])) > 1]
    assert ((3,), 0) in folded
    _assert_pull_equals_reference(space, algebra, coefficients, d, bound)


@pytest.mark.parametrize("field", [2, 3, "Q"])
def test_pull_adds_into_rows_another_pull_filled(field):
    """``_pull_block`` adds into row dicts that already hold the columns of
    another pull, as the total block of several axes fills its rows.  Three
    faces with no slot (mask 0 and an empty memo), their offsets indexed by
    the row's coefficient alone, reach from row 0 the known column 100
    three times (sum 1), 200 twice (sum 2, zero over F2), 300 twice (sum 0)
    and the degenerate code 400; row 1 reaches 101 twice (sum 0) and 201
    once; row 2 reaches 102 once with sign -1.  Every sum is reduced and
    every zero dropped, the other pull's entries stay first and untouched,
    and a column whose sum cancels still takes its number."""
    field = make_field(field)
    p = field.p
    reduce = (lambda v: v % p) if p else (lambda v: v)
    faces = [(sign, (), (), 0, {}, 0, 0, (table,)) for sign, table in (
        (1, ((100, 200, 300), (101,), ())),
        (1, ((100, 200), (201,), ())),
        (-1, ((100, 300, 400), (101,), (102,))))]
    other = [{0: 1, 3: reduce(-1)}, {4: 1}, {}]
    out = [dict(row) for row in other]
    col_index = {100: 5, 101: 6}
    _, end = _pull_block(faces, [0, 1, 2], col_index, field, 2, 0,
                         ((400, 400),), out, 5)
    assert end == 11
    assert col_index == {100: 5, 101: 6, 200: 7, 300: 8, 201: 9, 102: 10}
    pulled = [{5: 1, 7: 2}, {9: 1}, {10: -1}]
    want = [list(row.items()) + [(c, reduce(v)) for c, v in new.items()
                                 if reduce(v)]
            for row, new in zip(other, pulled)]
    assert [list(row.items()) for row in out] == want


@pytest.mark.parametrize("field", [3, "Q"])
def test_split_memo_serves_rows_past_its_slots(field, monkeypatch):
    """``_pull_faces`` gives a face that merges several slots a memo of the
    split sums of its merged slots but the last, keyed by their labels and
    shared by every row and weight its kernel pulls.  On the degree-2
    diagonal torus over ``truncpoly(3)`` with self coefficients and weight
    bound 4, rows that share those labels differ in the last merged label,
    the coefficient or the moved labels, so each must read the memo's sums
    and still get its own preimages: the pulled blocks equal the reference,
    some face merges at least two slots, and some memo, filled across
    several weights, holds fewer entries than the rows it served."""
    algebra = truncated_poly(field, 3)
    coefficients = Coefficients.self_algebra()
    d, bound = 2, 4
    served = {}  # id of a memo -> [memo, rows that read it, pulls]
    original = loday._pull_block

    def spy(faces, rows, col_index, field, bits, n_low, *args):
        top = n_low * bits
        for _, _, merges, _, memo, last, fmask, final in faces:
            if merges:
                use = served.setdefault(id(memo), [memo, 0, 0])
                use[1] += sum(bool(final[x >> last & fmask][x >> top])
                              for x in rows)
                use[2] += 1
        return original(faces, rows, col_index, field, bits, n_low, *args)

    monkeypatch.setattr(loday, "_pull_block", spy)
    _assert_pull_equals_reference(build_space("prod(S1,S1)", d + 1), algebra,
                                  coefficients, d, bound)
    assert served
    assert any(0 < len(memo) < rows and pulls > 1
               for memo, rows, pulls in served.values())


def _ranked_digest(complex_):
    """sha256 of every block's pivots in the order ``homology_dims`` takes
    them, with its clearing by the codes of the pivot columns: each pivot
    is (row, column), the column named (level, code) on a listed total
    degree and by its number on the top."""
    cleared, found = {}, []
    for (p, w), block_pivots in complex_._ranked(cleared):
        found.append(((p, w), block_pivots))
        cleared[(p + 1, w)] = {c for _, c in block_pivots}
    return hashlib.sha256(repr(found).encode()).hexdigest()


# the deferred path's pivot sequences over F3, taken when every block came
# to be ranked in row order, led by its largest column, its columns
# numbered as its rows first reach them.  The listed matrices of
# ``MATRIX_DIGEST`` cannot see them: the pivots name the columns of listed
# levels by code and number those of the top, which is never listed, as
# the rows reach them.  Only the torus with self coefficients has faces with
# several splits and several cosplits, whose nesting order sets that
# numbering.  The rows of the unnormalized torus and of the degree-5 grid
# reach columns twice (8.5% and 23% of their preimages repeat within their
# row), where sums cancel and are reduced, but a column keeps the number it
# took when first reached.  The torus over k[t] with weight bound 4 has
# faces that merge several slots whose labels t^2, t^3 and t^4 have several
# splits, and the rows of every weight share each face's memo.
@pytest.mark.parametrize("axes,spec,coefficients,d,bound,normalized,digest", [
    (("prod(S1,S1)",), "truncpoly(2)", Coefficients.unit(), 2, None, True,
     "fd38be55275048110692e141628268b20561469e5ad83473ea0b17da1f008c64"),
    (("S1",), "truncpoly(4)", Coefficients.self_algebra(), 7, None, True,
     "8b8378009606af7ecad24664bcfddccbb622718d6eb8f9827ccc15fd62d5b518"),
    (("prod(S1,S1)",), "truncpoly(2)", Coefficients.self_algebra(), 2, 4, True,
     "dd1129c10fd7dd9975fbb1ed74189a4ca55ebc7a67548105bd4eac7cd7a5252d"),
    (("prod(S1,S1)",), "truncpoly(2)", Coefficients.unit(), 2, None, False,
     "515095d1a449275b32400a7f62c7af75589684750d8dabf5a6120e03247131fe"),
    (("S1", "S1"), "truncpoly(2)", Coefficients.unit(), 5, None, False,
     "673b261dc72c60857d8a41616f62604472bb2b8d5cfcc1cee1046a75f6ed2da4"),
    (("prod(S1,S1)",), "poly", Coefficients.unit(), 2, 4, True,
     "8c12602c6e4713c052df88dac0df5ec1bb4e735c9ae28687b006507757e5deb6"),
], ids=["torus", "hochschild", "torus-self", "torus-unnormalized", "grid",
        "torus-poly"])
@pytest.mark.parametrize("eager_first", [False, True])
def test_deferred_pivot_sequence_is_pinned(axes, spec, coefficients, d, bound,
                                           normalized, digest, eager_first):
    """The pivots are the same whether or not the complex was read eagerly
    before it is ranked.  One axis is ``build_complex``'s complex, the two
    circles are ``oracle.torus_bicomplex``'s grid."""
    complex_ = loday.LodayComplex(
        tuple(build_space(expr, d + 1) for expr in axes),
        parse_algebra_expr(spec, 3), coefficients, d, bound, normalized)
    if eager_first:
        complex_.boundaries
    assert _ranked_digest(complex_) == digest


def pulled_axis(complex_, key, i, rows, cols):
    """Yield ``(key + (w,), (rows, cols))``, the block along axis i out of
    level ``key`` in weight w onto the codes ``rows[w]``, pulled by its
    kernel with no twist (``_filler(key, i, 1)``), as its row dicts and
    its column count, for each weight of ``rows``; its columns are numbered
    as the codes ``cols[w]`` list them, or as the rows reach them when
    ``cols`` is None."""
    fill = complex_._filler(key, i, 1)
    for w, row_codes in rows.items():
        columns = {} if cols is None else {x: c for c, x in enumerate(cols[w])}
        yield key + (w,), fill(row_codes, columns, [{} for _ in row_codes], 0)


def axis_blocks(complex_, i):
    """The blocks along axis i out of every level of ``complex_.terms``
    (``pulled_axis``) onto all their rows, as ``SparseMatrix``s keyed like
    their columns: one summand of the total differential, before its
    sign twist."""
    terms = complex_.terms
    blocks = {}
    for key in complex_.slots:
        if key[i]:
            low = _lowered(key, i)
            cols = {w: terms[key + (w,)] for w in range(complex_.bound + 1)
                    if key + (w,) in terms}
            rows = {w: terms.get(low + (w,), ()) for w in cols}
            blocks.update((bkey, _matrix(block, complex_.field))
                          for bkey, block in pulled_axis(complex_, key, i,
                                                         rows, cols))
    return blocks


def assert_grid_equals_reference(grid, coefficients):
    """The blocks along each axis of a grid made with ``coefficients``,
    pulled onto all their rows (``axis_blocks``), equal those
    assembled by ``_push_labeling`` along the plans of
    ``LodayComplex.signed_plans``."""
    terms = decoded_terms(grid)
    for i in range(len(grid.axes)):
        assert ({k: m.entries for k, m in axis_blocks(grid, i).items()}
                == _reference_blocks(grid, coefficients, terms, i)), i


@pytest.mark.parametrize("field", [2, 3, "Q"])
def test_grid_bicomplex_equals_reference(field):
    assert_grid_equals_reference(oracle.torus_bicomplex(
        truncated_poly(field, 2), Coefficients.unit(), 2), Coefficients.unit())


@pytest.mark.parametrize("field_tag,field", CUBE_FIELDS)
def test_generic_path_on_non_monomial_presentation(field_tag, field):
    algebra = _cube_truncation_without_monomials(field_tag)
    reference = truncated_poly(field, 3)
    cases = ((circle(4), Coefficients.unit(), 3),
             (circle(4), Coefficients.self_algebra(), 3),
             (build_space("sphere(2)", 3), Coefficients.unit(), 2))
    for space, coefficients, degree in cases:
        got = homology_dims(build_complex(space, algebra, coefficients, degree))
        want = homology_dims(build_complex(space, reference, coefficients,
                                           degree))
        assert got.dims == want.dims, (coefficients, degree)


@pytest.mark.parametrize("field_tag,field", CUBE_FIELDS)
def test_grid_total_homology_on_non_monomial_presentation(field_tag, field,
                                                          monkeypatch):
    """With tables that are not monomial the grid pulls every block of its
    total complex, listing no top total degree; its homology equals that of
    its assembled total complex and of the monomial presentation of
    k[x]/x^3."""
    algebra = _cube_truncation_without_monomials(field_tag)
    for coefficients in (Coefficients.unit(), Coefficients.self_algebra()):
        grid = oracle.torus_bicomplex(algebra, coefficients, 2)
        assert _blocks_made(monkeypatch,
                            lambda: homology_dims(grid)) == {"pull"}
        deferred = homology_dims(grid)
        monomial = homology_dims(oracle.torus_bicomplex(
            truncated_poly(field, 3), coefficients, 2))
        assert deferred.dims == plain_rank_dims(grid) == monomial.dims, \
            coefficients


def test_non_integral_structure_constant(monkeypatch):
    """k[x]/x^3 over Q with x*x = y/2: the one presentation whose pulled
    rows hold ``Fraction``s, so its deferred blocks, and no others, go
    through ``integer_rows``.  Its blocks equal the reference, and its
    homology equals that of truncpoly(3): HH by the closed form of
    criterion 12 (3 in degree 0, then 2), on sphere(2), on the weight-bounded
    diagonal torus and on the grid, deferred and as its total complex."""
    half = _cube_truncation_without_monomials("Q", "1/2")
    unit, self_ = Coefficients.unit(), Coefficients.self_algebra()
    _assert_pull_equals_reference(circle(4), half, self_, 3)
    _assert_pull_equals_reference(build_space("sphere(2)", 2), half, unit, 1)
    assert_grid_equals_reference(oracle.torus_bicomplex(half, unit, 1), unit)
    scaled = []

    def spy(rows):
        scaled.append(len(rows))
        return integer_rows(rows)

    monkeypatch.setattr(loday, "integer_rows", spy)
    for square, fractional in ((2, False), ("1/2", True)):
        scaled.clear()
        algebra = _cube_truncation_without_monomials("Q", square)
        hh = homology_dims(build_complex(circle(8), algebra, self_, 7))
        assert hh.totals() == [3] + [2] * 7
        assert bool(scaled) == fractional, square
    reference = truncated_poly("Q", 3)
    for expr, coefficients, d, bound in (("sphere(2)", unit, 2, None),
                                         ("prod(S1,S1)", unit, 2, 4),
                                         ("prod(S1,S1)", self_, 2, 4)):
        space = build_space(expr, d + 1)
        got, want = (homology_dims(build_complex(space, algebra, coefficients,
                                                 d, bound))
                     for algebra in (half, reference))
        assert got.dims == want.dims, (expr, coefficients)
    for coefficients in (unit, self_):
        grid = oracle.torus_bicomplex(half, coefficients, 2)
        monomial = homology_dims(
            oracle.torus_bicomplex(reference, coefficients, 2))
        assert homology_dims(grid).dims == plain_rank_dims(grid) \
            == monomial.dims, coefficients


@pytest.mark.parametrize("p,dropped", [(3, True), (5, False), (None, False)],
                         ids=["F3", "F5", "Q"])
def test_factorizations_sum_scalars_over_intermediate_elements(p, dropped):
    """a*a = b + 2c and b*a = c*a = z: the tuple (a, a, a) reaches z through
    b and through c, so its scalar is the sum 1*1 + 2*1 = 3, and the tuple
    is dropped over F3.  No built-in algebra has a product of two terms."""
    one, a, b, c, z = range(5)
    mul = [[()] * 5 for _ in range(5)]
    for x in range(5):
        mul[one][x] = mul[x][one] = ((x, 1),)
    mul[a][a] = ((b, 1), (c, 2))
    mul[b][a] = mul[c][a] = ((z, 1),)
    unfold = _factorizations((mul, ()), one, p)
    want = {1: {(z, one, one), (one, z, one), (one, one, z),
                (b, a, one), (b, one, a), (one, b, a),
                (c, a, one), (c, one, a), (one, c, a)}}
    if not dropped:
        want[3] = {(a, a, a)}
    assert {s: set(tuples) for s, tuples in unfold(0, z, 2, 0).items()} \
        == want


def _digest_update(h, bases, matrices):
    h.update(repr(sorted(bases.items())).encode())
    for key, mat in sorted(matrices.items()):
        h.update(repr((key, mat.rows, mat.cols,
                       sorted(mat.entries.items()))).encode())


# sha256 of the bases and boundary matrices below as assembled at the commit
# before the face pushes were built on the structure tables (the lookup and
# the generic push then lived in separate code).  The bases are hashed as
# ``Labeling`` tuples, read back from their codes (``decoded_terms``), and
# the grid's blocks one axis at a time, before the sign twist (``axis_blocks``)
MATRIX_DIGEST = \
    "a6430f9fe1dff8ac0dc453afc37d9c08a8e0b141c1b6f127ca0d17a9f9556800"


def test_boundary_matrices_are_pinned():
    h = hashlib.sha256()
    for expr, algebra_spec, p, d in SMALL_INPUTS:
        algebra = parse_algebra_expr(algebra_spec, p)
        for mode in ("unit", "self", "custom"):
            complex_ = build_complex(build_space(expr, d + 1), algebra,
                                     _coefficients(mode, algebra), d)
            _digest_update(h, decoded_terms(complex_), complex_.boundaries)
    for field_tag, _ in CUBE_FIELDS:
        algebra = _cube_truncation_without_monomials(field_tag)
        for coefficients in (Coefficients.unit(), Coefficients.self_algebra()):
            for space, d in ((circle(4), 3), (build_space("sphere(2)", 2), 1)):
                complex_ = build_complex(space, algebra, coefficients, d)
                _digest_update(h, decoded_terms(complex_),
                               complex_.boundaries)
            grid = oracle.torus_bicomplex(algebra, coefficients, 1)
            _digest_update(h, decoded_terms(grid), axis_blocks(grid, 0))
            _digest_update(h, {}, axis_blocks(grid, 1))
    assert h.hexdigest() == MATRIX_DIGEST


def _entries_digest(matrices):
    h = hashlib.sha256()
    for key, mat in sorted(matrices.items()):
        h.update(repr((key, sorted(mat.entries.items()))).encode())
    return h.hexdigest()


def _assert_blocks_pass_public_checks(complex_):
    """Boundary blocks are built without validation: each must pass the
    public constructor's checks unchanged, and ranking the complex and its
    blocks (the rank kernel overwrites the rows it is handed) must leave
    their entries as they were."""
    field = complex_.field
    for mat in complex_.boundaries.values():
        again = SparseMatrix(mat.rows, mat.cols, mat.entries, field)
        assert again.entries == mat.entries
        if field.is_rational:
            assert all(type(v) is Fraction for v in mat.entries.values())
    before = _entries_digest(complex_.boundaries)
    assert homology_dims(complex_).dims == plain_rank_dims(complex_)
    assert _entries_digest(complex_.boundaries) == before


@pytest.mark.parametrize("field", [2, 3, "Q"])
@pytest.mark.parametrize("mode", ["unit", "self"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_boundary_blocks_pass_public_checks(expr, algebra_spec, p, d, mode,
                                            field):
    algebra = parse_algebra_expr(algebra_spec, field)
    _assert_blocks_pass_public_checks(build_complex(
        build_space(expr, d + 1), algebra, _coefficients(mode, algebra), d))


@pytest.mark.parametrize("field", [2, 3, "Q"])
def test_total_complex_blocks_pass_public_checks(field):
    grid = oracle.torus_bicomplex(truncated_poly(field, 2),
                                  Coefficients.unit(), 2)
    _assert_blocks_pass_public_checks(grid)


def _implicit_and_listed(complex_):
    """``homology_dims`` of ``complex_``, then, ranked apart from it, the
    homology of its top level listed and every block assembled
    (``plain_rank_dims``)."""
    return homology_dims(complex_).dims, plain_rank_dims(complex_)


def _assert_top_reached_as_listed(complex_, monkeypatch):
    """The top blocks pulled onto all their rows, their columns numbered as
    the rows reach them, equal the blocks pulled onto the listed top once
    each reached column takes its listed number: no column reached is
    degenerate and none is missed."""
    key = (complex_.max_degree + 1,)
    top = complex_.level(key)
    # a weight the top does not list has no block (its count is zero)
    rows = {w: labs for (p, w), labs in complex_._codes.items()
            if p == key[0] - 1 and w in top}
    indexes = []  # per block: its column index, and what it held at the call

    def spy(faces, block_rows, col_index, *args):
        indexes.append((col_index, dict(col_index)))
        return original(faces, block_rows, col_index, *args)

    original = loday._pull_block
    with monkeypatch.context() as patch:
        patch.setattr(loday, "_pull_block", spy)
        reached = list(pulled_axis(complex_, key, 0, rows, None))
        listed = list(pulled_axis(complex_, key, 0, rows, top))
    for (w, (block, _)), (_, (want, _)), (codes, _), (_, listed_codes) in zip(
            reached, listed, indexes, indexes[len(reached):]):
        assert set(codes) <= set(listed_codes), w
        number = {c: listed_codes[code] for code, c in codes.items()}
        assert [{number[c]: v for c, v in row.items()} for row in block] \
            == want, w


def _assert_implicit_equals_listed(space, algebra, coefficients, d,
                                   monkeypatch, weight_bound=None):
    for normalized in (True, False):
        complex_ = build_complex(space, algebra, coefficients, d,
                                 weight_bound, normalized=normalized)
        _assert_top_reached_as_listed(complex_, monkeypatch)
        implicit, listed = _implicit_and_listed(complex_)
        assert implicit == listed, (algebra.field, normalized)


@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_implicit_top_equals_listed(expr, algebra_spec, p, d, mode,
                                    monkeypatch):
    space = build_space(expr, d + 1)
    for field in (2, 3, "Q"):
        algebra = parse_algebra_expr(algebra_spec, field)
        _assert_implicit_equals_listed(space, algebra,
                                       _coefficients(mode, algebra), d,
                                       monkeypatch)


@pytest.mark.parametrize("field", [2, 3, "Q"])
@pytest.mark.parametrize("expr", ["prod(S1,S1)", "wedge(wedge(S1,S1),sphere(2))"])
def test_implicit_top_equals_listed_on_the_headline(expr, field):
    implicit, listed = _implicit_and_listed(build_complex(
        build_space(expr, 3), truncated_poly(field, 2), Coefficients.unit(), 2))
    assert implicit == listed


@pytest.mark.parametrize("expr,d,bound", [("S1", 30, 3), ("prod(S1,S1)", 8, 1)])
def test_implicit_top_equals_listed_at_high_degree(expr, d, bound):
    """Tops of k[t] far above the weight bound, whose blocks are all empty."""
    implicit, listed = _implicit_and_listed(build_complex(
        build_space(expr, d + 1), polynomial(3), Coefficients.unit(), d,
        weight_bound=bound))
    assert implicit == listed


def _monomials_unit_last(field_tag, exponents):
    """The monomial algebra on the exponent vectors ``exponents`` (closed
    under division), listed in that order and then the unit: a product is
    the monomial of the summed exponents, or zero when that is not listed."""
    unit = (0,) * len(exponents[0])
    listed = list(exponents) + [unit]
    names = ["1" if e == unit else "x" + "_".join(map(str, e)) for e in listed]
    index = {e: i for i, e in enumerate(listed)}
    structure = [
        {"left": names[i], "right": names[j],
         "value": [{"basis": names[index[prod]], "coeff": 1}]}
        for i, e in enumerate(listed) for j, f in enumerate(listed)
        for prod in [tuple(a + b for a, b in zip(e, f))] if prod in index]
    return load_algebra({
        "field": field_tag,
        "basis": [{"name": n, "weight": sum(e)} for n, e in zip(names, listed)],
        "unit": "1", "structure": structure,
        "augmentation": [{"basis": "1", "coeff": 1}]})


def _unit_last_inputs(field, mode):
    """k[x]/x^3 listed x, x^2, 1, and coefficients in k[y,z]/(y^3, z^2)
    listed with its unit last too: six basis elements, so the coefficient
    sets the digit width, acted on by x -> y."""
    tag = "Q" if field == "Q" else f"Fp:{field}"
    algebra = _monomials_unit_last(tag, [(1,), (2,)])
    if mode != "custom":
        return algebra, _coefficients(mode, algebra)
    wide = _monomials_unit_last(
        tag, [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
    return algebra, Coefficients.custom(wide, [{0: 1}, {1: 1}, {5: 1}])


@pytest.mark.parametrize("field", [2, 3, "Q"])
@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,d,bound", [("S1", 3, None),
                                          ("prod(S1,S1)", 1, 4)])
def test_unit_listed_last(expr, d, bound, mode, field, monkeypatch):
    """A unit at index 2 of A and a coefficient algebra wider than A: the
    degeneracy test of a complement of several slots on the torus compares
    its digits with the unit's pattern, not with zero."""
    algebra, coefficients = _unit_last_inputs(field, mode)
    assert algebra.unit == 2
    space = build_space(expr, d + 1)
    _assert_pull_equals_reference(space, algebra, coefficients, d, bound)
    _assert_implicit_equals_listed(space, algebra, coefficients, d, monkeypatch,
                                   bound)


@pytest.mark.parametrize("expr,algebra_spec,d,bound,bits", [
    ("S1", "poly", 5, 7, 3), ("S1", "poly", 5, 8, 4),
    ("prod(S1,S1)", "poly", 1, 7, 3), ("prod(S1,S1)", "poly", 1, 8, 4),
    ("prod(S1,S1)", "truncpoly(2)", 3, 3, 1),
], ids=["S1-3bits", "S1-4bits", "torus-3bits", "torus-4bits",
        "torus-degree3-1bit"])
@pytest.mark.parametrize("mode", ["unit", "self"])
def test_digit_widths(expr, algebra_spec, d, bound, bits, mode, monkeypatch):
    """Label indices up to 7 and 8 take 3 and 4 bits per slot, those of
    truncpoly(2) one bit; on the degree-3 diagonal torus the degeneracy
    complements span several slots."""
    algebra = parse_algebra_expr(algebra_spec, 3)
    coefficients = _coefficients(mode, algebra)
    space = build_space(expr, d + 1)
    assert build_complex(space, algebra, coefficients, d,
                         bound).bits == bits
    _assert_pull_equals_reference(space, algebra, coefficients, d, bound)
    _assert_implicit_equals_listed(space, algebra, coefficients, d, monkeypatch,
                                   bound)


@pytest.mark.parametrize("expr,algebra,coefficients,d,totals", [
    ("prod(S1,S1)", truncated_poly(3, 2), Coefficients.unit(), 2, [1, 2, 3]),
    ("S1", truncated_poly(3, 4), Coefficients.self_algebra(), 7,
     [4] + [3] * 7),
    ("S1", _cube_truncation_without_monomials("Fp:3"),
     Coefficients.self_algebra(), 5, [3] * 6),
], ids=["torus-F3", "hochschild-t4-F3", "hochschild-cube-F3"])
def test_homology_lists_no_top_labeling(expr, algebra, coefficients, d,
                                        totals, monkeypatch):
    """Whatever the tables, every top block is pulled from its rows, so no
    labeling of the top level is listed, not even where a block is about as
    wide as its rows."""
    space = build_space(expr, d + 1)
    top_slots = space.size(d + 1) - 1
    listed = []
    original = loday._enumerate_block_bases

    def spy(algebra, c_alg, n_slots, bound, bits, complements=()):
        blocks = original(algebra, c_alg, n_slots, bound, bits, complements)
        if n_slots == top_slots:
            listed.append(sum(map(len, blocks.values())))
        return blocks

    monkeypatch.setattr(loday, "_enumerate_block_bases", spy)
    table = homology_dims(build_complex(space, algebra, coefficients, d))
    assert table.totals() == totals
    assert listed == []


def test_every_level_is_pulled_from_its_uncleared_rows(monkeypatch):
    """HH of F3[t]/t^4 to degree 7: at every level, each block is pulled
    from the listed codes of its level less those that are pivot columns of
    the block below it, which name their columns ``(level, code)``, and its
    rows go to elimination as they were pulled."""
    d = 7
    complex_ = build_complex(circle(d + 1), truncated_poly(3, 4),
                             Coefficients.self_algebra(), d)
    ranked = []     # (key, pivots, rows pulled) in the order homology ranks
    pulled = []     # (row codes, the block's rows) per pulled block
    eliminated = []  # the rows handed to elimination
    blocks, original_pull, original_pivots = (
        complex_._ranked, loday._pull_block, loday.row_pivots)

    def spy_ranked(cleared):
        for key, found in blocks(cleared):
            ranked.append((key, found, pulled[-1]))
            yield key, found

    def spy_pull(faces, rows, *args):
        block = original_pull(faces, rows, *args)
        pulled.append((rows, block[0]))
        return block

    def spy_pivots(rows, field):
        eliminated.append(rows)
        return original_pivots(rows, field)

    monkeypatch.setattr(complex_, "_ranked", spy_ranked)
    monkeypatch.setattr(loday, "_pull_block", spy_pull)
    monkeypatch.setattr(loday, "row_pivots", spy_pivots)
    assert homology_dims(complex_).totals() == [4] + [3] * 7
    assert {key[0] for key, _, _ in ranked} == set(range(1, d + 2))
    assert len(ranked) == len(pulled)
    assert [list(map(id, block)) for _, block in pulled] == \
        [list(map(id, rows)) for rows in eliminated]
    pivot_columns = {}
    for (p, w), found, (rows, _) in ranked:
        below = pivot_columns.get((p - 1, w), set())
        assert rows == [code for code in complex_._codes[(p - 1, w)]
                        if ((p - 1,), code) not in below], (p, w)
        if p <= d:
            assert {c for _, c in found} <= {
                ((p,), code) for code in complex_._codes[(p, w)]}, (p, w)
        pivot_columns[(p, w)] = {c for _, c in found}
    assert sum(len(rows) for rows, _ in pulled) == 9851


def test_top_rows_that_reach_a_new_column_pivot_on_sight(monkeypatch):
    """HH of F3[t]/t^4 to degree 7: the top's columns are numbered as its
    rows first reach them, so every top row that reaches a column no earlier
    row reached has that column as its largest, pivots on it and leaves
    elimination untouched, and it is most rows.  Clearing keeps the 9 851
    rows pulled over all blocks."""
    d = 7
    complex_ = build_complex(circle(d + 1), truncated_poly(3, 4),
                             Coefficients.self_algebra(), d)
    pulled, degree, tops = [], [], []  # tops: (rows as pulled, pivots)
    original_pull, original_pivots = loday._pull_block, loday.row_pivots
    original_blocks = complex_.implicit_blocks

    def spy_blocks(k, cleared):
        degree.append(k)
        return original_blocks(k, cleared)

    def spy_pull(faces, rows, *args):
        pulled.append(len(rows))
        return original_pull(faces, rows, *args)

    def spy_pivots(rows, field):
        before = [dict(row) for row in rows]
        found = original_pivots(rows, field)
        if degree[-1] == d + 1:
            tops.append((before, rows, found))
        return found

    monkeypatch.setattr(complex_, "implicit_blocks", spy_blocks)
    monkeypatch.setattr(loday, "_pull_block", spy_pull)
    monkeypatch.setattr(loday, "row_pivots", spy_pivots)
    assert homology_dims(complex_).totals() == [4] + [3] * 7
    assert sum(pulled) == 9851
    assert tops
    certified = rows_seen = 0
    for before, after, found in tops:
        pivot_of = dict(found)
        reached = set()
        for r, (row, left) in enumerate(zip(before, after)):
            if not row.keys() <= reached:
                assert max(row) not in reached
                assert pivot_of[r] == max(row)
                assert left == row
                certified += 1
            reached |= row.keys()
        rows_seen += len(before)
    assert certified > rows_seen // 2


def test_empty_torus_top_lists_nothing(monkeypatch):
    """Its counts alone show that the top level 9 of the torus over k[t]
    with weight bound 1 has no non-degenerate labeling."""
    complex_ = build_complex(build_space("prod(S1,S1)", 9), polynomial(3),
                             Coefficients.unit(), 8, weight_bound=1)
    calls = []
    original = loday._enumerate_block_bases

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(loday, "_enumerate_block_bases", spy)
    assert homology_dims(complex_).totals() == [1, 2, 1, 0, 0, 0, 0, 0, 0]
    assert calls == []


def _blocks_made(monkeypatch, run):
    """The kinds of the blocks that ``run()`` builds: {"pull"} once it pulls
    one."""
    made = set()
    original = loday._pull_block

    def record(*args):
        made.add("pull")
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(loday, "_pull_block", record)
        run()
    return made


@pytest.mark.parametrize("algebra", [
    truncated_poly(3, 4), _cube_truncation_without_monomials("Fp:3"),
], ids=["monomial", "cube"])
def test_every_table_is_pulled(algebra, monkeypatch):
    """Square blocks of the Hochschild complex are pulled, by homology on
    their uncleared rows and by a ``.boundaries`` read on all of them, and
    so are the grid's, by its homology and by a ``.boundaries`` read of its
    total complex, with monomial tables and with others alike."""
    d = 5
    coefficients = Coefficients.self_algebra()
    for run in (lambda: homology_dims(build_complex(circle(d + 1), algebra,
                                                    coefficients, d)),
                lambda: build_complex(circle(d + 1), algebra, coefficients,
                                      d).boundaries,
                lambda: homology_dims(
                    oracle.torus_bicomplex(algebra, coefficients, 1)),
                lambda: oracle.torus_bicomplex(algebra, coefficients,
                                               1).boundaries):
        assert _blocks_made(monkeypatch, run) == {"pull"}


@pytest.mark.parametrize("axes", [
    *[(build_space(expr, d + 1),) for expr, _, _, d in SMALL_INPUTS],
    (circle(4), circle(4)),
    (build_space("S1", 3), build_space("simplexsphere(2)", 3)),
], ids=[expr for expr, _, _, _ in SMALL_INPUTS] + ["grid", "S1xS2"])
def test_every_face_plan_gives_each_low_slot_a_preimage(axes):
    """Faces of a simplicial set are onto (``d_j s_j = id``), and so are
    faces of a product along one axis: ``_pull_faces`` reads no low slot
    without a preimage, which would have to hold the unit."""
    top = min(axis.top_level for axis in axes)
    keys = [key for key in iter_product(range(top + 1), repeat=len(axes))
            if sum(key) <= top]
    complex_ = loday.LodayComplex(axes, truncated_poly(3, 2),
                                  Coefficients.unit(), top - 1, None, False)
    planned = 0
    for key in keys:
        for i, p in enumerate(key):
            if p:
                for _, (pre, _) in complex_.signed_plans(key, i):
                    assert all(pre), (key, i)
                    planned += 1
    assert planned


@pytest.mark.parametrize("field", [3, "Q"])
@pytest.mark.parametrize("expr,algebra,coefficients,d", [
    ("prod(S1,S1)", lambda f: truncated_poly(f, 2), Coefficients.unit(), 2),
    ("S1", lambda f: truncated_poly(f, 4), Coefficients.self_algebra(), 5),
], ids=["torus", "hochschild"])
def test_deferred_homology_builds_no_labeling_or_matrix(
        expr, algebra, coefficients, d, field, monkeypatch):
    """A deferred complex of monomial tables keeps its labelings as packed
    codes and its blocks as rows from listing to elimination;
    ``SparseMatrix`` blocks appear only on an eager read."""
    made = []
    adopt = SparseMatrix._adopt

    def counted_adopt(self, *args):
        made.append("SparseMatrix")
        return adopt(self, *args)

    monkeypatch.setattr(SparseMatrix, "_adopt", counted_adopt)
    complex_ = build_complex(build_space(expr, d + 1), algebra(field),
                             coefficients, d)
    assert homology_dims(complex_).dims
    assert made == []
    complex_.boundaries
    assert set(made) == {"SparseMatrix"}
