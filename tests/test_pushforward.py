"""Face pushforwards read off the structure tables, against a reference.

``_face_pusher`` chains index lookups when every product and coefficient
action is zero or one basis element with coefficient one, and otherwise
takes the generic push, which multiplies out ``(basis index, scalar)``
pairs.  ``_push_labeling`` below is the reference for both: it re-derives
every product through ``algebra.mul`` and ``mul_lincomb`` with field
arithmetic.  Patching ``_index_tables`` to None forces the generic push.

With lookups, blocks much wider than their rows are built from the rows by
``_pull_block``; patching ``PULL_RATIO`` to 0 or to infinity makes every
block pulled or pushed, and both must give the same matrices.  The deferred
top level of ``build_complex`` is ranked on its uncleared rows, with lookups
from the columns they reach, and its homology must equal that of the listed
top level.
"""

import hashlib
import math
from fractions import Fraction
from itertools import product as iter_product

import pytest

from lodayhom import loday, oracle
from lodayhom.acceptance import random_small_inputs
from lodayhom.algebra import (
    Coefficients, load_algebra, parse_algebra_expr, polynomial, truncated_poly,
)
from lodayhom.exactlinalg import SparseMatrix, pivots
from lodayhom.loday import (
    Labeling, _face_plans, _face_pusher, _index_tables, _resolve_coefficients,
    _structure_tables, build_complex, homology_dims,
)
from lodayhom.simplicial import build_space, circle

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


def _collected(terms, field):
    """The terms of a push summed per labeling, zeros dropped."""
    out = {}
    for image, scalar in terms:
        out[image] = out.get(image, 0) + scalar
    out = {Labeling(*image): field.normalize(v) for image, v in out.items()}
    return {key: v for key, v in out.items() if v != field.zero}


def _pushed(push, labeling, lookup, field):
    """The image of ``labeling`` under ``push`` as {Labeling: scalar}: a
    lookup push returns one image or None, any other push its terms."""
    terms = push(labeling)
    if lookup:
        terms = () if terms is None else ((terms, 1),)
    return _collected(terms, field)


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


def _generic_only(monkeypatch):
    monkeypatch.setattr(loday, "_index_tables", lambda *args: None)


def _cube_truncation_without_monomials(field_tag):
    """k[x]/x^3 on the basis 1, x, y with x*x = 2y: not monomial, since the
    square of x carries the coefficient 2."""
    unit_products = [{"left": "1", "right": b, "value": [{"basis": b,
                                                          "coeff": 1}]}
                     for b in ("1", "x", "y")]
    return load_algebra({
        "field": field_tag,
        "basis": [{"name": "1", "weight": 0}, {"name": "x", "weight": 1},
                  {"name": "y", "weight": 2}],
        "unit": "1",
        "structure": unit_products + [
            {"left": "x", "right": "x", "value": [{"basis": "y", "coeff": 2}]}],
        "augmentation": [{"basis": "1", "coeff": 1}],
    })


CUBE_FIELDS = [("Fp:3", 3), ("Fp:5", 5), ("Q", "Q")]


def _assert_pushes_equal_reference(space, algebra, coefficients, d):
    """Every face of the unnormalized complex through degree d, pushed from
    every basis labeling by the default push and by the generic push,
    against ``_push_labeling``.  Returns whether the default push is the
    lookup one."""
    field = algebra.field
    complex_ = build_complex(space, algebra, coefficients, d, normalized=False)
    c_alg, action = _resolve_coefficients(algebra, coefficients)
    bound = max(w for (_, w) in complex_.bases)
    tables = _structure_tables(algebra, c_alg, action, bound)
    lookups = _index_tables(tables, algebra, c_alg)
    pushers = [(_face_pusher(tables, index, algebra.unit), index is not None)
               for index in (lookups, None)]
    for level in range(1, d + 2):
        slots = [s for s in range(space.size(level))
                 if s != space.basepoints[level]]
        slots_low = [s for s in range(space.size(level - 1))
                     if s != space.basepoints[level - 1]]
        plans = _face_plans([space.face(level, i) for i in range(level + 1)],
                            slots, slots_low, space.basepoints[level - 1])
        labelings = [lab for (q, _), labs in complex_.bases.items()
                     if q == level for lab in labs]
        for plan in plans:
            pushes = [(pusher(plan), lookup) for pusher, lookup in pushers]
            for lab in labelings:
                expected = _push_labeling(algebra, c_alg, action, plan, lab,
                                          field)
                for push, lookup in pushes:
                    assert _pushed(push, lab, lookup, field) == expected, \
                        (level, plan, lab, push.__name__)
    return lookups is not None


@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_table_face_equals_push_labeling(expr, algebra_spec, p, d, mode):
    algebra = parse_algebra_expr(algebra_spec, p)
    assert _assert_pushes_equal_reference(
        build_space(expr, d + 1), algebra, _coefficients(mode, algebra), d)


@pytest.mark.parametrize("mode", ["unit", "self"])
@pytest.mark.parametrize("field_tag,field", CUBE_FIELDS)
def test_table_face_on_non_monomial_presentation(field_tag, field, mode):
    algebra = _cube_truncation_without_monomials(field_tag)
    coefficients = _coefficients(mode, algebra)
    for space, d in ((circle(4), 3), (build_space("sphere(2)", 2), 1)):
        assert not _assert_pushes_equal_reference(space, algebra, coefficients,
                                                  d)


@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_boundaries_equal_generic_path(expr, algebra_spec, p, d, mode,
                                       monkeypatch):
    algebra = parse_algebra_expr(algebra_spec, p)
    coefficients = _coefficients(mode, algebra)
    space = build_space(expr, d + 1)
    table = build_complex(space, algebra, coefficients, d)
    _generic_only(monkeypatch)
    generic = build_complex(space, algebra, coefficients, d)
    assert table.bases == generic.bases
    assert {k: m.entries for k, m in table.boundaries.items()} == \
        {k: m.entries for k, m in generic.boundaries.items()}


@pytest.mark.parametrize("field", [2, 3, "Q"])
def test_grid_bicomplex_equals_generic_path(field, monkeypatch):
    algebra = truncated_poly(field, 2)
    table = oracle.torus_bicomplex(algebra, Coefficients.unit(), 2)
    _generic_only(monkeypatch)
    generic = oracle.torus_bicomplex(algebra, Coefficients.unit(), 2)
    for name in ("horizontal", "vertical"):
        assert ({k: m.entries for k, m in getattr(table, name).items()}
                == {k: m.entries for k, m in getattr(generic, name).items()})


@pytest.mark.parametrize("field_tag,field", CUBE_FIELDS)
def test_generic_path_on_non_monomial_presentation(field_tag, field):
    algebra = _cube_truncation_without_monomials(field_tag)
    reference = truncated_poly(field, 3)
    for coefficients in (Coefficients.unit(), Coefficients.self_algebra()):
        c_alg, action = _resolve_coefficients(algebra, coefficients)
        tables = _structure_tables(algebra, c_alg, action, 8)
        assert _index_tables(tables, algebra, c_alg) is None
    cases = ((circle(4), Coefficients.unit(), 3),
             (circle(4), Coefficients.self_algebra(), 3),
             (build_space("sphere(2)", 3), Coefficients.unit(), 2))
    for space, coefficients, degree in cases:
        got = homology_dims(build_complex(space, algebra, coefficients, degree))
        want = homology_dims(build_complex(space, reference, coefficients,
                                           degree))
        assert got.dims == want.dims, (coefficients, degree)


def _digest_update(h, bases, matrices):
    h.update(repr(sorted(bases.items())).encode())
    for key, mat in sorted(matrices.items()):
        h.update(repr((key, mat.rows, mat.cols,
                       sorted(mat.entries.items()))).encode())


# sha256 of the bases and boundary matrices below as assembled at the commit
# before the face pushes were built on the structure tables (the lookup and
# the generic push then lived in separate code)
MATRIX_DIGEST = \
    "a6430f9fe1dff8ac0dc453afc37d9c08a8e0b141c1b6f127ca0d17a9f9556800"


def test_boundary_matrices_are_pinned():
    h = hashlib.sha256()
    for expr, algebra_spec, p, d in SMALL_INPUTS:
        algebra = parse_algebra_expr(algebra_spec, p)
        for mode in ("unit", "self", "custom"):
            complex_ = build_complex(build_space(expr, d + 1), algebra,
                                     _coefficients(mode, algebra), d)
            _digest_update(h, complex_.bases, complex_.boundaries)
    for field_tag, _ in CUBE_FIELDS:
        algebra = _cube_truncation_without_monomials(field_tag)
        for coefficients in (Coefficients.unit(), Coefficients.self_algebra()):
            for space, d in ((circle(4), 3), (build_space("sphere(2)", 2), 1)):
                complex_ = build_complex(space, algebra, coefficients, d)
                _digest_update(h, complex_.bases, complex_.boundaries)
            grid = oracle.torus_bicomplex(algebra, coefficients, 1)
            _digest_update(h, grid.terms, grid.horizontal)
            _digest_update(h, {}, grid.vertical)
    assert h.hexdigest() == MATRIX_DIGEST


def _entries_digest(matrices):
    h = hashlib.sha256()
    for key, mat in sorted(matrices.items()):
        h.update(repr((key, sorted(mat.entries.items()))).encode())
    return h.hexdigest()


def _assert_blocks_pass_public_checks(complex_):
    """Boundary blocks are built without validation: each must pass the
    public constructor's checks unchanged, and ranking them (the rank kernel
    overwrites the rows it is handed) must leave their entries as they were."""
    field = complex_.field
    for mat in complex_.boundaries.values():
        again = SparseMatrix(mat.rows, mat.cols, mat.entries, field)
        assert again.entries == mat.entries
        if field.is_rational:
            assert all(type(v) is Fraction for v in mat.entries.values())
    before = _entries_digest(complex_.boundaries)
    homology_dims(complex_)
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
    _assert_blocks_pass_public_checks(oracle._total_complex(grid))


def _implicit_and_listed(complex_):
    """Homology of ``complex_`` with its top level deferred, then listed."""
    assert complex_._top is not None
    implicit = homology_dims(complex_)
    assert complex_._top is not None
    complex_.boundaries
    assert complex_._top is None
    return implicit.dims, homology_dims(complex_).dims


@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_implicit_top_equals_listed(expr, algebra_spec, p, d, mode):
    space = build_space(expr, d + 1)
    for field in (2, 3, "Q"):
        algebra = parse_algebra_expr(algebra_spec, field)
        coefficients = _coefficients(mode, algebra)
        for normalized in (True, False):
            implicit, listed = _implicit_and_listed(build_complex(
                space, algebra, coefficients, d, normalized=normalized))
            assert implicit == listed, (field, normalized)


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


@pytest.mark.parametrize("expr,algebra,coefficients,d,totals", [
    ("prod(S1,S1)", truncated_poly(3, 2), Coefficients.unit(), 2, [1, 2, 3]),
    ("S1", truncated_poly(3, 4), Coefficients.self_algebra(), 7,
     [4] + [3] * 7),
], ids=["torus-F3", "hochschild-t4-F3"])
def test_homology_lists_no_top_labeling(expr, algebra, coefficients, d,
                                        totals, monkeypatch):
    """With monomial tables every top block is pulled from its rows, so no
    labeling of the top level is listed, not even where a block is about as
    wide as its rows."""
    space = build_space(expr, d + 1)
    top_slots = space.size(d + 1) - 1
    listed = []
    original = loday._enumerate_block_bases

    def spy(algebra, c_alg, n_slots, bound, complements=()):
        blocks = original(algebra, c_alg, n_slots, bound, complements)
        if n_slots == top_slots:
            listed.append(sum(map(len, blocks.values())))
        return blocks

    monkeypatch.setattr(loday, "_enumerate_block_bases", spy)
    table = homology_dims(build_complex(space, algebra, coefficients, d))
    assert table.totals() == totals
    assert listed == []


def test_top_is_pulled_from_its_uncleared_rows(monkeypatch):
    """HH of F3[t]/t^4 to degree 7: of the 8 748 rows of the top blocks,
    2 184 are pivot columns of the boundary below, and the top blocks are
    pulled from the other 6 564 alone."""
    d = 7
    complex_ = build_complex(circle(d + 1), truncated_poly(3, 4),
                             Coefficients.self_algebra(), d)
    rows = [len(labs) for (p, _), labs in complex_._bases.items() if p == d]
    cleared = sum(len(pivots(mat)) for (p, _), mat
                  in complex_._boundaries.items() if p == d)
    assert (sum(rows), cleared) == (8748, 2184)
    pulled = []
    original = loday._pull_block

    def spy(faces, block_rows, *args):
        pulled.append(len(block_rows))
        return original(faces, block_rows, *args)

    monkeypatch.setattr(loday, "_pull_block", spy)
    assert homology_dims(complex_).totals() == [4] + [3] * 7
    assert sum(pulled) == 6564 == sum(rows) - cleared


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


def _directed_build(monkeypatch, build, ratio=None):
    """``build()`` with ``PULL_RATIO`` set to ``ratio`` (None: unchanged);
    returns its result and a map from each boundary block made to "pull" or
    "push"."""
    made = {}
    with monkeypatch.context() as patch:
        if ratio is not None:
            patch.setattr(loday, "PULL_RATIO", ratio)
        for name, direction in (("_pull_block", "pull"),
                                ("_boundary_block", "push")):
            def record(*args, original=getattr(loday, name),
                       direction=direction):
                block = original(*args)
                made[id(block)] = direction
                return block
            patch.setattr(loday, name, record)
        result = build()
        if isinstance(result, loday.LodayComplex):
            result.boundaries  # the deferred top level is built on this read
    return result, made


def _directions(matrices, made):
    return {key: made[id(mat)] for key, mat in matrices.items()}


def _pulled_and_pushed(monkeypatch, build, names):
    """``build()`` once with every block pulled and once with every block
    pushed, each as {name: {key: entries}} over the matrix dicts ``names``,
    and the two results."""
    out = []
    for ratio, direction in ((0, "pull"), (math.inf, "push")):
        result, made = _directed_build(monkeypatch, build, ratio)
        blocks = {}
        for name in names:
            matrices = getattr(result, name)
            assert set(_directions(matrices, made).values()) <= {direction}
            blocks[name] = {k: m.entries for k, m in matrices.items()}
        out.append((blocks, result))
    return out


@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_pull_equals_push(expr, algebra_spec, p, d, mode, monkeypatch):
    space = build_space(expr, d + 1)
    for field in (2, 3, "Q"):
        algebra = parse_algebra_expr(algebra_spec, field)
        coefficients = _coefficients(mode, algebra)
        for normalized in (True, False):
            (pulled, a), (pushed, b) = _pulled_and_pushed(
                monkeypatch,
                lambda: build_complex(space, algebra, coefficients, d,
                                      normalized=normalized),
                ("boundaries",))
            assert a.bases == b.bases
            assert pulled == pushed, (field, normalized)


@pytest.mark.parametrize("field", [2, 3, "Q"])
def test_grid_pull_equals_push(field, monkeypatch):
    (pulled, _), (pushed, _) = _pulled_and_pushed(
        monkeypatch,
        lambda: oracle.torus_bicomplex(truncated_poly(field, 2),
                                       Coefficients.unit(), 2),
        ("horizontal", "vertical"))
    assert pulled == pushed


def test_diagonal_torus_pull_equals_push(monkeypatch):
    space = build_space("prod(S1,S1)", 3)
    cells = tuple((s,) for s in range(space.size(3))
                  if s != space.basepoints[3])
    assert len(cells) == 15
    # a degeneracy missing several top cells bans the unit from none of
    # them alone: such degenerate candidates are dropped by the complement
    # test of ``_pull_block``, not by the unit bitmasks
    assert any(len(comp) > 1 for comp in
               loday._degenerate_complements((space,), (3,), cells))
    (pulled, _), (pushed, _) = _pulled_and_pushed(
        monkeypatch,
        lambda: build_complex(space, truncated_poly(3, 2), Coefficients.unit(),
                              2),
        ("boundaries",))
    assert pulled == pushed


def test_selection_pulls_the_wide_torus_blocks(monkeypatch):
    complex_, made = _directed_build(monkeypatch, lambda: build_complex(
        build_space("prod(S1,S1)", 3), truncated_poly(3, 2),
        Coefficients.unit(), 2))
    top = {w: direction for (p, w), direction
           in _directions(complex_.boundaries, made).items() if p == 3}
    # weights 2 and 3 are 22 x 30 and 54 x 290; from weight 4 on, 70 x 1155
    # to 1 x 6432 and then no rows at all
    assert top == {w: "push" if w < 4 else "pull" for w in range(2, 16)}


@pytest.mark.parametrize("space_text,algebra,field,coefficients,d,bound", [
    ("S1", "truncpoly(4)", 3, Coefficients.self_algebra(), 7, None),
    ("S1", "poly", "Q", Coefficients.unit(), 8, 12),
])
def test_selection_pushes_the_square_blocks(space_text, algebra, field,
                                            coefficients, d, bound,
                                            monkeypatch):
    """Blocks of S1 are about as tall as they are wide, except at the top
    weights of truncpoly(4): there a few rows face many columns, and those
    are pulled (e.g. 28 rows by 532 columns in degree 7)."""
    complex_, made = _directed_build(monkeypatch, lambda: build_complex(
        build_space(space_text, d + 1), parse_algebra_expr(algebra, field),
        coefficients, d, bound))
    faces = {"pull": 0, "push": 0}
    for (p, w), direction in _directions(complex_.boundaries, made).items():
        rows = complex_.boundaries[(p, w)].rows
        if p >= 2 and rows:
            faces[direction] += (p + 1) * len(complex_.bases[(p, w)])
            if direction == "pull":
                assert algebra == "truncpoly(4)"
                assert loday.PULL_RATIO * rows <= len(complex_.bases[(p, w)])
    assert faces["pull"] < 0.1 * faces["push"]
