"""Construction, combination and validation of pointed simplicial sets."""

import hashlib
from itertools import combinations_with_replacement
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lodayhom.acceptance import random_small_inputs
from lodayhom.simplicial import (
    MalformedExpr, PointedSimplicialSet, SpaceExpr, TruncationMismatch,
    are_isomorphic, build_space, circle, collapse, is_connected,
    parse_space_expr, point, product, simplex_sphere, smash, suspension,
    validate, wedge,
)


def monotone_surjections(p, n):
    """Independent count of the non-basepoint simplices of Delta^n/boundary."""
    return [s for s in combinations_with_replacement(range(n + 1), p + 1)
            if len(set(s)) == n + 1]


class TestCircle:
    def test_level_sizes(self):
        assert circle(3).level_sizes == (1, 2, 3, 4)
        assert circle(1).level_sizes == (1, 2)

    def test_level_sizes_against_surjection_count(self):
        c = circle(5)
        for p in range(6):
            assert c.size(p) == 1 + len(monotone_surjections(p, 1))

    def test_faces_of_the_nondegenerate_cell(self):
        c = circle(2)
        assert c.face(1, 0)[1] == c.face(1, 1)[1] == c.basepoints[0]

    def test_validates(self):
        assert validate(circle(4)).ok


class TestSimplexSphere:
    def test_level_sizes(self):
        assert simplex_sphere(2, 3).level_sizes == (1, 1, 2, 4)
        for p in range(4):
            assert simplex_sphere(2, 3).size(p) == 1 + len(monotone_surjections(p, 2))

    def test_n1_equals_circle(self):
        s, c = simplex_sphere(1, 2), circle(2)
        assert s.level_sizes == c.level_sizes
        for p in range(1, 3):
            for i in range(p + 1):
                assert s.face(p, i) == c.face(p, i)
        for p in range(2):
            for i in range(p + 1):
                assert s.degeneracy(p, i) == c.degeneracy(p, i)

    def test_truncation_below_the_cell(self):
        assert simplex_sphere(2, 1).level_sizes == (1, 1)

    def test_validates(self):
        assert validate(simplex_sphere(3, 4)).ok


class TestProduct:
    def test_level_sizes(self):
        assert product(circle(3), circle(3)).level_sizes == (1, 4, 9, 16)

    def test_unit_law(self):
        assert are_isomorphic(product(circle(3), point(3)), circle(3))

    def test_componentwise_faces(self):
        pr = product(circle(2), circle(2))
        d0 = pr.face(1, 0)
        sigma_pair = 1 * circle(2).size(1) + 1  # (sigma, sigma)
        assert d0[sigma_pair] == pr.basepoints[0]

    def test_truncation_mismatch(self):
        with pytest.raises(TruncationMismatch):
            product(circle(2), circle(3))


class TestWedge:
    def test_level_sizes(self):
        assert wedge(circle(2), circle(2)).level_sizes == (1, 3, 5)

    def test_unit_law(self):
        assert are_isomorphic(wedge(circle(3), point(3)), circle(3))

    def test_additivity(self):
        w = wedge(wedge(circle(2), circle(2)), simplex_sphere(2, 2))
        assert w.level_sizes == (1, 3, 6)

    def test_validates(self):
        assert validate(wedge(circle(3), simplex_sphere(2, 3))).ok


class TestSmash:
    def test_level_size_formula(self):
        for x, y in [(circle(2), circle(2)), (circle(3), simplex_sphere(2, 3))]:
            s = smash(x, y)
            for p in range(x.top_level + 1):
                expected = x.size(p) * y.size(p) - x.size(p) - y.size(p) + 2
                assert s.size(p) == expected

    def test_with_point_collapses(self):
        assert smash(circle(3), point(3)).level_sizes == (1, 1, 1, 1)

    def test_level3_count(self):
        assert smash(circle(3), circle(3)).size(3) == 16 - 4 - 4 + 2

    def test_validates(self):
        assert validate(smash(circle(3), circle(3))).ok


class TestSuspension:
    def test_level_sizes_match_smash_counting(self):
        assert suspension(circle(3)).level_sizes == smash(circle(3), circle(3)).level_sizes

    def test_point(self):
        assert suspension(point(2)).level_sizes == (1, 1, 1)

    def test_simplex_circle_agrees(self):
        assert suspension(simplex_sphere(1, 3)).level_sizes == \
            suspension(circle(3)).level_sizes


class TestSpaceExpressions:
    def test_parse_whitespace_insensitive(self):
        e = parse_space_expr("  wedge( wedge(S1, S1), sphere( 2 ) )")
        assert str(e) == "wedge(wedge(S1,S1),sphere(2))"

    @pytest.mark.parametrize("bad", [
        "wedge(S1)", "sphere(0)", "foo", "s1", "prod(S1,S1", "S1 extra",
        "sphere(x)", "susp(S1,S1)", "",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(MalformedExpr):
            parse_space_expr(bad)

    def test_build_prod(self):
        assert build_space("prod(S1,S1)", 3).level_sizes == (1, 4, 9, 16)

    def test_build_wedge_of_spheres(self):
        # wedge additivity on the smash-model S^2 sizes (1, 2, 5, 10)
        got = build_space("wedge(wedge(S1,S1),sphere(2))", 3)
        assert got.level_sizes == (1, 4, 9, 16)

    def test_torus1_is_circle(self):
        t = build_space("torus(1)", 2)
        c = circle(2)
        assert t.level_sizes == c.level_sizes
        assert all(t.face(p, i) == c.face(p, i)
                   for p in range(1, 3) for i in range(p + 1))

    def test_every_constructor_output_validates(self):
        """Also at top level 0, where the circle is its one vertex."""
        for text in ["pt", "S1", "sphere(2)", "sphere(3)", "simplexsphere(1)",
                     "simplexsphere(2)", "torus(2)", "wedge(S1,sphere(2))",
                     "smash(S1,S1)", "susp(pt)", "susp(simplexsphere(2))",
                     "prod(S1,simplexsphere(2))"]:
            for top in (0, 3):
                assert validate(build_space(text, top)).ok, (text, top)


class TestValidateNegative:
    def test_tampered_face_is_reported(self):
        c = circle(2)
        faces = {(p, i): list(c.face(p, i)) for p in range(1, 3)
                 for i in range(p + 1)}
        degens = {(p, i): list(c.degeneracy(p, i)) for p in range(2)
                  for i in range(p + 1)}
        faces[(2, 0)][1] = 1 - faces[(2, 0)][1]  # actually changes the table
        tampered = PointedSimplicialSet(c.level_sizes, c.basepoints, faces, degens)
        report = validate(tampered)
        assert not report.ok
        assert any("d_" in line for line in report.violations)

    def test_non_pointed_map_is_reported(self):
        c = circle(2)
        faces = {(p, i): list(c.face(p, i)) for p in range(1, 3)
                 for i in range(p + 1)}
        degens = {(p, i): list(c.degeneracy(p, i)) for p in range(2)
                  for i in range(p + 1)}
        faces[(1, 0)][0] = 0  # fine; break a degeneracy instead
        degens[(0, 0)][0] = 1
        tampered = PointedSimplicialSet(c.level_sizes, c.basepoints, faces, degens)
        report = validate(tampered)
        assert any("basepoint" in line for line in report.violations)


class TestIsomorphismProperties:
    def test_wedge_commutative(self):
        a, b = circle(3), simplex_sphere(2, 3)
        assert are_isomorphic(wedge(a, b), wedge(b, a))

    def test_smash_commutative(self):
        a, b = circle(3), simplex_sphere(2, 3)
        assert are_isomorphic(smash(a, b), smash(b, a))

    def test_wedge_associative(self):
        a, b, c = circle(2), simplex_sphere(2, 2), circle(2)
        assert are_isomorphic(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))

    def test_smash_associative(self):
        a, b, c = circle(2), circle(2), simplex_sphere(2, 2)
        assert are_isomorphic(smash(smash(a, b), c), smash(a, smash(b, c)))

    def test_distinguishes_wedge_from_smash(self):
        assert not are_isomorphic(wedge(circle(2), circle(2)),
                                  smash(circle(2), circle(2)))

    def test_nondegenerate_counts_order_independent(self):
        a, b, c = circle(3), simplex_sphere(2, 3), circle(3)
        left = wedge(wedge(a, b), c).nondegenerate_counts()
        right = wedge(a, wedge(b, c)).nondegenerate_counts()
        assert left == right
        left = smash(smash(a, b), c).nondegenerate_counts()
        right = smash(a, smash(b, c)).nondegenerate_counts()
        assert left == right


class TestConnectivity:
    def test_constructors_are_connected(self):
        for text in ["pt", "S1", "sphere(2)", "torus(2)", "wedge(S1,S1)"]:
            assert is_connected(build_space(text, 2))

    def test_disconnected_space_detected(self):
        # two vertices, no edges between them: levels built by hand
        sizes = (2, 2)
        faces = {(1, 0): (0, 1), (1, 1): (0, 1)}  # only degenerate edges
        degens = {(0, 0): (0, 1)}
        space = PointedSimplicialSet(sizes, (0, 0), faces, degens)
        assert validate(space).ok
        assert not is_connected(space)


def test_relabeling_keeps_validation(monkeypatch):
    """Shuffling non-basepoint identifiers per level is still a valid space."""
    rng = Random(7)
    c = product(circle(3), circle(3))
    perms = []
    for p in range(4):
        ids = [x for x in range(c.size(p)) if x != c.basepoints[p]]
        rng.shuffle(ids)
        perm = {}
        free = iter(ids)
        for x in range(c.size(p)):
            perm[x] = c.basepoints[p] if x == c.basepoints[p] else next(free)
        perms.append(perm)
    faces = {}
    for p in range(1, 4):
        for i in range(p + 1):
            old = c.face(p, i)
            new = [0] * c.size(p)
            for x in range(c.size(p)):
                new[perms[p][x]] = perms[p - 1][old[x]]
            faces[(p, i)] = new
    degens = {}
    for p in range(3):
        for i in range(p + 1):
            old = c.degeneracy(p, i)
            new = [0] * c.size(p)
            for x in range(c.size(p)):
                new[perms[p][x]] = perms[p + 1][old[x]]
            degens[(p, i)] = new
    relabeled = PointedSimplicialSet(c.level_sizes, c.basepoints, faces, degens)
    assert validate(relabeled).ok
    assert are_isomorphic(relabeled, c)


def test_space_expr_arity_checks():
    with pytest.raises(MalformedExpr):
        SpaceExpr("wedge", (SpaceExpr("S1"),))
    with pytest.raises(MalformedExpr):
        SpaceExpr("sphere", (0,))


space_exprs = st.recursive(
    st.sampled_from([SpaceExpr("pt"), SpaceExpr("S1"),
                     SpaceExpr("simplexsphere", (2,))]),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["wedge", "prod", "smash"]), children,
                  children).map(lambda t: SpaceExpr(t[0], (t[1], t[2]))),
        children.map(lambda e: SpaceExpr("susp", (e,))),
    ),
    max_leaves=3,
)


@settings(max_examples=40, deadline=None)
@given(expr=space_exprs, top=st.integers(min_value=1, max_value=3))
def test_random_expressions_validate_and_count(expr, top):
    space = build_space(expr, top)
    assert validate(space).ok
    if expr.op in ("wedge", "prod", "smash"):
        left = build_space(expr.args[0], top)
        right = build_space(expr.args[1], top)
        for p in range(top + 1):
            a, b = left.size(p), right.size(p)
            expected = {"wedge": a + b - 1, "prod": a * b,
                        "smash": a * b - a - b + 2}[expr.op]
            assert space.size(p) == expected


def _relabeled(space, rng, label):
    """``space`` with the identifiers of every level permuted at random, the
    basepoint moved off id 0 wherever the level has two or more simplices.
    Returns the space and the per-level permutations (old id -> new id)."""
    perms = []
    for p, bp in enumerate(space.basepoints):
        perm = list(range(space.size(p)))
        rng.shuffle(perm)
        if len(perm) > 1 and perm[bp] == 0:
            j = (bp + 1) % len(perm)
            perm[bp], perm[j] = perm[j], perm[bp]
        perms.append(perm)

    def moved(table, src, dst):
        new = [0] * len(table)
        for x, y in enumerate(table):
            new[src[x]] = dst[y]
        return new

    n = space.top_level
    faces = {(p, i): moved(space.face(p, i), perms[p], perms[p - 1])
             for p in range(1, n + 1) for i in range(p + 1)}
    degens = {(p, i): moved(space.degeneracy(p, i), perms[p], perms[p + 1])
              for p in range(n) for i in range(p + 1)}
    basepoints = [perms[p][bp] for p, bp in enumerate(space.basepoints)]
    return (PointedSimplicialSet(space.level_sizes, basepoints, faces, degens,
                                 label), perms)


def _table_digest(spaces):
    h = hashlib.sha256()
    for s in spaces:
        n = s.top_level
        h.update(repr((
            s.label, s.level_sizes, s.basepoints,
            [s.face(p, i) for p in range(1, n + 1) for i in range(p + 1)],
            [s.degeneracy(p, i) for p in range(n) for i in range(p + 1)],
        )).encode())
    return h.hexdigest()


TABLE_EXPRS = (
    "pt", "S1", "sphere(1)", "sphere(2)", "sphere(3)", "simplexsphere(1)",
    "simplexsphere(2)", "simplexsphere(3)", "torus(1)", "torus(2)", "torus(3)",
    "wedge(S1,sphere(2))", "wedge(wedge(S1,S1),sphere(2))", "wedge(pt,S1)",
    "prod(S1,S1)", "prod(S1,simplexsphere(2))", "prod(sphere(2),pt)",
    "smash(S1,S1)", "smash(simplexsphere(2),S1)", "susp(S1)", "susp(pt)",
    "susp(simplexsphere(2))", "susp(wedge(S1,S1))",
)

# sha256 of the level tables below as built at the commit that introduced
# this test; every downstream basis order and matrix is read off these tables
TABLE_DIGEST = "57ab8cc0037fefb3193de722e2ff7b0d452c834c13fabd40304f6940b329c15a"


def test_level_tables_are_pinned():
    spaces = [build_space(text, top) for top in range(1, 5)
              for text in TABLE_EXPRS]
    spaces += [build_space(text, d + 1)
               for text, _, _, d in random_small_inputs()]
    rng = Random(5)
    x, _ = _relabeled(build_space("wedge(S1,sphere(2))", 3), rng, "X")
    y, _ = _relabeled(build_space("prod(S1,simplexsphere(2))", 3), rng, "Y")
    c, _ = _relabeled(circle(3), rng, "C")
    assert all(s.basepoints[1:] != (0,) * 3 for s in (x, y, c))
    spaces += [product(x, y), product(c, x), wedge(x, y), wedge(c, y),
               smash(x, c), smash(y, x), suspension(x), suspension(y)]
    xc = wedge(x, c)
    spaces.append(collapse(xc, {p: range(x.size(p), xc.size(p))
                                for p in range(4)}, "X"))
    w, perms = _relabeled(wedge(circle(3), simplex_sphere(2, 3)), rng, "W")
    spaces.append(collapse(w, {p: [perms[p][k] for k in range(p + 1, w.size(p))]
                               for p in range(4)}, "S1"))
    assert all(validate(s).ok for s in spaces[-2:])
    assert _table_digest(spaces) == TABLE_DIGEST
