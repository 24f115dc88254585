"""Chain assembly, normalization and homology of the labelled complexes."""

from random import Random

import pytest

from lodayhom.acceptance import random_small_inputs
from lodayhom.algebra import (
    Coefficients, exterior, polynomial, truncated_poly,
)
from lodayhom.exactlinalg import make_field
from lodayhom.loday import (
    BasisSizeExceeded, FieldMismatch, Labeling, TruncationTooShallow,
    WeightBoundRequired, _degenerate_complements, _enumerate_block_bases,
    _resolve_coefficients, build_complex, chain_dims, homology_dims,
)
from lodayhom.simplicial import (
    PointedSimplicialSet, build_space, circle, point, simplex_sphere, validate,
)

UNIT = Coefficients.unit()


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
            below = [lab for (q, w), labs in full.bases.items() if q == p - 1
                     for lab in labs]
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
            yield expr, p, slots, _degenerate_complements(space, p, slots)


class TestPrunedEnumeration:
    @pytest.mark.parametrize("algebra,bound", [
        (truncated_poly(3, 2), 30), (exterior(3), 30), (polynomial(3), 4),
    ], ids=["truncpoly(2)", "exterior", "poly"])
    @pytest.mark.parametrize("coeffs", [UNIT, Coefficients.self_algebra()],
                             ids=["unit", "self"])
    def test_matches_filtered_enumeration(self, algebra, bound, coeffs):
        c_alg, _ = _resolve_coefficients(algebra, coeffs)
        saw_degenerate_level = False
        for expr, p, slots, complements in enumeration_levels():
            got = _enumerate_block_bases(algebra, c_alg, len(slots), bound,
                                         complements)
            want = filtered_block_bases(algebra, c_alg, len(slots), bound,
                                        complements)
            assert got == want, (expr, p)
            if not all(complements):
                saw_degenerate_level = True
                assert got == {}, (expr, p)
        assert saw_degenerate_level


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

    def test_basis_ceiling(self):
        with pytest.raises(BasisSizeExceeded):
            build_complex(build_space("prod(S1,S1)", 3), truncated_poly(3, 2),
                          UNIT, 2, max_block_size=100)

    def test_deterministic_bases_and_boundaries(self):
        def build():
            return build_complex(build_space("wedge(S1,sphere(2))", 3),
                                 truncated_poly(5, 2), UNIT, 2)
        a, b = build(), build()
        assert a.bases == b.bases
        assert {k: m.entries for k, m in a.boundaries.items()} == \
            {k: m.entries for k, m in b.boundaries.items()}
