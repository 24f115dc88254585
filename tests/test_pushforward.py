"""The table-driven face pushforward against the generic one.

Monomial algebras (every product and coefficient action zero or one basis
element with coefficient one) are assembled by table lookups; every other
algebra goes through ``_push_labeling``, which serves as the reference here.
"""

import pytest

from lodayhom import loday, oracle
from lodayhom.acceptance import random_small_inputs
from lodayhom.algebra import (
    Coefficients, load_algebra, parse_algebra_expr, truncated_poly,
)
from lodayhom.loday import (
    Labeling, _face_plans, _monomial_tables, _push_labeling,
    _resolve_coefficients, _table_face, build_complex, homology_dims,
)
from lodayhom.simplicial import build_space, circle

SMALL_INPUTS = random_small_inputs()


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
    monkeypatch.setattr(loday, "_monomial_tables", lambda *args: None)
    monkeypatch.setattr(oracle, "_monomial_tables", lambda *args: None)


@pytest.mark.parametrize("mode", ["unit", "self", "custom"])
@pytest.mark.parametrize("expr,algebra_spec,p,d", SMALL_INPUTS)
def test_table_face_equals_push_labeling(expr, algebra_spec, p, d, mode):
    algebra = parse_algebra_expr(algebra_spec, p)
    coefficients = _coefficients(mode, algebra)
    space = build_space(expr, d + 1)
    complex_ = build_complex(space, algebra, coefficients, d, normalized=False)
    c_alg, action = _resolve_coefficients(algebra, coefficients)
    bound = max(w for (_, w) in complex_.bases)
    tables = _monomial_tables(algebra, c_alg, action, bound)
    assert tables is not None
    one = algebra.field.one
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
            push = _table_face(plan, tables, algebra.unit)
            for lab in labelings:
                got = push(lab)
                expected = _push_labeling(algebra, c_alg, action, plan, lab,
                                          algebra.field)
                assert ({} if got is None else {Labeling(*got): one}) \
                    == expected, (level, plan, lab)


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


@pytest.mark.parametrize("field_tag,field", [("Fp:3", 3), ("Fp:5", 5),
                                             ("Q", "Q")])
def test_generic_path_on_non_monomial_presentation(field_tag, field):
    algebra = _cube_truncation_without_monomials(field_tag)
    reference = truncated_poly(field, 3)
    for coefficients in (Coefficients.unit(), Coefficients.self_algebra()):
        c_alg, action = _resolve_coefficients(algebra, coefficients)
        assert _monomial_tables(algebra, c_alg, action, 8) is None
    cases = ((circle(4), Coefficients.unit(), 3),
             (circle(4), Coefficients.self_algebra(), 3),
             (build_space("sphere(2)", 3), Coefficients.unit(), 2))
    for space, coefficients, degree in cases:
        got = homology_dims(build_complex(space, algebra, coefficients, degree))
        want = homology_dims(build_complex(space, reference, coefficients,
                                           degree))
        assert got.dims == want.dims, (coefficients, degree)
