"""Independent cross-checks for the main chain pipeline.

``torus_bicomplex`` evaluates the labeling functor on the bisimplicial grid
S^1 x S^1 directly: ``loday``'s evaluator runs on two circle axes instead of
the one diagonal axis, so the term in bidegree (n, m) is the labeling space of
the (n+1)(m+1) - 1 non-basepoint cells of the grid, and the boundary along
each circle is the alternating face sum along it.  The grid is a
``LodayComplex`` like any other: its total complex carries the sign twist
(-1)^n on the second circle's boundary at first degree n, ``homology_dims``
ranks it as it ranks the diagonal complex, and its
``check_boundary_squares`` is the grid's square audit.  The result must
agree blockwise with the diagonal product complex; the check is
independent in its two axes and the twisted totalization.

``wedge_kunneth_dims`` convolves homology tables over a field, predicting
wedge homology from the factors.
"""

from __future__ import annotations

from .algebra import Coefficients
from .loday import HomologyTable, LodayComplex, _over_axes, homology_dims
from .simplicial import circle


class CoefficientMismatch(ValueError):
    """Künneth convolution needs tables computed with unit coefficients."""


def torus_bicomplex(algebra, coefficients: Coefficients, max_degree: int,
                    weight_bound=None, max_block_size=None) -> LodayComplex:
    """The unnormalized complex of the two-circle grid through total degree
    max_degree + 1 (``loday._over_axes``); ``max_block_size`` bounds its
    total number of labelings, those of the top total degree included."""
    s1 = circle(max_degree + 1)
    return _over_axes((s1, s1), algebra, coefficients, max_degree,
                      weight_bound, False, max_block_size)


def total_homology(bicomplex: LodayComplex) -> HomologyTable:
    """``homology_dims`` of the grid.  It stays a name of its own only
    because the benchmark's trace hooks it (``bench/spans.py``), and it goes
    with the benchmark-only change of ROADMAP item 2."""
    return homology_dims(bicomplex)


def wedge_kunneth_dims(left: HomologyTable, right: HomologyTable,
                       max_degree: int) -> HomologyTable:
    """Graded convolution of two unit-coefficient homology tables through
    degree max_degree, which neither table may stop below."""
    if max_degree > min(left.max_degree, right.max_degree):
        raise ValueError("tables were not computed deep enough")
    if left.coeff_mode != "unit" or right.coeff_mode != "unit":
        raise CoefficientMismatch(
            "wedge convolution needs tables computed with unit coefficients")
    if left.field != right.field:
        raise CoefficientMismatch("tables computed over different fields")
    # a table is only complete up to its bound, so their product is only
    # complete up to the smaller bound that is set
    bounds = [t.weight_bound for t in (left, right) if t.weight_bound is not None]
    bound = min(bounds, default=None)
    dims = {}
    for (n1, w1), d1 in left.dims.items():
        if n1 > max_degree or not d1:
            continue
        for (n2, w2), d2 in right.dims.items():
            if not d2 or n1 + n2 > max_degree:
                continue
            if bound is not None and w1 + w2 > bound:
                continue
            key = (n1 + n2, w1 + w2)
            dims[key] = dims.get(key, 0) + d1 * d2
    return HomologyTable(dims, max_degree, bound, "unit", left.field)
