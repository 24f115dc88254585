"""Independent cross-checks for the main chain pipeline.

``torus_bicomplex`` evaluates the labeling functor on the bisimplicial grid
S^1 x S^1 directly: ``loday``'s evaluator runs on two circle axes instead of
the one diagonal axis, so the term in bidegree (n, m) is the labeling space of
the (n+1)(m+1) - 1 non-basepoint cells of the grid, the horizontal boundary is
the alternating face sum along the first circle, the vertical one along the
second.  ``_total_complex`` totalizes it, with the sign twist (-1)^n placed
on the vertical differential at horizontal degree n, into a ``LodayComplex``
whose ``check_boundary_squares`` is the grid's one square audit;
``total_homology`` ranks it, and the result must agree blockwise with the
diagonal product complex.  The check is independent in its two axes and the
twisted totalization.

``wedge_kunneth_dims`` convolves homology tables over a field, predicting
wedge homology from the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlinalg import SparseMatrix
from .algebra import Coefficients
from .loday import (
    HomologyTable, LodayComplex, _Labelings, homology_dims,
)
from .simplicial import circle


class CoefficientMismatch(ValueError):
    """Künneth convolution needs tables computed with unit coefficients."""


@dataclass(frozen=True)
class Bicomplex:
    """Grid of labeling bases with commuting horizontal/vertical boundaries."""

    algebra: object
    coefficients: Coefficients
    max_degree: int
    weight_bound: int | None
    terms: dict       # (n, m, w) -> list of Labelings
    horizontal: dict  # (n, m, w) -> SparseMatrix to (n-1, m, w)
    vertical: dict    # (n, m, w) -> SparseMatrix to (n, m-1, w)


def torus_bicomplex(algebra, coefficients: Coefficients, max_degree: int,
                    weight_bound=None, max_block_size=None) -> Bicomplex:
    """Labeling bicomplex of the two-circle grid through total degree
    max_degree + 1; ``max_block_size`` bounds its total number of
    labelings."""
    d = max_degree
    s1 = circle(d + 1)
    keys = [(n, m) for n in range(d + 2) for m in range(d + 2 - n)]
    terms, (horizontal, vertical) = _Labelings(
        (s1, s1), keys, algebra, coefficients, d, weight_bound,
        normalized=False, max_block_size=max_block_size).build(keys)
    return Bicomplex(algebra, coefficients, d, weight_bound, terms,
                     horizontal, vertical)


def _total_complex(bicomplex: Bicomplex) -> LodayComplex:
    """The total complex through degree max_degree + 1, keyed (k, w).

    The summands of T_k are stacked in ascending horizontal degree; the
    (n, m) summand maps by the horizontal boundary plus (-1)^n times the
    vertical one.  Its ``check_boundary_squares`` is the grid's audit: the
    square of the total differential sums h.h, v.v and (-1)^n (h.v - v.h),
    which land in different summands, so it vanishes exactly when both
    directions square to zero and commute.
    """
    d = bicomplex.max_degree
    field = bicomplex.algebra.field
    weights = sorted({w for (_, _, w) in bicomplex.terms})
    bases = {}
    offsets = {}
    for k in range(d + 2):
        for w in weights:
            chains = []
            for n in range(k + 1):
                offsets[(n, k - n, w)] = len(chains)
                chains.extend(bicomplex.terms.get((n, k - n, w), ()))
            if chains:
                bases[(k, w)] = chains
    boundaries = {}
    for k in range(1, d + 2):
        for w in weights:
            entries = {}
            for n in range(k + 1):
                m = k - n
                col0 = offsets[(n, m, w)]
                for mat, low, neg in (
                        (bicomplex.horizontal.get((n, m, w)), (n - 1, m, w), False),
                        (bicomplex.vertical.get((n, m, w)), (n, m - 1, w), n % 2)):
                    if mat is None:
                        continue
                    row0 = offsets[low]
                    for (r, c), v in mat.entries.items():
                        entries[(row0 + r, col0 + c)] = field.neg(v) if neg else v
            boundaries[(k, w)] = SparseMatrix._trusted(
                len(bases.get((k - 1, w), ())), len(bases.get((k, w), ())),
                entries, field)
    return LodayComplex(field, bicomplex.coefficients.mode, d,
                        bicomplex.weight_bound, bases, boundaries)


def total_homology(bicomplex: Bicomplex) -> HomologyTable:
    """Homology dimensions of the total complex through the bicomplex's
    max_degree, per (degree, weight)."""
    return homology_dims(_total_complex(bicomplex))


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
