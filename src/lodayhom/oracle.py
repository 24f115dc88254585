"""Independent cross-checks for the main chain pipeline.

``torus_bicomplex`` evaluates the labeling functor on the bisimplicial grid
S^1 x S^1 directly: ``loday``'s evaluator runs on two circle axes instead of
the one diagonal axis, so the term in bidegree (n, m) is the labeling space of
the (n+1)(m+1) - 1 non-basepoint cells of the grid, the horizontal boundary is
the alternating face sum along the first circle, the vertical one along the
second.  Its total complex carries the sign twist (-1)^n on the vertical
differential at horizontal degree n.  ``total_homology`` ranks it as
``homology_dims`` ranks the diagonal complex: each block on the rows that
clearing leaves, built when it is ranked, with the top total degree never
listed; the result must agree blockwise with the diagonal product complex.
``_total_complex`` totalizes the assembled grid into a ``LodayComplex``
whose ``check_boundary_squares`` is the grid's one square audit.  The check
is independent in its two axes and the twisted totalization.

``wedge_kunneth_dims`` convolves homology tables over a field, predicting
wedge homology from the factors.
"""

from __future__ import annotations

from .algebra import Coefficients
from .loday import (
    HomologyTable, LodayComplex, _Labelings, _totalize, homology_dims,
)
from .simplicial import circle


class CoefficientMismatch(ValueError):
    """Künneth convolution needs tables computed with unit coefficients."""


class Bicomplex:
    """Grid of labeling bases with commuting horizontal/vertical boundaries.

    ``torus_bicomplex`` lists the terms of total degree 0..max_degree as
    packed codes, assembles no block and keeps its ``_Labelings``, from
    which ``total_homology`` ranks the twisted total complex on its
    uncleared rows.  The first read of ``terms``, ``horizontal`` or
    ``vertical`` lists total degree max_degree + 1, assembles every block
    onto all its rows and decodes the terms into ``Labeling`` tuples, after
    which the grid holds them like one made with its blocks.
    """

    def __init__(self, algebra, coefficients: Coefficients, max_degree: int,
                 weight_bound, terms, horizontal, vertical, labelings=None):
        self.algebra = algebra
        self.coefficients = coefficients
        self.max_degree = max_degree
        self.weight_bound = weight_bound
        self._terms = terms            # (n, m, w) -> list of Labelings,
                                       # of packed codes while deferred
        self._horizontal = horizontal  # (n, m, w) -> SparseMatrix to (n-1, m, w)
        self._vertical = vertical      # (n, m, w) -> SparseMatrix to (n, m-1, w)
        self._labelings = labelings    # deferred: blocks not yet assembled

    @property
    def terms(self) -> dict:
        self._assemble()
        return self._terms

    @property
    def horizontal(self) -> dict:
        self._assemble()
        return self._horizontal

    @property
    def vertical(self) -> dict:
        self._assemble()
        return self._vertical

    def _assemble(self):
        if self._labelings is not None:
            self._terms, (self._horizontal, self._vertical) = \
                self._labelings.build(
                    self._labelings.summands(self.max_degree + 1),
                    self._terms)
            self._labelings = None


def torus_bicomplex(algebra, coefficients: Coefficients, max_degree: int,
                    weight_bound=None, max_block_size=None) -> Bicomplex:
    """Labeling bicomplex of the two-circle grid through total degree
    max_degree + 1, deferred (``Bicomplex``); ``max_block_size`` bounds its
    total number of labelings, those of the top total degree included."""
    d = max_degree
    s1 = circle(d + 1)
    keys = [(n, m) for n in range(d + 2) for m in range(d + 2 - n)]
    labelings = _Labelings((s1, s1), keys, algebra, coefficients, d,
                           weight_bound, normalized=False,
                           max_block_size=max_block_size)
    return Bicomplex(algebra, coefficients, d, weight_bound,
                     labelings.listed([key for key in keys if sum(key) <= d]),
                     None, None, labelings)


def _total_complex(bicomplex: Bicomplex) -> LodayComplex:
    """The total complex through degree max_degree + 1, keyed (k, w), of the
    assembled grid (``loday._totalize``).

    The summands of T_k are stacked in ascending horizontal degree; the
    (n, m) summand maps by the horizontal boundary plus (-1)^n times the
    vertical one.  Its ``check_boundary_squares`` is the grid's audit: the
    square of the total differential sums h.h, v.v and (-1)^n (h.v - v.h),
    which land in different summands, so it vanishes exactly when both
    directions square to zero and commute.
    """
    field = bicomplex.algebra.field
    return LodayComplex(field, bicomplex.coefficients.mode,
                        bicomplex.max_degree, bicomplex.weight_bound,
                        *_totalize(bicomplex.terms, (bicomplex.horizontal,
                                                     bicomplex.vertical),
                                   field, bicomplex.max_degree + 1))


def total_homology(bicomplex: Bicomplex) -> HomologyTable:
    """Homology dimensions of the twisted total complex through the
    bicomplex's max_degree, per (degree, weight).  While the grid defers its
    assembly, ``homology_dims`` ranks each block of the total differential
    on its uncleared rows, as it ranks a ``build_complex`` complex, and
    never lists the top total degree; an assembled grid is ranked through
    ``_total_complex``."""
    if bicomplex._labelings is None:
        return homology_dims(_total_complex(bicomplex))
    return homology_dims(LodayComplex(
        bicomplex.algebra.field, bicomplex.coefficients.mode,
        bicomplex.max_degree, bicomplex.weight_bound, bicomplex._terms, None,
        bicomplex._labelings))


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
