"""Executable comparisons behind the stability questions.

A comparison builds two homology tables under identical settings and reports
the per-(degree, weight) dimension pairs together with a verdict: agreement
through the requested degree, or the first block where the dimensions differ
(ordered by degree, then weight).  Equal dimensions are necessary for the
spaces' constructions to be equivalent, so a discrepancy certifies failure;
agreement is dimension-level evidence only.

``compare_spaces`` ranks the diagonal complex of each side.  The product
check computes each side from its structure: X x Y on the two factors' own
axes (a ``LodayComplex`` on both), and with ``unit`` coefficients the wedge
X v Y v (X smash Y) as the Künneth convolution of the homology of X, of Y
and of X smash Y (``oracle.wedge_kunneth_dims``).  Künneth does not hold
for ``self`` or custom coefficients, whose wedge side is its diagonal
complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Coefficients
from .loday import HomologyTable, LodayComplex, build_complex, homology_dims
from .oracle import wedge_kunneth_dims
from .simplicial import (
    SpaceExpr, build_space, is_connected, parse_space_expr, smash, wedge,
)


class NotConnected(ValueError):
    """The product decomposition check needs connected factors."""


EVIDENCE_NOTE = "dimension-level evidence only"

# Pairs of expressions denoting homotopy-equivalent spaces, shipped for the
# invariance checks; no attempt is made to decide equivalence.
PRESET_EQUIVALENT_PAIRS = (
    ("susp(S1)", "sphere(2)"),
    ("susp(S1)", "simplexsphere(2)"),
    ("sphere(2)", "simplexsphere(2)"),
    ("smash(S1,sphere(2))", "sphere(3)"),
    ("torus(1)", "S1"),
    ("sphere(1)", "S1"),
)


@dataclass(frozen=True)
class ComparisonReport:
    """Tabulated dimension pairs and the comparison verdict."""

    left_expr: str
    right_expr: str
    algebra: str
    field: str
    coeff_mode: str
    max_degree: int
    weight_bound: int | None
    rows: tuple  # (degree, weight, left, right), sorted
    verdict: str

    @property
    def agrees(self) -> bool:
        return self.verdict.startswith("agree")

    @property
    def first_discrepancy(self):
        """(degree, weight, left, right) of the first differing block."""
        for row in self.rows:
            if row[2] != row[3]:
                return row
        return None

    def left_totals(self):
        return self._totals(2)

    def right_totals(self):
        return self._totals(3)

    def _totals(self, slot):
        out = [0] * (self.max_degree + 1)
        for row in self.rows:
            out[row[0]] += row[slot]
        return out

    def __str__(self) -> str:
        return (f"{self.left_expr} vs {self.right_expr}: {self.verdict} "
                f"({EVIDENCE_NOTE})")


def compare_tables(left: HomologyTable, right: HomologyTable,
                   max_degree: int) -> tuple:
    """Rows over the union of computed blocks, and the verdict string."""
    keys = sorted(set(left.dims) | set(right.dims))
    rows = []
    verdict = f"agree-through-degree-{max_degree}"
    for (n, w) in keys:
        if n > max_degree:
            continue
        l, r = left.get(n, w), right.get(n, w)
        rows.append((n, w, l, r))
    for (n, w, l, r) in rows:
        if l != r:
            verdict = (f"first-discrepancy(degree={n},weight={w},"
                       f"left={l},right={r})")
            break
    return tuple(rows), verdict


def _as_expr(expr) -> SpaceExpr:
    return parse_space_expr(expr) if isinstance(expr, str) else expr


def _report(left, right, lt: HomologyTable, rt: HomologyTable, algebra,
            coefficients: Coefficients, max_degree: int,
            weight_bound) -> ComparisonReport:
    rows, verdict = compare_tables(lt, rt, max_degree)
    return ComparisonReport(str(left), str(right), algebra.description,
                            str(algebra.field), coefficients.mode, max_degree,
                            weight_bound, rows, verdict)


def compare_spaces(left, right, algebra, coefficients: Coefficients,
                   max_degree: int, weight_bound=None, normalized: bool = True,
                   max_block_size=None) -> ComparisonReport:
    """Homology-dimension comparison of two space expressions."""
    le, re = _as_expr(left), _as_expr(right)
    top = max_degree + 1
    lt = homology_dims(build_complex(build_space(le, top), algebra,
                                     coefficients, max_degree, weight_bound,
                                     normalized, max_block_size))
    rt = homology_dims(build_complex(build_space(re, top), algebra,
                                     coefficients, max_degree, weight_bound,
                                     normalized, max_block_size))
    return _report(le, re, lt, rt, algebra, coefficients, max_degree,
                   weight_bound)


def product_decomposition_check(x, y, algebra, coefficients: Coefficients,
                                max_degree: int, weight_bound=None,
                                normalized: bool = True,
                                max_block_size=None) -> ComparisonReport:
    """Compare X x Y against X v Y v (X smash Y) at the dimension level.

    X and Y are built once, at top level max_degree + 1, and must be
    connected; when they are the same expression Y is X's space.  The
    product side is ranked on the two factors' own axes (a ``LodayComplex``
    on both), per-axis normalized unless ``normalized`` is off.  With
    ``unit`` coefficients the wedge side is the Künneth convolution of the
    homology tables of X, of Y and of X smash Y, each ranked on its
    diagonal complex, and Y's is X's when they are the same expression;
    with ``self`` or custom coefficients Künneth does not hold, and the
    wedge side is the diagonal complex of the wedge.  ``max_block_size``
    bounds each complex ranked."""
    xe, ye = _as_expr(x), _as_expr(y)
    top = max_degree + 1
    sx = build_space(xe, top)
    sy = sx if ye == xe else build_space(ye, top)
    for expr, space in ((xe, sx), (ye, sy)):
        if not is_connected(space):
            raise NotConnected(f"{expr} is not connected")
    settings = (algebra, coefficients, max_degree, weight_bound, normalized,
                max_block_size)
    lt = homology_dims(LodayComplex((sx, sy), *settings))

    def h(space):
        return homology_dims(build_complex(space, *settings))

    if coefficients.mode == "unit":
        hx = h(sx)
        hy = hx if sy is sx else h(sy)
        rt = wedge_kunneth_dims(wedge_kunneth_dims(hx, hy, max_degree),
                                h(smash(sx, sy)), max_degree)
    else:
        rt = h(wedge(wedge(sx, sy), smash(sx, sy)))
    return _report(SpaceExpr("prod", (xe, ye)),
                   SpaceExpr("wedge", (SpaceExpr("wedge", (xe, ye)),
                                       SpaceExpr("smash", (xe, ye)))),
                   lt, rt, algebra, coefficients, max_degree, weight_bound)
