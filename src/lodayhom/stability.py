"""Executable comparisons behind the stability questions.

A comparison builds two homology tables under identical settings and reports
the per-(degree, weight) dimension pairs together with a verdict: agreement
through the requested degree, or the first block where the dimensions differ
(ordered by degree, then weight).  Equal dimensions are necessary for the
spaces' constructions to be equivalent, so a discrepancy certifies failure;
agreement is dimension-level evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Coefficients
from .loday import HomologyTable, build_complex, homology_dims
from .simplicial import SpaceExpr, build_space, is_connected, parse_space_expr


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
    rows, verdict = compare_tables(lt, rt, max_degree)
    return ComparisonReport(str(le), str(re), algebra.description,
                            str(algebra.field), coefficients.mode, max_degree,
                            weight_bound, rows, verdict)


def product_decomposition_check(x, y, algebra, coefficients: Coefficients,
                                max_degree: int, weight_bound=None,
                                normalized: bool = True,
                                max_block_size=None) -> ComparisonReport:
    """Compare X x Y against X v Y v (X smash Y) at the dimension level."""
    xe, ye = _as_expr(x), _as_expr(y)
    for expr in (xe, ye):
        if not is_connected(build_space(expr, max_degree + 1)):
            raise NotConnected(f"{expr} is not connected")
    return compare_spaces(
        SpaceExpr("prod", (xe, ye)),
        SpaceExpr("wedge", (SpaceExpr("wedge", (xe, ye)),
                            SpaceExpr("smash", (xe, ye)))),
        algebra, coefficients, max_degree, weight_bound, normalized,
        max_block_size)
