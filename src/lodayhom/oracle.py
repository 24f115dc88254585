"""Independent cross-checks for the main chain pipeline.

``torus_bicomplex`` evaluates the labeling functor on the bisimplicial grid
S^1 x S^1 directly: the term in bidegree (n, m) is the labeling space of the
(n+1)(m+1) - 1 non-basepoint cells of the grid, the horizontal boundary is the
alternating face sum in the first circle direction, the vertical one in the
second.  ``total_homology`` ranks its total complex, with the sign twist
(-1)^n placed on the vertical differential at horizontal degree n; the result
must agree blockwise with the diagonal product complex.

``wedge_kunneth_dims`` convolves homology tables over a field, predicting
wedge homology from the factors.
"""

from __future__ import annotations

from .exactlinalg import SparseMatrix, rank
from .algebra import Coefficients
from .loday import (
    BasisSizeExceeded, DEFAULT_MAX_BLOCK, HomologyTable, WeightBoundRequired,
    _block_counts, _boundary_block, _enumerate_block_bases,
    _monomial_tables, _resolve_coefficients,
)
from .simplicial import circle


class CoefficientMismatch(ValueError):
    """Künneth convolution needs tables computed with unit coefficients."""


class Bicomplex:
    """Grid of labeling bases with commuting horizontal/vertical boundaries."""

    def __init__(self, algebra, coefficients, max_degree, weight_bound,
                 terms, horizontal, vertical, coeff_mode):
        self.algebra = algebra
        self.coefficients = coefficients
        self.field = algebra.field
        self.max_degree = max_degree
        self.weight_bound = weight_bound
        self.terms = terms            # (n, m, w) -> list of Labelings
        self.horizontal = horizontal  # (n, m, w) -> SparseMatrix to (n-1, m, w)
        self.vertical = vertical      # (n, m, w) -> SparseMatrix to (n, m-1, w)
        self.coeff_mode = coeff_mode

    def term_dim(self, n: int, m: int, weight=None) -> int:
        if weight is not None:
            return len(self.terms.get((n, m, weight), ()))
        return sum(len(v) for (a, b, _), v in self.terms.items()
                   if a == n and b == m)

    def check_squares(self):
        """horizontal^2 = 0, vertical^2 = 0, and the two directions commute."""
        violations = []
        for (n, m, w), h in sorted(self.horizontal.items()):
            h2 = self.horizontal.get((n - 1, m, w))
            if h2 is not None and not h2.matmul(h).is_zero:
                violations.append(("h.h", n, m, w))
        for (n, m, w), v in sorted(self.vertical.items()):
            v2 = self.vertical.get((n, m - 1, w))
            if v2 is not None and not v2.matmul(v).is_zero:
                violations.append(("v.v", n, m, w))
        for (n, m, w), h in sorted(self.horizontal.items()):
            v_after = self.vertical.get((n - 1, m, w))
            v_before = self.vertical.get((n, m, w))
            if v_after is None or v_before is None:
                continue
            h_after = self.horizontal.get((n, m - 1, w))
            if h_after is None:
                continue
            if v_after.matmul(h).entries != h_after.matmul(v_before).entries:
                violations.append(("h.v", n, m, w))
        return violations


def _grid_slots(n: int, m: int):
    """Non-basepoint cells of S^1_n x S^1_m in lexicographic order; the cell
    identifiers of the minimal circle are 0..level with 0 the basepoint."""
    return tuple((a, b) for a in range(n + 1) for b in range(m + 1)
                 if (a, b) != (0, 0))


def torus_bicomplex(algebra, coefficients: Coefficients, max_degree: int,
                    weight_bound=None, max_block_size=None) -> Bicomplex:
    """Labeling bicomplex of the two-circle grid through total degree
    max_degree + 1."""
    d = max_degree
    if d < 0:
        raise ValueError("max_degree must be >= 0")
    if not algebra.is_finite and weight_bound is None:
        raise WeightBoundRequired(
            "the algebra has unbounded weights; supply a weight bound")
    ceiling = DEFAULT_MAX_BLOCK if max_block_size is None else max_block_size
    c_alg, action = _resolve_coefficients(algebra, coefficients)
    s1 = circle(d + 1)

    if weight_bound is not None:
        bound = weight_bound
    else:
        max_slots = (d + 2) * (d + 2) - 1
        bound = algebra.max_basis_weight * max_slots + c_alg.max_basis_weight
    tables = _monomial_tables(algebra, c_alg, action, bound)

    grid = {}
    terms = {}
    index = {}
    for n in range(d + 2):
        for m in range(d + 2 - n):
            slots = _grid_slots(n, m)
            grid[(n, m)] = slots
            counts = _block_counts(algebra, c_alg, len(slots), bound)
            for w, count in enumerate(counts):
                if count > ceiling:
                    raise BasisSizeExceeded(
                        f"bicomplex term ({n},{m}) weight {w} needs {count} "
                        f"labelings, ceiling is {ceiling}")
            blocks = _enumerate_block_bases(algebra, c_alg, len(slots), bound)
            for w, labs in blocks.items():
                terms[(n, m, w)] = labs
                index[(n, m, w)] = {lab: r for r, lab in enumerate(labs)}

    def boundary_blocks(n, m, horizontal):
        """All weight blocks of one directional boundary out of (n, m)."""
        level = n if horizontal else m
        slots = grid[(n, m)]
        low_key = (n - 1, m) if horizontal else (n, m - 1)
        slots_low = grid[low_key]
        pos_low = {cell: q for q, cell in enumerate(slots_low)}
        plans = []
        for i in range(level + 1):
            fmap = s1.face(level, i)
            pre = [[] for _ in slots_low]
            to_base = []
            for q, (a, b) in enumerate(slots):
                cell = (fmap[a], b) if horizontal else (a, fmap[b])
                if cell == (0, 0):
                    to_base.append(q)
                else:
                    pre[pos_low[cell]].append(q)
            plans.append((tuple(tuple(x) for x in pre), tuple(to_base)))
        return {w: _boundary_block(plans, terms[(n, m, w)],
                                   index.get(low_key + (w,), {}),
                                   len(terms.get(low_key + (w,), ())),
                                   algebra, c_alg, action, tables)
                for w in sorted(w for (a, b, w) in terms if (a, b) == (n, m))}

    horizontal = {}
    vertical = {}
    for (n, m) in grid:
        if n >= 1:
            for w, mat in boundary_blocks(n, m, True).items():
                horizontal[(n, m, w)] = mat
        if m >= 1:
            for w, mat in boundary_blocks(n, m, False).items():
                vertical[(n, m, w)] = mat

    return Bicomplex(algebra, coefficients, d, weight_bound, terms,
                     horizontal, vertical, coefficients.mode)


def _component_order(k):
    return [(n, k - n) for n in range(k + 1)]


def _total_matrices(bicomplex: Bicomplex, d: int):
    """Total differentials T_k -> T_{k-1} per weight, for k = 1..d+1.

    Summands are stacked in ascending horizontal degree; the (n, m) summand
    maps by the horizontal boundary plus (-1)^n times the vertical one.
    """
    field = bicomplex.field
    weights = sorted({w for (_, _, w) in bicomplex.terms})

    def offsets(k, w):
        off = {}
        total = 0
        for nm in _component_order(k):
            off[nm] = total
            total += len(bicomplex.terms.get(nm + (w,), ()))
        return off, total

    out = {}
    for k in range(1, d + 2):
        for w in weights:
            row_off, n_rows = offsets(k - 1, w)
            col_off, n_cols = offsets(k, w)
            entries = {}
            for (n, m) in _component_order(k):
                c0 = col_off[(n, m)]
                h = bicomplex.horizontal.get((n, m, w))
                if h is not None and n >= 1:
                    r0 = row_off[(n - 1, m)]
                    for (r, c), v in h.entries.items():
                        entries[(r0 + r, c0 + c)] = v
                v_mat = bicomplex.vertical.get((n, m, w))
                if v_mat is not None and m >= 1:
                    r0 = row_off[(n, m - 1)]
                    neg = n % 2 == 1
                    for (r, c), v in v_mat.entries.items():
                        entries[(r0 + r, c0 + c)] = field.neg(v) if neg else v
            out[(k, w)] = SparseMatrix(n_rows, n_cols, entries, field)
    return out, weights


def total_homology(bicomplex: Bicomplex, max_degree: int) -> HomologyTable:
    """Homology dimensions of the total complex, per (degree, weight)."""
    d = max_degree
    if d > bicomplex.max_degree:
        raise ValueError("bicomplex was not built deep enough")
    total_matrices, weights = _total_matrices(bicomplex, d)
    ranks = {key: rank(mat) for key, mat in total_matrices.items()}
    dims = {}
    for k in range(d + 1):
        for w in weights:
            n_chains = sum(len(bicomplex.terms.get(nm + (w,), ()))
                           for nm in _component_order(k))
            if n_chains == 0:
                continue
            value = n_chains - ranks.get((k, w), 0) - ranks.get((k + 1, w), 0)
            if value:
                dims[(k, w)] = value
    return HomologyTable(dims, d, bicomplex.weight_bound, bicomplex.coeff_mode,
                         bicomplex.field)


def check_total_square(bicomplex: Bicomplex) -> bool:
    """The twisted total differential squares to zero."""
    mats, _ = _total_matrices(bicomplex, bicomplex.max_degree)
    for (k, w), mat in sorted(mats.items()):
        prev = mats.get((k - 1, w))
        if prev is not None and not prev.matmul(mat).is_zero:
            return False
    return True


def wedge_kunneth_dims(left: HomologyTable, right: HomologyTable,
                       max_degree: int) -> HomologyTable:
    """Graded convolution of two unit-coefficient homology tables."""
    if left.coeff_mode != "unit" or right.coeff_mode != "unit":
        raise CoefficientMismatch(
            "wedge convolution needs tables computed with unit coefficients")
    if left.field != right.field:
        raise CoefficientMismatch("tables computed over different fields")
    bound = None
    if left.weight_bound is not None and right.weight_bound is not None:
        bound = min(left.weight_bound, right.weight_bound)
    dims = {}
    for (n1, w1), d1 in left.dims.items():
        if n1 > max_degree or not d1:
            continue
        for (n2, w2), d2 in right.dims.items():
            if not d2 or n1 + n2 > max_degree:
                continue
            if bound is not None and w1 + w2 > bound:
                # the inputs are only complete up to the bound
                continue
            key = (n1 + n2, w1 + w2)
            dims[key] = dims.get(key, 0) + d1 * d2
    return HomologyTable(dims, max_degree, bound, "unit", left.field)
