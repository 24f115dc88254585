"""Assembly of the chain complex computing the homotopy of L_X(A; C) and its
homology dimensions per (degree, weight).

A chain in degree p is a labeling: one algebra basis index per non-basepoint
simplex of X_p (slots ordered by simplex identifier) plus a coefficient basis
index for the basepoint.  The boundary is the alternating sum of the face
pushforwards: labels landing on a common simplex multiply in A, labels landing
on the basepoint act on the coefficient factor.  Degeneracy pushforwards insert
units, so the degenerate chains have an evident basis: the labelings that put
the unit on every slot outside the image of some degeneracy.  The normalized
complex is spanned by the others, and the enumerator prunes degenerate
assignments while it walks, so they are never built.

All boundaries preserve the total weight, so every matrix is assembled and
ranked blockwise per (degree, weight).

One evaluator, ``_Labelings``, labels the cells of a product of simplicial
sets (its axes) per tuple of levels and sums faces along each axis:
``build_complex`` is one axis, ``oracle.torus_bicomplex`` two circles.  One
ceiling bounds the labelings of the whole complex before any is enumerated.

Face pushforwards read one structure table per complex: every product of
basis elements up to the weight bound and every coefficient action
c . action(a), as (basis index, scalar) pairs.  ``build_complex`` lists
levels 0..d, and ``homology_dims`` builds each boundary block when it ranks
it, on the rows that clearing leaves (Ripser's implicit matrix with clearing;
Bauer, J. Appl. Comput. Topol. 2021).

A labeling is one packed int from enumeration to elimination: each slot's
label in a fixed number of bits and the coefficient above the last slot
(``_pull_faces``).  Only the tables decide how a block is built.  When each
entry is zero or one basis element with coefficient one (truncpoly(m), poly
and exterior with unit or self coefficients, and monomial custom
coefficients), ``_pull_block`` pulls the block from its rows by inverting the
tables (``_factorizations``), reading each row's labels by shift and mask,
and numbers its columns as their level lists them, or as the rows reach them
on the top level d + 1, which is never listed.  Otherwise
``_boundary_block`` pushes it from the listed columns by multiplying the
pairs out, and decodes its rows and columns for that.  Either way the block
is its rows, ``{column: scalar}`` dicts, which ``exactlinalg.row_pivots``
eliminates in place; over Q the pulled sums stay ints, and the pushed rows of
``Fraction``s are scaled to ints before they are ranked.  ``Labeling`` tuples
and ``SparseMatrix`` blocks are made only where the complex is read
eagerly: by the first read of ``.bases`` or ``.boundaries``, and by the
grid's ``_Labelings.build``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .exactlinalg import (
    FieldSpec, SparseMatrix, integer_rows, pivots, row_pivots,
)
from .algebra import Coefficients, unit_coefficient_algebra
from .simplicial import PointedSimplicialSet


class TruncationTooShallow(ValueError):
    """The space is not truncated high enough for the requested degree."""


class WeightBoundRequired(ValueError):
    """The algebra has unbounded weights and no weight bound was supplied."""


class FieldMismatch(ValueError):
    """Algebra and coefficient algebra live over different fields."""


class BasisSizeExceeded(RuntimeError):
    """The labelings of a whole complex, predicted before any is built, would
    exceed the ceiling."""


DEFAULT_MAX_BLOCK = 5_000_000  # ceiling on the labelings of one complex


class Labeling(NamedTuple):
    """Algebra labels per non-basepoint slot, plus the coefficient index."""

    assignment: tuple
    coeff: int


def _resolve_coefficients(algebra, coefficients: Coefficients):
    """Return (C_algebra, action) where action maps an A basis index to its
    image in C as a sparse linear combination."""
    field = algebra.field
    mode = coefficients.mode
    if mode == "self":
        one = field.one
        return algebra, (lambda i: {i: one})
    if mode == "unit":
        c_alg = unit_coefficient_algebra(field)
    else:
        c_alg = coefficients.algebra
        if c_alg.field != field:
            raise FieldMismatch(
                f"coefficient algebra over {c_alg.field}, algebra over {field}")
    if mode == "unit" or coefficients.action is None:
        # act through the augmentation of A
        unit_c = c_alg.unit
        action = lambda i: ({unit_c: algebra.aug(i)}
                            if algebra.aug(i) != field.zero else {})
        return c_alg, action
    if not algebra.is_finite:
        raise ValueError("explicit custom actions need a finite algebra")
    rows = coefficients.action
    if len(rows) != algebra.dim:
        raise ValueError("action must list an image per basis element of A")
    table = []
    for i in range(algebra.dim):
        lin = {}
        for k, v in rows[i].items():
            v = field.normalize(v)
            if v != field.zero:
                lin[int(k)] = v
        table.append(lin)
    _check_action(algebra, c_alg, table)
    return c_alg, (lambda i: table[i])


def _check_action(algebra, c_alg, table):
    """A custom action must be a weight-preserving ring map sending 1 to 1."""
    field = algebra.field
    zero, one = field.zero, field.one
    if table[algebra.unit] != {c_alg.unit: one}:
        raise ValueError("custom action does not send 1 to 1")
    for i in range(algebra.dim):
        for k in table[i]:
            if c_alg.weight(k) != algebra.weight(i):
                raise ValueError(
                    f"custom action is not weight-preserving on {algebra.name(i)}")
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            left = {}
            for k, c in table[i].items():
                for k2, c2 in table[j].items():
                    for r, s in c_alg.mul(k, k2).items():
                        v = field.add(left.get(r, zero), field.mul(field.mul(c, c2), s))
                        if v == zero:
                            left.pop(r, None)
                        else:
                            left[r] = v
            right = {}
            for k, c in algebra.mul(i, j).items():
                for r, s in table[k].items():
                    v = field.add(right.get(r, zero), field.mul(c, s))
                    if v == zero:
                        right.pop(r, None)
                    else:
                        right[r] = v
            if left != right:
                raise ValueError(
                    f"custom action is not multiplicative on "
                    f"({algebra.name(i)}, {algebra.name(j)})")


def _weight_multiplicities(algebra, bound):
    """Number of basis elements per weight 0..bound."""
    return [len(algebra.indices_of_weight(w)) for w in range(bound + 1)]


def _block_counts(algebra, c_alg, n_slots, bound):
    """Labeling counts per total weight 0..bound, computed before enumeration:
    the weight multiplicities of n_slots copies of A and one of C convolved."""
    mult = _weight_multiplicities(algebra, bound)
    counts = [1] + [0] * bound
    for factor in [mult] * n_slots + [_weight_multiplicities(c_alg, bound)]:
        nxt = [0] * (bound + 1)
        for w, c in enumerate(counts):
            if c:
                for dw, m in enumerate(factor[:bound + 1 - w]):
                    nxt[w + dw] += c * m
        counts = nxt
    return counts


def _normalized_counts(levels):
    """The number of non-degenerate labelings of level p per total weight,
    from the unnormalized counts ``levels`` of levels 0..p (``_block_counts``).

    The labelings span a simplicial vector space graded by weight.  By
    Dold–Kan, level k is the sum of C(k, j) copies of normalized level j, one
    per surjection [k] -> [j], so binomial inversion gives
    N_p = sum_k (-1)^(p - k) C(p, k) U_k, weight by weight.
    """
    p = len(levels) - 1
    return [sum((-1) ** (p - k) * comb(p, k) * u
                for k, u in enumerate(column))
            for column in zip(*levels)]


def _enumerate_block_bases(algebra, c_alg, n_slots, bound, bits,
                           complements=()):
    """Bases of labelings grouped by total weight, in lexicographic order,
    each as its packed code (``_pull_faces``): label ``a[q]`` in the ``bits``
    bits at shift ``q * bits``, the coefficient above the last slot.

    The walk visits only the labels that fit the weight left, from one list
    per weight left in index order.  ``complements`` (normalized complexes)
    holds per degeneracy the slot positions outside its image; an assignment
    that is the unit on all of one is degenerate.  The walk never puts the
    unit on a slot that is a whole complement, and skips the subtree when it
    puts the unit on a complement's last position and its earlier positions
    are unit too, so degenerate labelings are never built.
    """
    if not all(complements):
        return {}
    unit = algebra.unit
    closing = [set() for _ in range(n_slots)]
    for comp in complements:
        last = max(comp)
        closing[last].add(sum(1 << q for q in comp if q != last))
    labels = [(i, algebra.weight(i)) for i in algebra.basis_indices(bound)]
    with_unit = [[(i, w) for i, w in labels if w <= left]
                 for left in range(bound + 1)]
    without_unit = [[(i, w) for i, w in fits if i != unit]
                    for fits in with_unit]
    fitting = [without_unit if 0 in masks else with_unit for masks in closing]
    by_weight = {w: [] for w in range(bound + 1)}
    top = n_slots * bits
    coeff_by_budget = {}
    for i in c_alg.basis_indices(bound):
        coeff_by_budget.setdefault(c_alg.weight(i), []).append(i << top)
    coeff_budgets = sorted(coeff_by_budget.items())

    def rec(code, used, units, q):
        if q == n_slots:
            for budget, coeffs in coeff_budgets:
                if used + budget > bound:
                    break
                by_weight[used + budget].extend([code | c for c in coeffs])
            return
        shift = q * bits
        masks = closing[q]
        for i, w in fitting[q][bound - used]:
            if i != unit:
                rec(code | i << shift, used + w, units, q + 1)
            elif not any(units & m == m for m in masks):
                rec(code | i << shift, used + w, units | 1 << q, q + 1)

    rec(0, 0, 0, 0)
    return {w: codes for w, codes in by_weight.items() if codes}


def _decoder(n_slots, bits):
    """The inverse of the packed code over ``n_slots`` slots: a function
    ``code -> (assignment, coeff)``."""
    digit = (1 << bits) - 1
    shifts = [q * bits for q in range(n_slots)]
    top = n_slots * bits

    def decode(code):
        return tuple([code >> s & digit for s in shifts]), code >> top

    return decode


@dataclass
class HomologyTable:
    """Homology dimensions keyed by (degree, weight); zero blocks are
    omitted, so two tables agree exactly when their dims mappings are equal."""

    dims: dict
    max_degree: int
    weight_bound: int | None
    coeff_mode: str
    field: FieldSpec

    def get(self, degree: int, weight: int) -> int:
        return self.dims.get((degree, weight), 0)

    def total(self, degree: int) -> int:
        return sum(d for (n, _), d in self.dims.items() if n == degree)

    def totals(self):
        return [self.total(n) for n in range(self.max_degree + 1)]

    def weights(self):
        return sorted({w for (_, w) in self.dims})

    def nonzero_blocks(self):
        return sorted((k, d) for k, d in self.dims.items() if d)

    def __str__(self) -> str:
        return f"HomologyTable(totals={self.totals()})"


class LodayComplex:
    """Blockwise chain data for one space/algebra/coefficient configuration.

    ``build_complex`` lists levels 0..max_degree as packed codes, assembles
    no block and keeps its ``_Labelings``: the cells, labeling counts and
    degeneracy complements of its levels and the structure tables with
    their factorizations.  ``homology_dims`` then builds each block on its
    uncleared rows (``_Labelings.implicit_blocks``).  The first read of
    ``bases`` or ``boundaries`` lists the top level max_degree + 1,
    assembles every block onto all its rows and decodes the levels into
    ``Labeling`` tuples, after which the complex holds them like one made
    with its boundaries (``oracle._total_complex``).
    """

    def __init__(self, field, coeff_mode, max_degree, weight_bound, bases,
                 boundaries):
        self.field = field
        self.coeff_mode = coeff_mode
        self.max_degree = max_degree
        self.weight_bound = weight_bound
        self._bases = bases            # (degree, weight) -> list of Labelings,
                                       # of packed codes while deferred
        self._boundaries = boundaries  # (degree, weight) -> SparseMatrix
        self._labelings = None         # deferred: blocks not yet assembled

    @property
    def bases(self) -> dict:
        self._assemble()
        return self._bases

    @property
    def boundaries(self) -> dict:
        self._assemble()
        return self._boundaries

    def _assemble(self):
        if self._labelings is not None:
            self._bases, (self._boundaries,) = self._labelings.build(
                [(self.max_degree + 1,)], self._bases)
            self._labelings = None

    def _ranked(self, cleared):
        """The pivots of every boundary block, ``((degree, weight), pivots)``
        in key order, without the rows that ``cleared`` holds for the block
        when it is reached; while assembly is deferred, each block is built
        on those rows once the previous ones are ranked, and its rows go to
        ``row_pivots`` as they were built."""
        if self._labelings is None:
            for key, matrix in sorted(self._boundaries.items()):
                yield key, pivots(matrix, cleared.pop(key, frozenset()))
            return
        for p in range(1, self.max_degree + 2):
            for key, (rows, cols) in self._labelings.implicit_blocks(
                    (p,), self._bases, cleared):
                yield key, row_pivots(rows, cols, self.field)

    def check_boundary_squares(self):
        """Verify boundary . boundary = 0 on every composable block pair."""
        violations = []
        for (p, w), mat in sorted(self.boundaries.items()):
            nxt = self.boundaries.get((p + 1, w))
            if nxt is None:
                continue
            if not mat.matmul(nxt).is_zero:
                violations.append((p, w))
        return violations


def _face_plans(fmaps, slots, slots_low, bp_low):
    """Per face map (a lookup from the cells of ``slots`` to cells one level
    down): preimages of each low slot and the list of source slot positions
    falling into the basepoint ``bp_low``."""
    pos_low = {cell: q for q, cell in enumerate(slots_low)}
    plans = []
    for fmap in fmaps:
        pre = [[] for _ in slots_low]
        to_base = []
        for q, cell in enumerate(slots):
            target = fmap[cell]
            if target == bp_low:
                to_base.append(q)
            else:
                pre[pos_low[target]].append(q)
        plans.append((tuple(tuple(x) for x in pre), tuple(to_base)))
    return plans


def _structure_tables(algebra, c_alg, action, bound):
    """Structure constants over the basis up to the weight bound: ``mul[i][j]``
    is a_i . a_j and ``act[c][a]`` is c . action(a), each a tuple of
    ``(basis index, scalar)`` pairs.

    An entry is ``()`` when it is zero or when its total weight exceeds the
    bound; no labeling of a block can reach the latter, since every partial
    product of its labels has at most the block's weight.
    """
    field = algebra.field
    zero = field.zero
    a_idx = list(algebra.basis_indices(bound))
    c_idx = list(c_alg.basis_indices(bound))
    mul = [[()] * (a_idx[-1] + 1) for _ in range(a_idx[-1] + 1)]
    act = [[()] * (a_idx[-1] + 1) for _ in range(c_idx[-1] + 1)]
    for i in a_idx:
        for j in a_idx:
            if algebra.weight(i) + algebra.weight(j) <= bound:
                mul[i][j] = tuple((k, v) for k, v in algebra.mul(i, j).items()
                                  if v != zero)
    for c in c_idx:
        for a in a_idx:
            if c_alg.weight(c) + algebra.weight(a) <= bound:
                lin = {}
                for k, v in action(a).items():
                    for r, s in c_alg.mul(c, k).items():
                        lin[r] = field.add(lin.get(r, zero), field.mul(v, s))
                act[c][a] = tuple((r, v) for r, v in lin.items() if v != zero)
    return mul, act


def _index_tables(tables, algebra, c_alg):
    """The tables as lookups ``x -> k`` (None for a zero entry) when every
    entry is zero or one basis element of the summed weight with coefficient
    one; otherwise None."""
    for table, alg in zip(tables, (algebra, c_alg)):
        for x, row in enumerate(table):
            for y, terms in enumerate(row):
                if terms and (len(terms) > 1 or terms[0][1] != 1 or
                              alg.weight(terms[0][0])
                              != alg.weight(x) + algebra.weight(y)):
                    return None
    return [[[terms[0][0] if terms else None for terms in row] for row in table]
            for table in tables]


def _times(lin, table, y):
    """A sparse combination ``{x: scalar}`` times the basis element y, read
    off ``table``; scalars are summed as plain numbers."""
    out = {}
    for x, v in lin.items():
        for k, s in table[x][y]:
            out[k] = out.get(k, 0) + v * s
    return out


def _face_pusher(tables, unit):
    """A function ``plan -> push``: each push maps a labeling to the terms
    ``((assignment, coeff), scalar)`` of its image along the plan's face,
    multiplying out the pairs of ``tables``; the scalars are plain numbers
    that the caller normalizes."""
    mul, act = tables

    def pusher(plan):
        pre, to_base = plan
        firsts = tuple(srcs[0] if srcs else None for srcs in pre)
        merges = tuple((q, srcs[0], srcs[1:]) for q, srcs in enumerate(pre)
                       if len(srcs) > 1)
        if len(firsts) > 1 and None not in firsts:
            gather = itemgetter(*firsts)
        else:
            def gather(a):
                return tuple(unit if q is None else a[q] for q in firsts)

        def push(labeling):
            a, c = labeling
            coeffs = {c: 1}
            for q in to_base:
                coeffs = _times(coeffs, act, a[q])
            firsts = gather(a)
            terms = [((), 1)]
            done = 0
            for slot, first, rest in merges:
                lin = {a[first]: 1}
                for q in rest:
                    lin = _times(lin, mul, a[q])
                terms = [(labels + firsts[done:slot] + (k,), v * s)
                         for labels, v in terms for k, s in lin.items()]
                done = slot + 1
            return [((labels + firsts[done:], ci), v * cv)
                    for labels, v in terms for ci, cv in coeffs.items()]

        return push

    return pusher


def _boundary_block(pushes, cols, row_index, field):
    """The signed face sum ``pushes`` (pairs of sign and push,
    ``_face_pusher``) from the labelings ``cols``, pairs ``(assignment,
    coeff)``, to the rows of ``row_index``, as its rows ``{col: scalar}``
    and its column count; images missing from ``row_index`` (degenerate or
    cleared ones) are dropped."""
    normalize, zero = field.normalize, field.zero
    rows = [{} for _ in row_index]
    for col, lab in enumerate(cols):
        acc = {}
        for sign, push in pushes:
            for image, scalar in push(lab):
                row = row_index.get(image)
                if row is not None:
                    acc[row] = acc.get(row, 0) + sign * scalar
        for row, tot in acc.items():
            val = normalize(tot)
            if val != zero:
                rows[row][col] = val
    return rows, len(cols)


def _matrix(block, field):
    """The ``SparseMatrix`` of a block given as its rows and column count;
    over Q its int scalars become ``Fraction``s."""
    rows, cols = block
    scalar = Fraction if field.p is None else int
    return SparseMatrix._trusted(
        len(rows), cols, {(r, c): scalar(v) for r, row in enumerate(rows)
                          for c, v in row.items()}, field)


def _factorizations(index, unit):
    """Memoized inverses of the lookups ``index`` (``_index_tables``).

    ``unfold(kind, z, k, banned)`` lists the tuples ``(x0, y1, ..., yk)``
    whose chained lookup ``(x0 . y1) ... . yk`` in table ``kind`` is z.  In
    the products (kind 0) that is the product of k + 1 labels, folded from
    the left as a push merges them; in the actions (kind 1), x0 is a
    coefficient and the labels y act on it.  It leaves out the tuples with
    the unit at a position i whose bit ``1 << i`` is set in ``banned``; bit
    0 of an action tuple, its coefficient, is never set.
    """
    inverses = []
    for table in index:
        inverse = {}
        for x, row in enumerate(table):
            for y, z in enumerate(row):
                if z is not None:
                    inverse.setdefault(z, []).append((x, y))
        inverses.append(inverse)
    memo = {}

    def unfold(kind, z, k, banned):
        key = (kind, z, k, banned)
        tuples = memo.get(key)
        if tuples is None:
            if k == 0:
                tuples = () if banned & 1 and z == unit else ((z,),)
            else:
                bit = 1 << k
                tuples = tuple(t + (y,) for x, y in inverses[kind].get(z, ())
                               if not (banned & bit and y == unit)
                               for t in unfold(kind, x, k - 1, banned & ~bit))
            memo[key] = tuples
        return tuples

    return unfold


def _code(labels, slots, bits):
    """The packed code of ``labels`` placed on the slot positions ``slots``:
    each label in the ``bits`` bits at shift ``slot * bits``."""
    code = 0
    for x, q in zip(labels, slots):
        code |= x << q * bits
    return code


def _pull_faces(signed_plans, n_slots, complements, unfold, sizes, bits):
    """Per signed face plan, what ``_pull_block`` reads to list the preimages
    of a row as packed codes.

    A labeling ``(a, c)`` of ``n_slots`` slots is coded as one int: label
    ``a[q]`` in the ``bits`` bits at shift ``q * bits`` and the coefficient
    c above the last slot, at shift ``n_slots * bits``; a row is coded the
    same way over its own slots.  Along a face, a preimage's code is the sum
    of three parts, each read off a table built here once per level:

    - the labels of the low slots with one preimage, moved straight out of
      the row's code as runs ``(mask, up, down)``: the row digits under
      ``mask``, shifted left by ``up`` and right by ``down`` onto their
      source slots;
    - per merged low slot but the last, at the shift of its digit in the
      row's code, its split offsets indexed by the row's label there: one
      code per tuple of labels whose product is that label (``unfold`` of
      the products, ``_factorizations``), placed on the slot's preimages;
    - the final offsets ``final[x][c]``, read at the shift ``last`` of the
      last merged slot's digit under ``fmask``: every split offset of the
      label x there plus every cosplit offset of the row coefficient c, in
      that nesting.  A cosplit offset is one code per coefficient and tuple
      of labels acting on it to give c (``unfold`` of the actions), placed
      above the last slot and on the slots that fall into the basepoint.  A
      face with no merged slot has ``final = (cosplits,)`` and ``fmask``
      zero.

    Every low slot has a preimage, as the faces of a simplicial set are
    onto (``d_j s_j = id``).  Each face also carries its sign and the low
    bits of the row digits that must not hold the unit (one preimage, which
    is the only cell outside the image of some degeneracy in
    ``complements``, so the unit there makes the labeling degenerate); the
    tables leave such a lone cell's unit out of the merged and acting labels
    too.  ``sizes`` are the numbers of labels and of coefficients the tables
    index.
    """
    lone = {comp[0] for comp in complements if len(comp) == 1}
    n_labels, n_coeffs = sizes
    digit = (1 << bits) - 1
    faces = []
    for sign, (pre, to_base) in signed_plans:
        no_unit = sum(1 << r * bits for r, srcs in enumerate(pre)
                      if len(srcs) == 1 and srcs[0] in lone)
        runs = {}  # shift -> mask of the row digits it moves
        for r, srcs in enumerate(pre):
            if len(srcs) == 1:
                shift = (srcs[0] - r) * bits
                runs[shift] = runs.get(shift, 0) | digit << r * bits
        merges = []
        for r, srcs in enumerate(pre):
            if len(srcs) > 1:
                banned = sum(1 << i for i, q in enumerate(srcs) if q in lone)
                merges.append((r * bits, tuple(
                    tuple(_code(t, srcs, bits)
                          for t in unfold(0, x, len(srcs) - 1, banned))
                    for x in range(n_labels))))
        banned = sum(2 << i for i, q in enumerate(to_base) if q in lone)
        top = n_slots * bits
        cosplits = tuple(
            tuple(t[0] << top | _code(t[1:], to_base, bits)
                  for t in unfold(1, c, len(to_base), banned))
            for c in range(n_coeffs))
        if merges:
            last, splits = merges.pop()
            final = tuple(tuple(tuple(m + o for m in ms for o in os)
                                for os in cosplits) for ms in splits)
            fmask = digit
        else:
            last, final, fmask = 0, (cosplits,), 0
        faces.append((sign, no_unit,
                      tuple((mask, max(shift, 0), max(-shift, 0))
                            for shift, mask in runs.items()),
                      tuple(merges), last, fmask, final))
    return faces


def _pull_block(faces, rows, col_index, field, unit, bits, n_low, degenerate):
    """The signed face sum from the labelings of ``col_index`` to the
    labelings ``rows`` of ``n_low`` slots, as its rows ``{col: scalar}`` and
    its column count, built row by row from the preimages of each row along
    each face of monomial tables; equal to the term push of
    ``_boundary_block`` between the same rows and columns.

    Rows and columns are packed codes (``_pull_faces``), and a row's labels
    and coefficient are read off its code by shift and mask.  Per face, a
    row's final offsets are read first, by the label of the last merged slot
    and the coefficient, and the face is skipped when there are none.
    Otherwise its preimages are its moved runs plus every sum of one split
    offset per earlier merged slot and one final offset, listed in that
    order.  The signs reaching one preimage are summed per row as ints, and
    each distinct preimage of the row costs one int-keyed lookup in
    ``col_index``.  A preimage missing there is numbered in the order the
    rows first reach it, unless it is degenerate: a face is skipped when the
    row holds the unit on a digit that the face keeps off it, the tables
    keep the unit off a lone complement, and ``degenerate`` holds per
    complement of several slots the pairs ``(mask, unit_pattern)`` of its
    digits and of the unit on all of them, so ``code & mask ==
    unit_pattern`` marks the labeling degenerate.  So ``col_index`` may hold
    every column or start empty.  The sums are reduced ``% p`` over F_p;
    over Q they stay ints, which elimination takes as they are."""
    p = field.p
    get = col_index.get
    digit = (1 << bits) - 1
    top = n_low * bits
    lows = sum(1 << q * bits for q in range(n_low))
    # a digit holds the unit where the row code xor the unit pattern is
    # zero, so where the or of its bits, folded onto its lowest, is clear
    units = lows * unit
    spread = range(1, bits)
    out = []
    for code in rows:
        flipped = code ^ units
        held = flipped
        for k in spread:
            held |= flipped >> k
        unit_digits = lows & ~held
        c = code >> top
        acc = {}
        for sign, no_unit, runs, merges, last, fmask, final in faces:
            if unit_digits & no_unit:
                continue
            offsets = final[code >> last & fmask][c]
            if not offsets:
                continue
            base = 0
            for mask, up, down in runs:
                base |= (code & mask) << up >> down
            codes = (base,)
            for shift, splits in merges:
                codes = [x + o for x in codes
                         for o in splits[code >> shift & digit]]
            for x in codes:
                for o in offsets:
                    y = x + o
                    acc[y] = acc.get(y, 0) + sign
        row = {}
        for y, t in acc.items():
            col = get(y)
            if col is None:
                for m, u in degenerate:
                    if y & m == u:
                        break
                else:
                    col = col_index[y] = len(col_index)
                if col is None:
                    continue
            if p:
                t %= p
            if t:
                row[col] = t
        out.append(row)
    return out, len(col_index)


def _degenerate_complements(axes, key, slots):
    """Per degeneracy s_j along axis i into level ``key``, the positions of
    the cells of ``slots`` whose coordinate i is outside its image."""
    return tuple(tuple(q for q, cell in enumerate(slots) if cell[i] not in image)
                 for i, (axis, p) in enumerate(zip(axes, key))
                 for image in (set(axis.degeneracy(p - 1, j)) for j in range(p)))


class _Labelings:
    """The labelings of the non-basepoint cells of the product of ``axes`` at
    the levels ``keys``, with what all their levels share: cells, weight
    bound, degeneracy complements and structure tables.  Bases are keyed
    ``key + (w,)``; the boundary blocks out of the levels positive on an
    axis go to that axis's dict.

    A cell is a tuple of per-axis simplex identifiers, in lexicographic order;
    face j along axis i replaces coordinate i by its image under
    ``axes[i].face(key[i], j)``.  Lowering a positive coordinate of a key must
    give a key again.
    """

    def __init__(self, axes, keys, algebra, coefficients, d, weight_bound,
                 normalized, max_block_size):
        if not isinstance(coefficients, Coefficients):
            raise TypeError("coefficients must be a Coefficients value")
        if d < 0:
            raise ValueError("max_degree must be >= 0")
        if weight_bound is not None and weight_bound < 0:
            raise ValueError("weight_bound must be >= 0")
        if not algebra.is_finite and weight_bound is None:
            raise WeightBoundRequired(
                "the algebra has unbounded weights; supply a weight bound")
        if coefficients.mode == "custom" and not coefficients.algebra.is_finite:
            raise WeightBoundRequired("custom coefficient algebras must be finite")
        self.axes, self.algebra = axes, algebra
        self.field, self.unit = algebra.field, algebra.unit
        self.c_alg, action = _resolve_coefficients(algebra, coefficients)
        self.basepoints = {key: tuple(axis.basepoints[p]
                                      for axis, p in zip(axes, key))
                           for key in keys}
        self.slots = {key: tuple(cell for cell in product(
                          *(range(axis.size(p)) for axis, p in zip(axes, key)))
                                 if cell != self.basepoints[key])
                      for key in keys}
        if weight_bound is not None:
            self.bound = weight_bound
        else:
            self.bound = (algebra.max_basis_weight
                          * max(map(len, self.slots.values()))
                          + self.c_alg.max_basis_weight)
        ceiling = DEFAULT_MAX_BLOCK if max_block_size is None else max_block_size
        self.counts = {key: _block_counts(algebra, self.c_alg, len(cells),
                                          self.bound)
                       for key, cells in self.slots.items()}
        total = sum(map(sum, self.counts.values()))
        if total > ceiling:
            raise BasisSizeExceeded(
                f"the complex needs {total} labelings, ceiling is {ceiling}")
        self.complements = {key: _degenerate_complements(axes, key, cells)
                            if normalized else ()
                            for key, cells in self.slots.items()}
        tables = _structure_tables(algebra, self.c_alg, action, self.bound)
        # a slot holds any label index of A, the coefficient any of C
        self.sizes = tuple(map(len, tables))
        self.bits = max(1, (max(self.sizes) - 1).bit_length())
        lookups = _index_tables(tables, algebra, self.c_alg)
        self.pusher = _face_pusher(tables, self.unit)
        self.unfold = (None if lookups is None
                       else _factorizations(lookups, self.unit))

    def level(self, key, bound=None):
        """The packed codes of the labelings of level ``key`` per weight, up
        to ``bound`` (default: the bound of the complex)."""
        return _enumerate_block_bases(
            self.algebra, self.c_alg, len(self.slots[key]),
            self.bound if bound is None else bound, self.bits,
            self.complements[key])

    def listed(self, keys):
        """The codes of the labelings of the levels ``keys``, keyed
        ``key + (w,)``."""
        return {key + (w,): codes
                for key in keys for w, codes in self.level(key).items()}

    def build(self, keys, bases=None):
        """The bases of every level, those of ``keys`` listed and added to
        the codes ``bases``, and every boundary block assembled onto all its
        rows, one dict per axis; each basis is decoded into ``Labeling``
        tuples once its blocks are built."""
        bases = {**(bases or {}), **self.listed(keys)}
        boundaries = tuple({} for _ in self.axes)
        for key in self.slots:
            cols = {w: bases[key + (w,)] for w in range(self.bound + 1)
                    if key + (w,) in bases}
            for i, p in enumerate(key):
                if p:
                    low = key[:i] + (p - 1,) + key[i + 1:]
                    rows = {w: bases.get(low + (w,), ()) for w in cols}
                    boundaries[i].update(
                        (bkey, _matrix(block, self.field))
                        for bkey, block in self.blocks(key, i, rows, cols))
        decoded = {}
        for bkey, codes in bases.items():
            decode = _decoder(len(self.slots[bkey[:-1]]), self.bits)
            decoded[bkey] = [Labeling(*decode(x)) for x in codes]
        return decoded, boundaries

    def implicit_blocks(self, key, bases, cleared):
        """The blocks out of the one-axis level ``key``, each onto its rows
        in the codes ``bases`` outside the set it pops from ``cleared``
        (block key -> indices of rows that are pivot columns of the boundary
        below, which cannot change its rank).  A weight yields no block when
        no row is left or its exact count is zero: ``counts[key]``, or on a
        normalized complex their Dold–Kan inversion over levels 0..key
        (``_normalized_counts``), which is zero wherever a degeneracy
        complement is empty.  A level that ``bases`` lists keeps its column
        numbering, so the pivot columns of its blocks index the rows of the
        next level.  The top level is not listed: with lookups its blocks
        number the columns their rows reach, and the unreached ones are zero
        columns; otherwise it is listed up to its largest weight left.
        Over Q, rows pushed by terms hold ``Fraction``s, which are scaled to
        ints (``exactlinalg.integer_rows``) for elimination."""
        low = (key[0] - 1,)
        counts = (_normalized_counts([self.counts[(k,)]
                                      for k in range(key[0] + 1)])
                  if self.complements[key] else self.counts[key])
        rows = {}
        for w, n in enumerate(counts):
            skip = cleared.pop(key + (w,), ())
            kept = [x for r, x in enumerate(bases.get(low + (w,), ()))
                    if r not in skip]
            if n and kept:
                rows[w] = kept
        cols = {w: bases[key + (w,)] for w in rows if key + (w,) in bases}
        if rows and not cols:  # the top level
            cols = self.level(key, max(rows)) if self.unfold is None else None
        blocks = self.blocks(key, 0, rows, cols)
        if self.unfold is None and self.field.p is None:
            return ((bkey, (integer_rows(block), n))
                    for bkey, (block, n) in blocks)
        return blocks

    def signed_plans(self, key, i):
        """The plans (``_face_plans``) of the faces along axis i out of
        level ``key``, each with its sign."""
        p = key[i]
        low = key[:i] + (p - 1,) + key[i + 1:]
        cells = self.slots[key]
        fmaps = [{c: c[:i] + (face[c[i]],) + c[i + 1:] for c in cells}
                 for face in (self.axes[i].face(p, j) for j in range(p + 1))]
        return [(-1 if j % 2 else 1, plan) for j, plan in enumerate(
            _face_plans(fmaps, cells, self.slots[low], self.basepoints[low]))]

    def blocks(self, key, i, rows, cols):
        """Yield ``(key + (w,), (rows, cols))``, the boundary along axis i
        out of level ``key`` in weight w onto the codes ``rows[w]``, as its
        rows ``{col: scalar}`` and its column count, for each weight of
        ``rows``.  With lookups the block is pulled from its rows, its
        columns numbered as the codes ``cols[w]`` list them, or as the rows
        reach them when ``cols`` is None; otherwise it is pushed from the
        columns ``cols[w]``, decoded with its rows into ``(assignment,
        coeff)`` pairs.  Row and column indexes live for one block."""
        low = key[:i] + (key[i] - 1,) + key[i + 1:]
        cells, bits = self.slots[key], self.bits
        n, n_low = len(cells), len(self.slots[low])
        signed = self.signed_plans(key, i)
        if self.unfold is None:
            pushes = [(sign, self.pusher(plan)) for sign, plan in signed]
            up, down = _decoder(n, bits), _decoder(n_low, bits)
            for w, row_codes in rows.items():
                yield key + (w,), _boundary_block(
                    pushes, [up(x) for x in cols[w]],
                    {down(x): r for r, x in enumerate(row_codes)}, self.field)
            return
        comps = self.complements[key]
        pulls = _pull_faces(signed, n, comps, self.unfold, self.sizes, bits)
        degenerate = tuple((_code([(1 << bits) - 1] * len(comp), comp, bits),
                            _code([self.unit] * len(comp), comp, bits))
                           for comp in comps if len(comp) > 1)
        for w, row_codes in rows.items():
            # the column index is passed, not bound in this frame, so it is
            # freed before the block is ranked: it holds the code of every
            # labeling the block reached
            yield key + (w,), _pull_block(
                pulls, row_codes,
                {} if cols is None
                else dict(zip(cols[w], range(len(cols[w])))),
                self.field, self.unit, bits, n_low, degenerate)


def build_complex(space: PointedSimplicialSet, algebra, coefficients,
                  max_degree: int, weight_bound=None, normalized: bool = True,
                  max_block_size: int | None = None) -> LodayComplex:
    """List the levels 0..max_degree and defer the top level max_degree + 1
    and every boundary block (``LodayComplex``); ``max_block_size`` (default
    ``DEFAULT_MAX_BLOCK``) bounds the number of labelings of all levels, the
    top one included."""
    d = max_degree
    if space.top_level < d + 1:
        raise TruncationTooShallow(
            f"degree {d} homology needs top_level >= {d + 1}, "
            f"got {space.top_level}")
    keys = [(p,) for p in range(d + 2)]
    labelings = _Labelings((space,), keys, algebra, coefficients, d,
                           weight_bound, normalized, max_block_size)
    complex_ = LodayComplex(algebra.field, coefficients.mode, d, weight_bound,
                            labelings.listed(keys[:-1]), None)
    complex_._labelings = labelings
    return complex_


def chain_dims(complex_: LodayComplex) -> dict:
    """Basis sizes per (degree, weight), no rank computation."""
    return {key: len(labs) for key, labs in sorted(complex_.bases.items())}


def homology_dims(complex_: LodayComplex) -> HomologyTable:
    """dim H_n per (degree <= max_degree, weight) block.

    Each weight's boundary blocks are ranked from degree 1 upward, and the
    rank of ``∂_{p+1}`` leaves out the rows that are pivot columns of
    ``∂_p`` (clearing, in the cohomology direction).  Those columns span a
    subspace on which ``∂_p`` is injective, and ``im ∂_{p+1}`` lies in the
    kernel of ``∂_p``, so the two meet only in zero and the rank is
    unchanged.  This relies on ``∂∂ = 0``, which
    ``LodayComplex.check_boundary_squares`` and acceptance criterion 9
    verify.

    While a ``build_complex`` complex defers its assembly, each block is
    built once every block below it is ranked, on its uncleared rows alone,
    and dropped once ranked (``_Labelings.implicit_blocks``); the top level
    d + 1 is read only through the rank of ``∂_{d+1}`` and never listed
    with monomial tables.
    """
    d = complex_.max_degree
    ranks = {}
    cleared = {}
    for (p, w), found in complex_._ranked(cleared):
        ranks[(p, w)] = len(found)
        cleared[(p + 1, w)] = {c for _, c in found}
    dims = {}
    for (p, w), labs in complex_._bases.items():
        if p > d:
            continue
        value = len(labs) - ranks.get((p, w), 0) - ranks.get((p + 1, w), 0)
        if value:
            dims[(p, w)] = value
    return HomologyTable(dims, d, complex_.weight_bound, complex_.coeff_mode,
                         complex_.field)
