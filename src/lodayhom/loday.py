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
sets (its axes) per tuple of levels and sums faces along each axis, and one
complex class, ``LodayComplex``, holds it: ``build_complex`` is one axis,
``oracle.torus_bicomplex`` two circles, both made by ``_over_axes``.  Its
chain complex is the total complex, whose differential twists the faces
along axis i by (-1)^(n_1 + ... + n_{i-1}) (Dold–Puppe); one axis is its
own total complex.  One ceiling bounds the labelings of the whole complex
before any is enumerated.

Face pushforwards read one structure table per complex: every product of
basis elements up to the weight bound and every coefficient action
c . action(a), as (basis index, scalar) pairs.  A complex lists total
degrees 0..d, and ``homology_dims`` builds each block of the total
differential when it ranks it, on the rows that clearing leaves (Ripser's
implicit matrix with clearing; Bauer, J. Appl. Comput. Topol. 2021).  That
is the only way a complex is ranked.

A labeling is one packed int from enumeration to elimination: each slot's
label in a fixed number of bits and the coefficient above the last slot
(``_pull_faces``).  Every block, whatever the tables, is pulled from its
rows by ``_pull_block``: it inverts the tables (``_factorizations``), reads
each row's labels by shift and mask, and numbers its columns as their level
lists them, or as the rows reach them on the top total degree d + 1, which
is never listed.  An entry with several terms or a scalar other than one
gives a face more per scalar, its sign times that scalar.  The block is its
rows, ``{column: scalar}`` dicts, which ``exactlinalg.row_pivots``
eliminates in place; over Q the pulled sums stay ints, unless some table
scalar is no integer, and then the rows are scaled to ints
(``exactlinalg.integer_rows``) before they are ranked.  ``Labeling`` tuples
and ``SparseMatrix`` blocks are made only where a complex is read eagerly
(``_Labelings.build``): by the first read of its cached views ``.terms``,
``.axis_boundaries``, ``.bases`` or ``.boundaries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb, prod
from typing import NamedTuple

from .exactlinalg import FieldSpec, SparseMatrix, integer_rows, row_pivots
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


def _normalized_counts(counts, key):
    """The number of non-degenerate labelings of level ``key`` per total
    weight, from the unnormalized counts ``counts`` (``_block_counts``) of
    the levels at or below ``key`` on every axis, keyed by level.

    The labelings span a multisimplicial vector space graded by weight, one
    simplicial direction per axis.  By Dold–Kan along each axis, level
    ``key`` is the sum of prod_i C(key_i, sub_i) copies of normalized level
    ``sub``, one per tuple of surjections [key_i] -> [sub_i], so binomial
    inversion gives N_key = sum over sub <= key of
    prod_i (-1)^(key_i - sub_i) C(key_i, sub_i) U_sub, weight by weight.
    """
    total = [0] * len(counts[key])
    for sub in product(*(range(p + 1) for p in key)):
        factor = 1
        for p, j in zip(key, sub):
            factor *= (-1) ** (p - j) * comb(p, j)
        for w, u in enumerate(counts[sub]):
            total[w] += factor * u
    return total


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
    """Blockwise chain data for one space/algebra/coefficient configuration:
    the total complex of the labelings over the axes of a ``_Labelings``,
    keyed (degree, weight).

    ``build_complex`` (one axis) and ``oracle.torus_bicomplex`` (two
    circles) make it through one constructor (``_over_axes``), which lists
    the levels of total degree 0..max_degree as packed codes, keyed
    ``level + (w,)``, and assembles no block.  The complex keeps those codes
    and its ``_Labelings`` (cells, labeling counts, degeneracy complements
    and structure tables with their factorizations) for its whole life, and
    takes its field, coefficient mode, degree and weight bound from them.
    ``homology_dims`` ranks it one way: each block of the total differential
    is pulled from its uncleared rows (``_Labelings.implicit_blocks``) and
    max_degree + 1 is never listed.

    The eager views are cached reads, made once on first read; they never
    change how the complex is ranked.  ``terms`` and ``axis_boundaries``
    list the levels of total degree max_degree + 1, assemble every block
    onto all its rows, one dict per axis keyed like its columns, and decode
    the levels into ``Labeling`` tuples keyed ``level + (w,)``; ``bases``
    and ``boundaries`` totalize them (``_totalize``).  For one axis
    ``terms`` is ``bases``.
    """

    def __init__(self, labelings, codes):
        self._labelings = labelings
        self._codes = codes  # level + (w,) -> packed codes, degrees 0..d
        self.field = labelings.field
        self.coeff_mode = labelings.coeff_mode
        self.max_degree = labelings.max_degree
        self.weight_bound = labelings.weight_bound

    @cached_property
    def _assembled(self):
        labelings = self._labelings
        return labelings.build(labelings.summands(self.max_degree + 1),
                               self._codes)

    @property
    def terms(self) -> dict:
        return self._assembled[0]

    @property
    def axis_boundaries(self) -> tuple:
        return self._assembled[1]

    @cached_property
    def _total(self):
        return _totalize(self.terms, self.axis_boundaries, self.field,
                         self.max_degree + 1)

    @property
    def bases(self) -> dict:
        return self._total[0]

    @property
    def boundaries(self) -> dict:
        return self._total[1]

    def _ranked(self, cleared):
        """The pivots of every block of the total differential,
        ``((degree, weight), pivots)`` in key order, each block built on
        the rows that ``cleared`` does not hold for it once the previous
        ones are ranked, and its rows handed to ``row_pivots`` as they were
        built."""
        for k in range(1, self.max_degree + 2):
            for key, (rows, cols) in self._labelings.implicit_blocks(
                    k, self._codes, cleared):
                yield key, row_pivots(rows, cols, self.field)

    def check_boundary_squares(self):
        """Verify boundary . boundary = 0 on every composable block pair.
        On several axes the square of the total differential sums the
        squares of each axis's blocks and the signed commutators of every
        two axes, which land in different summands, so it vanishes exactly
        when each axis squares to zero and every two axes commute."""
        violations = []
        for (p, w), mat in sorted(self.boundaries.items()):
            nxt = self.boundaries.get((p + 1, w))
            if nxt is None:
                continue
            if not mat.matmul(nxt).is_zero:
                violations.append((p, w))
        return violations


def _totalize(bases, boundaries, field, top):
    """The total complex through degree ``top`` of the levels ``bases``,
    keyed ``level + (w,)`` over some axes, and of the blocks
    ``boundaries``, one dict per axis keyed like their columns: its bases
    and boundaries, keyed (degree, weight).

    The summands of total degree k are stacked in level order, and the
    block along axis i out of a level is twisted by the sign
    (-1)^(level[0] + ... + level[i - 1]) (Dold–Puppe), so one axis is its
    own total complex.
    """
    if len(boundaries) == 1:
        return bases, boundaries[0]
    total, offsets = {}, {}
    for key in sorted(bases):
        chains = total.setdefault((sum(key[:-1]), key[-1]), [])
        offsets[key] = len(chains)
        chains.extend(bases[key])
    weights = sorted({w for _, w in total})
    entries = {(k, w): {} for k in range(1, top + 1) for w in weights}
    for i, blocks in enumerate(boundaries):
        for key, mat in blocks.items():
            low = key[:i] + (key[i] - 1,) + key[i + 1:]
            row0, col0 = offsets.get(low, 0), offsets.get(key, 0)
            twisted = sum(key[:i]) % 2
            block = entries[(sum(key[:-1]), key[-1])]
            for (r, c), v in mat.entries.items():
                block[(row0 + r, col0 + c)] = field.neg(v) if twisted else v
    return total, {
        (k, w): SparseMatrix._trusted(len(total.get((k - 1, w), ())),
                                      len(total.get((k, w), ())), block, field)
        for (k, w), block in entries.items()}


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


def _matrix(block, field):
    """The ``SparseMatrix`` of a block given as its rows and column count;
    over Q its int scalars become ``Fraction``s."""
    rows, cols = block
    scalar = Fraction if field.p is None else int
    return SparseMatrix._trusted(
        len(rows), cols, {(r, c): scalar(v) for r, row in enumerate(rows)
                          for c, v in row.items()}, field)


def _exact(v):
    """The scalar v, as an int when it is one."""
    return v.numerator if v.denominator == 1 else v


def _factorizations(tables, unit, p):
    """Memoized inverses of the structure tables ``tables``
    (``_structure_tables``) over F_p, or over Q when p is None.

    ``unfold(kind, z, k, banned)`` lists the tuples ``(x0, y1, ..., yk)``
    whose chained product ``(x0 . y1) ... . yk`` in table ``kind`` has a
    nonzero coefficient on z, grouped by that coefficient as a dict
    ``{scalar: tuples}``.  In the products (kind 0) that is the product of
    k + 1 labels, folded from the left as a face merges them; in the actions
    (kind 1), x0 is a coefficient and the labels y act on it.  A tuple's
    coefficient is summed over the intermediate basis elements of its chain
    and reduced mod p (an int over Q when it is one), and a tuple whose sum
    is zero is left out; where every entry is zero or one basis element with
    scalar one, every tuple has the scalar 1.  It leaves out the tuples with
    the unit at a position i whose bit ``1 << i`` is set in ``banned``; bit
    0 of an action tuple, its coefficient, is never set.
    """
    inverses = []
    for table in tables:
        inverse = {}
        for x, row in enumerate(table):
            for y, terms in enumerate(row):
                for z, s in terms:
                    inverse.setdefault(z, []).append((x, y, _exact(s)))
        inverses.append(inverse)
    memo = {}

    def unfold(kind, z, k, banned):
        key = (kind, z, k, banned)
        groups = memo.get(key)
        if groups is None:
            if k == 0:
                groups = {} if banned & 1 and z == unit else {1: ((z,),)}
            else:
                bit = 1 << k
                sums = {}
                for x, y, s in inverses[kind].get(z, ()):
                    if not (banned & bit and y == unit):
                        for r, tuples in unfold(kind, x, k - 1,
                                                banned & ~bit).items():
                            for t in tuples:
                                t += (y,)
                                sums[t] = sums.get(t, 0) + r * s
                groups = {}
                for t, s in sums.items():
                    s = s % p if p else _exact(s)
                    if s:
                        groups.setdefault(s, []).append(t)
                groups = {s: tuple(ts) for s, ts in groups.items()}
            memo[key] = groups
        return groups

    return unfold


def _by_scalar(rows, place):
    """One offset table per scalar of ``rows``, the ``unfold`` results of
    consecutive indexes, as pairs ``(s, table)`` in the order the scalars
    are first met: ``table[i]`` holds the codes ``place(t)`` of the tuples t
    of scalar s in ``rows[i]``, and is () where there are none."""
    tables = {}
    for i, groups in enumerate(rows):
        for s, tuples in groups.items():
            if s not in tables:
                tables[s] = [()] * len(rows)
            tables[s][i] = tuple(map(place, tuples))
    return [(s, tuple(table)) for s, table in tables.items()]


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
      code per tuple of labels whose product has that label as a term
      (``unfold`` of the products, ``_factorizations``), placed on the
      slot's preimages;
    - the final offsets ``final[x][c]``, read at the shift ``last`` of the
      last merged slot's digit under ``fmask``: every split offset of the
      label x there plus every cosplit offset of the row coefficient c, in
      that nesting.  A cosplit offset is one code per coefficient and tuple
      of labels acting on it with c as a term (``unfold`` of the actions),
      placed above the last slot and on the slots that fall into the
      basepoint.  A face with no merged slot has ``final = (cosplits,)``
      and ``fmask`` zero.

    Every offset comes with the scalar of its tuple, which the kernel never
    reads: a plan gives one face per choice of a scalar for each merged slot
    and one for the cosplits, which keeps only the offsets of the chosen
    scalars and multiplies them into the plan's sign.  A scalar no offset
    carries is never chosen, so a plan none of whose tables holds an offset
    gives no face, and where every scalar is 1 each other plan is one face.

    Every low slot has a preimage, as the faces of a simplicial set are
    onto (``d_j s_j = id``).  A cell that is the only one outside the image
    of some degeneracy in ``complements`` makes a labeling degenerate when
    it holds the unit, so the tables leave its unit out of the merged and
    acting labels.  Where such a lone cell is the one preimage of a low
    slot, no test is needed: by the simplicial identities that slot is then
    the only cell outside the image of a degeneracy one level down, so a row
    holding the unit there is degenerate and never listed.  ``sizes`` are
    the numbers of labels and of coefficients the tables index.
    """
    lone = {comp[0] for comp in complements if len(comp) == 1}
    n_labels, n_coeffs = sizes
    digit = (1 << bits) - 1
    top = n_slots * bits
    faces = []
    for sign, (pre, to_base) in signed_plans:
        runs = {}  # shift -> mask of the row digits it moves
        for r, srcs in enumerate(pre):
            if len(srcs) == 1:
                shift = (srcs[0] - r) * bits
                runs[shift] = runs.get(shift, 0) | digit << r * bits
        moved = tuple((mask, max(shift, 0), max(-shift, 0))
                      for shift, mask in runs.items())
        shifts, merges = [], []
        for r, srcs in enumerate(pre):
            if len(srcs) > 1:
                banned = sum(1 << i for i, q in enumerate(srcs) if q in lone)
                shifts.append(r * bits)
                merges.append(_by_scalar(
                    [unfold(0, x, len(srcs) - 1, banned)
                     for x in range(n_labels)],
                    lambda t: _code(t, srcs, bits)))
        banned = sum(2 << i for i, q in enumerate(to_base) if q in lone)
        cosplits = _by_scalar(
            [unfold(1, c, len(to_base), banned) for c in range(n_coeffs)],
            lambda t: t[0] << top | _code(t[1:], to_base, bits))
        for choice in product(*merges, cosplits):
            scale = _exact(sign * prod(s for s, _ in choice))
            *splits, cos = [table for _, table in choice]
            if splits:
                last, fmask = shifts[-1], digit
                final = tuple(tuple(tuple(m + o for m in ms for o in os)
                                    for os in cos) for ms in splits.pop())
            else:
                last, fmask, final = 0, 0, (cos,)
            faces.append((scale, moved, tuple(zip(shifts, splits)),
                          last, fmask, final))
    return faces


def _pull_block(faces, rows, col_index, field, bits, n_low, degenerate, out,
                start):
    """The signed face sum from the labelings of ``col_index`` to the
    labelings ``rows`` of ``n_low`` slots, added to their row dicts ``out``
    (one per row) and built row by row from the preimages of each row along
    each face, whatever the structure tables; returns ``out`` and the end of
    the columns.

    Rows and columns are packed codes (``_pull_faces``), and a row's labels
    and coefficient are read off its code by shift and mask.  Per face, a
    row's final offsets are read first, by the label of the last merged slot
    and the coefficient, and the face is skipped when there are none.
    Otherwise its preimages are its moved runs plus every sum of one split
    offset per earlier merged slot and one final offset, listed in that
    order.  The signs reaching one preimage are summed per row, and
    each distinct preimage of the row costs one int-keyed lookup in
    ``col_index``.  A preimage missing there is numbered
    ``start + len(col_index)`` in the order the rows first reach it, unless
    it is degenerate: the tables keep the unit off a lone complement, and
    ``degenerate`` holds per complement of several slots the pairs
    ``(mask, unit_pattern)`` of its digits and of the unit on all of them,
    so ``code & mask == unit_pattern`` marks the labeling degenerate.  So
    ``col_index`` may hold every column, numbered from ``start``, or start
    empty, and pulls along several faces into one level may share it.  The
    sums are reduced ``% p`` over F_p; over Q they stay ints, which
    elimination takes as they are, unless a table scalar is no integer and
    its faces' signs are ``Fraction``s."""
    p = field.p
    get = col_index.get
    digit = (1 << bits) - 1
    top = n_low * bits
    for code, row in zip(rows, out):
        c = code >> top
        acc = {}
        for sign, runs, merges, last, fmask, final in faces:
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
        for y, t in acc.items():
            col = get(y)
            if col is None:
                for m, u in degenerate:
                    if y & m == u:
                        break
                else:
                    col = col_index[y] = start + len(col_index)
                if col is None:
                    continue
            if p:
                t %= p
            if t:
                row[col] = t
    return out, start + len(col_index)


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
        self.coeff_mode, self.max_degree = coefficients.mode, d
        self.weight_bound = weight_bound
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
        self.unfold = _factorizations(tables, self.unit, self.field.p)
        # over Q a scalar that is no integer leaves Fractions in pulled rows
        self.fractional = self.field.p is None and any(
            v.denominator != 1 for table in tables for row in table
            for terms in row for _, v in terms)

    def level(self, key):
        """The packed codes of the labelings of level ``key`` per weight."""
        return _enumerate_block_bases(
            self.algebra, self.c_alg, len(self.slots[key]), self.bound,
            self.bits, self.complements[key])

    def summands(self, k):
        """The levels of total degree k, in key order."""
        return sorted(key for key in self.slots if sum(key) == k)

    def listed(self, keys):
        """The codes of the labelings of the levels ``keys``, keyed
        ``key + (w,)``."""
        return {key + (w,): codes
                for key in keys for w, codes in self.level(key).items()}

    def build(self, keys, bases):
        """The bases of every level, those of ``keys`` listed and added to
        the codes ``bases``, which are left as they are, and every boundary
        block assembled onto all its rows, one dict per axis; each basis is
        decoded into ``Labeling`` tuples once its blocks are built."""
        bases = {**bases, **self.listed(keys)}
        boundaries = tuple({} for _ in self.axes)
        for key in self.slots:
            cols = {w: bases[key + (w,)] for w in range(self.bound + 1)
                    if key + (w,) in bases}
            for i, p in enumerate(key):
                if p:
                    low = _lowered(key, i)
                    rows = {w: bases.get(low + (w,), ()) for w in cols}
                    boundaries[i].update(
                        (bkey, _matrix(block, self.field))
                        for bkey, block in self.blocks(key, i, rows, cols))
        decoded = {}
        for bkey, codes in bases.items():
            decode = _decoder(len(self.slots[bkey[:-1]]), self.bits)
            decoded[bkey] = [Labeling(*decode(x)) for x in codes]
        return decoded, boundaries

    def implicit_blocks(self, k, bases, cleared):
        """The blocks of the total differential out of total degree k, one
        per weight w and keyed (k, w), each onto its rows in the codes
        ``bases`` outside the set it pops from ``cleared`` (block key ->
        indices of rows that are pivot columns of the block below, which
        cannot change its rank).

        The levels of total degree k (``summands``) are stacked in key order
        as its columns, those of k - 1 as its rows, and the faces along axis
        i out of a level carry the sign (-1)^(level[0] + ... + level[i - 1])
        (Dold–Puppe, the twist of ``_totalize``), so one axis is one summand
        with sign +1.  Each kernel is built once per level and axis
        (``_filler``).  A weight yields no block when no row is left or its
        exact count is zero: ``counts`` summed over the summands, or on a
        normalized complex their Dold–Kan inversion (``_normalized_counts``),
        which is zero wherever a degeneracy complement is empty.  Listed
        levels keep their column numbering, so the pivot columns of a block
        index the rows of the next.  The top total degree is never listed:
        each of its levels numbers the columns that its rows reach along any
        axis, after the columns of the levels before it, and the unreached
        ones are zero columns.  Over Q, rows pulled along a table scalar
        that is no integer hold ``Fraction``s, which are scaled to ints
        (``exactlinalg.integer_rows``) for elimination."""
        summands, lows = self.summands(k), self.summands(k - 1)
        counts = [sum(column) for column in zip(*(
            _normalized_counts(self.counts, key) if self.complements[key]
            else self.counts[key] for key in summands))]
        rows = {}
        for w, n in enumerate(counts):
            skip = cleared.pop((k, w), ())
            kept, first = {}, 0
            for low in lows:
                codes = bases.get(low + (w,), ())
                kept[low] = [x for r, x in enumerate(codes, first)
                             if r not in skip]
                first += len(codes)
            if n and any(kept.values()):
                rows[w] = kept
        if not rows:
            return ()
        cols = bases if k < max(map(sum, self.slots)) else None
        fills = [(key, [(_lowered(key, i),
                         self._filler(key, i, (-1) ** sum(key[:i])))
                        for i, p in enumerate(key) if p])
                 for key in summands]
        blocks = (((k, w), self._total_block(fills, kept, cols, w))
                  for w, kept in rows.items())
        if self.fractional:
            return ((bkey, (integer_rows(block), n))
                    for bkey, (block, n) in blocks)
        return blocks

    def _total_block(self, fills, kept, cols, w):
        """The block of weight w of ``implicit_blocks``: the row dicts of
        the codes ``kept`` of each level, stacked, filled by the kernels
        ``fills`` of each column level, and its column count.  The column
        indexes live in this frame, so they are freed before the block is
        ranked: the top's hold the code of every labeling the block
        reached."""
        out, first = [], {}
        for low, codes in kept.items():
            first[low] = len(out)
            out.extend({} for _ in codes)
        start = 0
        for key, axis_fills in fills:
            columns = self._columns(
                None if cols is None else cols.get(key + (w,), ()), start)
            for low, fill in axis_fills:
                codes = kept[low]
                if codes:
                    fill(codes, columns,
                         out[first[low]:first[low] + len(codes)], start)
            start += len(columns)
        return out, start

    def signed_plans(self, key, i):
        """The plans (``_face_plans``) of the faces along axis i out of
        level ``key``, each with its sign."""
        p = key[i]
        low = _lowered(key, i)
        cells = self.slots[key]
        fmaps = [{c: c[:i] + (face[c[i]],) + c[i + 1:] for c in cells}
                 for face in (self.axes[i].face(p, j) for j in range(p + 1))]
        return [(-1 if j % 2 else 1, plan) for j, plan in enumerate(
            _face_plans(fmaps, cells, self.slots[low], self.basepoints[low]))]

    def _columns(self, codes, start):
        """What a kernel (``_filler``) reads of the columns of one level: an
        index from each of the codes ``codes`` to its number from ``start``,
        or an empty one when ``codes`` is None and the rows number the
        columns they reach."""
        if codes is None:
            return {}
        return dict(zip(codes, range(start, start + len(codes))))

    def _filler(self, key, i, twist):
        """The kernel of the blocks along axis i out of level ``key``, each
        face's sign times ``twist``: a function ``fill(rows, columns, out,
        start)`` that adds the block onto the codes ``rows`` to their row
        dicts ``out``, its columns numbered from ``start`` as ``columns``
        (``_columns``) gives them, and returns ``out`` and the end of its
        columns.  The block is pulled from its rows (``_pull_block``)."""
        n, n_low = len(self.slots[key]), len(self.slots[_lowered(key, i)])
        bits, field = self.bits, self.field
        signed = [(twist * sign, plan)
                  for sign, plan in self.signed_plans(key, i)]
        comps = self.complements[key]
        faces = _pull_faces(signed, n, comps, self.unfold, self.sizes, bits)
        degenerate = tuple((_code([(1 << bits) - 1] * len(comp), comp, bits),
                            _code([self.unit] * len(comp), comp, bits))
                           for comp in comps if len(comp) > 1)

        def pull(rows, columns, out, start):
            return _pull_block(faces, rows, columns, field, bits, n_low,
                               degenerate, out, start)
        return pull

    def blocks(self, key, i, rows, cols):
        """Yield ``(key + (w,), (rows, cols))``, the boundary along axis i
        out of level ``key`` in weight w onto the codes ``rows[w]``, as its
        rows ``{col: scalar}`` and its column count, for each weight of
        ``rows``; its columns are numbered as the codes ``cols[w]`` list
        them, or as the rows reach them when ``cols`` is None."""
        fill = self._filler(key, i, 1)
        for w, row_codes in rows.items():
            # the column index is passed, not bound in this frame, so it is
            # freed before the block is ranked
            yield key + (w,), fill(
                row_codes, self._columns(None if cols is None else cols[w], 0),
                [{} for _ in row_codes], 0)


def _lowered(key, i):
    """The level ``key`` one lower on axis i."""
    return key[:i] + (key[i] - 1,) + key[i + 1:]


def _over_axes(axes, algebra, coefficients, d, weight_bound, normalized,
               max_block_size) -> LodayComplex:
    """The complex of the labelings over the product of ``axes`` through
    total degree d + 1: the levels of total degree 0..d listed, those of
    d + 1 and every boundary block deferred (``LodayComplex``)."""
    keys = [key for key in product(range(d + 2), repeat=len(axes))
            if sum(key) <= d + 1]
    labelings = _Labelings(axes, keys, algebra, coefficients, d, weight_bound,
                           normalized, max_block_size)
    return LodayComplex(labelings, labelings.listed(
        [key for key in keys if sum(key) <= d]))


def build_complex(space: PointedSimplicialSet, algebra, coefficients,
                  max_degree: int, weight_bound=None, normalized: bool = True,
                  max_block_size: int | None = None) -> LodayComplex:
    """List the levels 0..max_degree and defer the top level max_degree + 1
    and every boundary block (``LodayComplex``); ``max_block_size`` (default
    ``DEFAULT_MAX_BLOCK``) bounds the number of labelings of all levels, the
    top one included."""
    if space.top_level < max_degree + 1:
        raise TruncationTooShallow(
            f"degree {max_degree} homology needs top_level >= "
            f"{max_degree + 1}, got {space.top_level}")
    return _over_axes((space,), algebra, coefficients, max_degree,
                      weight_bound, normalized, max_block_size)


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

    Each block is built once every block below it is ranked, on its
    uncleared rows alone, and dropped once ranked
    (``_Labelings.implicit_blocks``), whether or not the complex was read
    eagerly; the top total degree d + 1 is read only through the rank of
    ``∂_{d+1}`` and never listed.  The listed codes are keyed by level and
    weight, and their sizes are summed per total degree.
    """
    ranks = {}
    cleared = {}
    for (p, w), found in complex_._ranked(cleared):
        ranks[(p, w)] = len(found)
        cleared[(p + 1, w)] = {c for _, c in found}
    sizes = {}  # (total degree, weight) -> basis size
    for key, codes in complex_._codes.items():
        total = (sum(key[:-1]), key[-1])
        sizes[total] = sizes.get(total, 0) + len(codes)
    dims = {}
    for (p, w), n in sizes.items():
        value = n - ranks.get((p, w), 0) - ranks.get((p + 1, w), 0)
        if value:
            dims[(p, w)] = value
    return HomologyTable(dims, complex_.max_degree, complex_.weight_bound,
                         complex_.coeff_mode, complex_.field)
