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

One class, ``LodayComplex``, is the evaluator: it labels the cells of a
product of simplicial sets (its axes) per tuple of levels and sums faces
along each axis.  ``build_complex`` is one axis, ``oracle.torus_bicomplex``
two circles and the product check of ``stability`` the two factors, all
through its one constructor.
Its chain complex is the total complex, whose differential twists the faces
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
each row's labels by shift and mask, and numbers its columns as its rows
first reach them; the top total degree d + 1 is never listed.  An entry
with several terms or a scalar other than one gives a face more per
scalar, its sign times that scalar.  The block is its rows, in listing
order, as ``{column: scalar}`` dicts, which ``exactlinalg.row_pivots``
eliminates in place, leading each row by its largest column: so a row that
reaches a column no earlier row reached pivots there on sight, with no
update.  Over Q the pulled sums stay ints, unless some table scalar is no
integer, and then the rows are scaled to ints
(``exactlinalg.integer_rows``) before they are ranked.  The eager views
``.terms``, ``.bases`` and ``.boundaries`` and the square audit
``check_boundary_squares`` read the same kernel, with each level's columns
numbered as it lists them: they list the top total degree and pull every
block onto all its rows.  Only ``.boundaries`` makes
``SparseMatrix`` blocks.  ``chain_dims`` lists nothing: it sums the exact
counts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb, prod

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


def _block_counts(algebra, c_alg, n_slots, bound, fewer=None):
    """Numbers of labelings per total weight 0..bound, computed before
    enumeration: the weight multiplicities (basis elements per weight) of
    n_slots copies of A and one of C convolved.

    ``fewer``, when given, is ``(m, counts)``: the counts of m <= n_slots
    slots, onto which only the n_slots - m copies of A they lack are
    convolved.  ``LodayComplex`` passes each level the counts of the level
    with the next fewer slots, so a level with one slot more than another
    costs one convolution."""
    if fewer is None:
        fewer = 0, [len(c_alg.indices_of_weight(w)) for w in range(bound + 1)]
    m, counts = fewer
    a_mult = [len(algebra.indices_of_weight(w)) for w in range(bound + 1)]
    for _ in range(n_slots - m):
        nxt = [0] * (bound + 1)
        for w, c in enumerate(counts):
            if c:
                for dw, k in enumerate(a_mult[:bound + 1 - w]):
                    nxt[w + dw] += c * k
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

    ``complements`` (normalized complexes) holds per degeneracy the slot
    positions outside its image, in increasing order; an assignment that is
    the unit on all of one is degenerate.  A lone complement's slot never
    takes the unit, and the last slot of a complement of several slots
    takes it only where the prefix is not the unit on all the complement's
    earlier positions (its digits there, under a mask, are not the
    unit's), so degenerate labelings are never built.

    The walk fills one slot at a time, over two parallel lists of the
    prefixes so far in lexicographic order: their codes and their rooms.
    A room is the weight left over the least that the slots still to fill
    must take (the lightest label other than the unit on each lone slot,
    and the lightest coefficient), so every prefix completes.  Each prefix
    grows, in index order, by the labels its room fits, read off a list per
    room made once per call for each kind of slot that needs it: any label,
    any label but the unit, or a lone slot's label.  The coefficient is the
    last slot, and each code is then sorted into its weight's list in walk
    order.
    """
    if not all(complements):
        return {}
    unit = algebra.unit
    digit = (1 << bits) - 1
    lone = {comp[0] for comp in complements if len(comp) == 1}
    closers = [[] for _ in range(n_slots)]  # (mask, unit digits) per slot
    for comp in complements:
        if len(comp) > 1:
            *rest, last = comp
            closers[last].append((_code([digit] * len(rest), rest, bits),
                                  _code([unit] * len(rest), rest, bits)))
    labels = [(i, algebra.weight(i)) for i in algebra.basis_indices(bound)]
    others = [(i, w) for i, w in labels if i != unit]
    floor = min((w for _, w in others), default=0)
    coeffs = [(c, c_alg.weight(c)) for c in c_alg.basis_indices(bound)]
    c_floor = min(w for _, w in coeffs)
    start = bound - c_floor - floor * len(lone)
    if start < 0:
        return {}
    made = {}

    def by_room(pairs, least):
        # per room r, the labels of ``pairs`` that a slot whose least
        # weight is ``least`` fits, and the room each leaves
        key = (pairs is labels, least)
        if key not in made:
            made[key] = [([i for i, w in pairs if w - least <= r],
                          [r - w + least for _, w in pairs if w - least <= r])
                         for r in range(start + 1)]
        return made[key]

    codes, rooms = [0], [start]
    for q in range(n_slots):
        shift, closing = q * bits, closers[q]
        if q in lone:
            fits, closing = by_room(others, floor), ()
        else:
            fits = by_room(labels, 0)
        grown, left = [], []
        if closing:
            closed = by_room(others, 0)
            for code, r in zip(codes, rooms):
                xs, rs = (closed if any(code & m == u for m, u in closing)
                          else fits)[r]
                grown += [code | x << shift for x in xs]
                left += rs
        else:
            for code, r in zip(codes, rooms):
                xs, rs = fits[r]
                grown += [code | x << shift for x in xs]
                left += rs
        codes, rooms = grown, left
    # the coefficient: a room r ends at weight bound - r
    top = n_slots * bits
    coeff_fits = [[(c << top, r - w + c_floor) for c, w in coeffs
                   if w - c_floor <= r] for r in range(start + 1)]
    buckets = [[] for _ in range(bound + 1)]  # by room, bound - weight
    put = [bucket.append for bucket in buckets]
    for code, r in zip(codes, rooms):
        for c, end in coeff_fits[r]:
            put[end](code | c)
    return {bound - r: buckets[r] for r in reversed(range(bound + 1))
            if buckets[r]}


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


def _pull_faces(signed_plans, n_slots, complements, unfold, sizes, bits,
                tables):
    """Per signed face plan, what ``_pull_block`` reads to list the preimages
    of a row as packed codes.

    A labeling ``(a, c)`` of ``n_slots`` slots is coded as one int: label
    ``a[q]`` in the ``bits`` bits at shift ``q * bits`` and the coefficient
    c above the last slot, at shift ``n_slots * bits``; a row is coded the
    same way over its own slots.  Along a face, a preimage's code is the sum
    of three parts, each read off a table:

    - the labels of the low slots with one preimage, moved straight out of
      the row's code as runs ``(mask, up, down)``: the row digits under
      ``mask``, shifted left by ``up`` and right by ``down`` onto their
      source slots;
    - per merged low slot but the last, at the shift of its digit in the
      row's code, its split offsets indexed by the row's label there: one
      code per tuple of labels whose product has that label as a term
      (``unfold`` of the products, ``_factorizations``), placed on the
      slot's preimages.  Their sums depend on those labels alone, so each
      face carries ``mask``, the digits of these slots, and an empty dict
      ``memo`` in which ``_pull_block`` keeps the sums per ``code & mask``;
      the memo lives as long as the face list, which a kernel keeps for
      every weight of its level (``LodayComplex._filler``);
    - the final offsets ``final[x][c]``, read at the shift ``last`` of the
      last merged slot's digit under ``fmask``: every split offset of the
      label x there plus every cosplit offset of the row coefficient c, in
      that nesting.  A cosplit offset is one code per coefficient and tuple
      of labels acting on it with c as a term (``unfold`` of the actions),
      placed above the last slot and on the slots that fall into the
      basepoint.  A face with no merged slot has ``final = (cosplits,)``
      and ``fmask`` zero; one with at most one has ``mask`` zero and its
      memo stays empty.

    A face is ``(sign, moved, merges, mask, memo, last, fmask, final)``,
    ``merges`` pairing the shift of each merged slot but the last with its
    split offsets.

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

    The split, cosplit and final tables are read from ``tables``, a dict
    the complex keeps for its whole life (``LodayComplex.face_tables``),
    and built there on first use, so faces that merge the same cells, on
    one level or several, share them.  A key names what its table is built
    from: ``("split", srcs, banned)`` by the positions of the merged cells
    and the bits of the ones whose unit is banned; ``("cosplit", to_base,
    banned, top)`` by the positions sent to the basepoint, their banned
    bits and the coefficient's shift ``top``, which is None where C has one
    basis element, as every coefficient is then placed as ``0 << top``;
    and ``("final", split, s, cos, t)`` by the key and scalar of the split
    table it combines and the cosplit offsets ``cos`` of scalar t
    themselves.  So with one coefficient a final depends on no level, and
    every level whose faces merge the same cells shares it (the inner
    faces of the circle with unit coefficients, on every level above
    them), even where they send different cells to the basepoint but place
    the same cosplit offsets; with a larger C each level keeps its own.
    The dict holds the ``_by_scalar`` lists of the first two kinds and the
    final tables; the memos stay per face.
    """
    lone = {comp[0] for comp in complements if len(comp) == 1}
    n_labels, n_coeffs = sizes
    digit = (1 << bits) - 1
    top = n_slots * bits

    def placed(key, build):
        if key not in tables:
            tables[key] = build()
        return tables[key]

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
                split_key = ("split", srcs, banned)  # the final reads the last
                merges.append(placed(split_key, lambda: _by_scalar(
                    [unfold(0, x, len(srcs) - 1, banned)
                     for x in range(n_labels)],
                    lambda t: _code(t, srcs, bits))))
        banned = sum(2 << i for i, q in enumerate(to_base) if q in lone)
        cos_key = ("cosplit", to_base, banned, top if n_coeffs > 1 else None)
        cosplits = placed(cos_key, lambda: _by_scalar(
            [unfold(1, c, len(to_base), banned) for c in range(n_coeffs)],
            lambda t: t[0] << top | _code(t[1:], to_base, bits)))
        # the digits of the merged slots but the last, which key the memo
        mask = sum(digit << shift for shift in shifts[:-1])
        for choice in product(*merges, cosplits):
            scalars, (*splits, cos) = zip(*choice)
            scale = _exact(sign * prod(scalars))
            if splits:
                last, fmask = shifts[-1], digit
                ends = splits.pop()
                final = placed(
                    ("final", split_key, scalars[-2], cos, scalars[-1]),
                    lambda: tuple(tuple(tuple(m + o for m in ms for o in os)
                                        for os in cos) for ms in ends))
            else:
                last, fmask, final = 0, 0, (cos,)
            faces.append((scale, moved, tuple(zip(shifts, splits)), mask, {},
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
    order.  The sums of the split offsets are read from the face's memo by
    the row's digits in those slots, and built only when they are missing
    there.  Each preimage goes straight into the row in one pass: its code
    costs one int-keyed lookup in ``col_index``, and a known column adds the
    face's sign to the row's entry there.  A preimage missing there takes
    the next column number, counted on from ``start + len(col_index)``, in
    the order the rows first reach it, and its entry is the sign, unless it
    is degenerate: the tables keep the unit off a lone complement, and
    ``degenerate`` holds per complement of several slots the pairs ``(mask,
    unit_pattern)`` of its digits and of the unit on all of them, so ``code
    & mask == unit_pattern`` marks the labeling degenerate.  So
    ``col_index`` may hold every column, numbered from ``start``, or start
    empty, and pulls along several faces into one level may share it.

    The signs are reduced ``% p`` once per call over F_p; over Q they stay
    ints, which elimination takes as they are, unless a table scalar is no
    integer and its faces' signs are ``Fraction``s.  Only a row that reaches
    some column twice holds a sum of several signs, which may be p or more,
    or zero: the preimages placed in each row are counted, and only a row
    whose dict grew by fewer entries than that count has its entries
    reduced and its zeros dropped, keeping their order.  A dict in ``out``
    may already hold the columns of other pulls into the same rows,
    numbered apart from these, and keeps them."""
    p = field.p
    if p:
        faces = [(sign % p, *face) for sign, *face in faces]
    get = col_index.get
    digit = (1 << bits) - 1
    top = n_low * bits
    end = start + len(col_index)
    no_splits = (0,)
    for code, row in zip(rows, out):
        c = code >> top
        size, placed = len(row), 0
        for sign, runs, merges, mask, memo, last, fmask, final in faces:
            offsets = final[code >> last & fmask][c]
            if not offsets:
                continue
            base = 0
            for m, up, down in runs:
                base |= (code & m) << up >> down
            if merges:
                key = code & mask
                sums = memo.get(key)
                if sums is None:
                    sums = no_splits
                    for shift, splits in merges:
                        sums = [x + o for x in sums
                                for o in splits[code >> shift & digit]]
                    sums = memo[key] = tuple(sums)
            else:
                sums = no_splits
            placed += len(sums) * len(offsets)
            for x in sums:
                x += base
                for o in offsets:
                    y = x + o
                    col = get(y)
                    if col is not None:
                        row[col] = row.get(col, 0) + sign
                        continue
                    for m, u in degenerate:
                        if y & m == u:
                            placed -= 1
                            break
                    else:
                        col_index[y] = end
                        row[end] = sign
                        end += 1
        if len(row) - size < placed:
            # some column was reached twice: reduce every sum and drop the
            # zeros, rebuilding the dict so that it stays compact
            entries = list(row.items())
            row.clear()
            for col, t in entries:
                if p:
                    t %= p
                if t:
                    row[col] = t
    return out, end


def _degenerate_complements(axes, key, slots):
    """Per degeneracy s_j along axis i into level ``key``, the positions of
    the cells of ``slots`` whose coordinate i is outside its image, in
    increasing order."""
    return tuple(tuple(q for q, cell in enumerate(slots) if cell[i] not in image)
                 for i, (axis, p) in enumerate(zip(axes, key))
                 for image in (set(axis.degeneracy(p - 1, j)) for j in range(p)))


class LodayComplex:
    """Blockwise chain data for one space/algebra/coefficient configuration:
    the total complex of the labelings of the non-basepoint cells of the
    product of ``axes``, keyed (degree, weight).

    A cell is a tuple of per-axis simplex identifiers, in lexicographic order;
    face j along axis i replaces coordinate i by its image under
    ``axes[i].face(key[i], j)``.  The levels are the tuples ``key`` of total
    degree 0..max_degree + 1, and the complex keeps what they share for its
    whole life: cells, labeling counts, weight bound, degeneracy complements,
    structure tables with their factorizations, and ``face_tables``, the
    dict of offset tables that every kernel's faces read (``_pull_faces``),
    each built on first use, keyed by what it is built from, and kept until
    the complex goes.  The constructor checks
    the ceiling ``max_block_size`` (default ``DEFAULT_MAX_BLOCK``) against
    the labelings of every level, lists those of total degree 0..max_degree
    as packed codes keyed ``level + (w,)`` (``_codes``), and assembles no
    block.  ``homology_dims`` ranks the complex one way: each block of the
    total differential is pulled from its uncleared rows
    (``implicit_blocks``) by one kernel per level and axis (``_filler``),
    and max_degree + 1 is never listed.

    The eager views are cached reads, made once on first read, of the same
    kernel; they never change how the complex is ranked.  ``terms`` adds the
    levels of total degree max_degree + 1, listed, to the codes; ``bases``
    stacks them per (total degree, weight) in level order; ``boundaries``
    holds every block of the total differential onto all its rows, the
    listed top numbering its columns, as a ``SparseMatrix`` keyed like its
    columns in ``bases``.
    """

    def __init__(self, axes, algebra, coefficients, max_degree,
                 weight_bound=None, normalized=True, max_block_size=None):
        if not isinstance(coefficients, Coefficients):
            raise TypeError("coefficients must be a Coefficients value")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if weight_bound is not None and weight_bound < 0:
            raise ValueError("weight_bound must be >= 0")
        if not algebra.is_finite and weight_bound is None:
            raise WeightBoundRequired(
                "the algebra has unbounded weights; supply a weight bound")
        if coefficients.mode == "custom" and not coefficients.algebra.is_finite:
            raise WeightBoundRequired("custom coefficient algebras must be finite")
        keys = [key for key in product(range(max_degree + 2), repeat=len(axes))
                if sum(key) <= max_degree + 1]
        self.axes, self.algebra = axes, algebra
        self.field, self.unit = algebra.field, algebra.unit
        self.coeff_mode, self.max_degree = coefficients.mode, max_degree
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
        self.counts, fewer = {}, None
        for key in sorted(self.slots, key=lambda key: len(self.slots[key])):
            n = len(self.slots[key])
            fewer = n, _block_counts(algebra, self.c_alg, n, self.bound, fewer)
            self.counts[key] = fewer[1]
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
        self.face_tables = {}
        # over Q a scalar that is no integer leaves Fractions in pulled rows
        self.fractional = self.field.p is None and any(
            v.denominator != 1 for table in tables for row in table
            for terms in row for _, v in terms)
        self._codes = self.listed(
            [key for key in keys if sum(key) <= max_degree])

    @cached_property
    def terms(self) -> dict:
        return {**self._codes,
                **self.listed(self.summands(self.max_degree + 1))}

    @cached_property
    def bases(self) -> dict:
        bases = {}
        for key in sorted(self.terms):
            bases.setdefault((sum(key[:-1]), key[-1]), []).extend(
                self.terms[key])
        return bases

    @cached_property
    def boundaries(self) -> dict:
        return {key: _matrix(block, self.field)
                for key, block in self._blocks()}

    def _blocks(self):
        """Every block of the total differential out of a positive degree of
        ``bases``, ``((degree, weight), (rows, cols))`` in key order, pulled
        by the ranking kernel (``_total_block``) onto all its rows, with the
        top total degree listed (``terms``)."""
        terms = self.terms
        for k in range(1, self.max_degree + 2):
            weights = sorted(w for j, w in self.bases if j == k)
            fills = self.fills(k) if weights else ()
            for w in weights:
                kept = {low: terms.get(low + (w,), ())
                        for low in self.summands(k - 1)}
                rows, cols, _ = self._total_block(fills, kept, terms, w)
                yield (k, w), (rows, cols)

    def _ranked(self, cleared):
        """The pivots of every block of the total differential,
        ``((degree, weight), pivots)`` in key order, each block built on
        the rows that ``cleared`` does not hold for it once the previous
        ones are ranked, and its rows handed to ``row_pivots`` as they were
        built.  A pivot is ``(row, column)``, the column named ``(level,
        code)`` on a listed total degree and by its number on the top."""
        for k in range(1, self.max_degree + 2):
            for key, (rows, levels) in self.implicit_blocks(k, cleared):
                found = row_pivots(rows, self.field)
                if levels is None:
                    yield key, found
                    continue
                # the columns are numbered level after level, each level's
                # in the order of its index
                codes, ends = [], []
                for _, index in levels:
                    codes.extend(index)
                    ends.append(len(codes))
                yield key, [(r, (levels[bisect_right(ends, c)][0], codes[c]))
                            for r, c in found]

    def check_boundary_squares(self):
        """The (degree p, weight) of every block ``∂_p`` whose product with
        ``∂_{p+1}`` is not zero, each block pulled onto all its rows
        (``_blocks``) and the two multiplied as row dicts.  On several axes
        the square of the total differential sums the squares of each
        axis's blocks and the signed commutators of every two axes, which
        land in different summands, so it vanishes exactly when each axis
        squares to zero and every two axes commute."""
        p = self.field.p
        below, violations = {}, []
        for (k, w), (rows, _) in self._blocks():
            for low in below.pop((k - 1, w), ()):
                square = {}
                for r, a in low.items():
                    for c, b in rows[r].items():
                        square[c] = square.get(c, 0) + a * b
                if any(v % p if p else v for v in square.values()):
                    violations.append((k - 1, w))
                    break
            below[(k, w)] = rows
        return violations

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

    def weight_counts(self, k):
        """The exact number of labelings of total degree k per weight 0..bound,
        none of them listed: ``counts`` summed over the summands, or on a
        normalized complex their Dold–Kan inversion (``_normalized_counts``),
        which is zero wherever a degeneracy complement is empty."""
        return [sum(column) for column in zip(*(
            _normalized_counts(self.counts, key) if self.complements[key]
            else self.counts[key] for key in self.summands(k)))]

    def implicit_blocks(self, k, cleared):
        """The blocks of the total differential out of total degree k, one
        per weight w and keyed (k, w), each onto its rows in the codes
        ``_codes`` outside the set it pops from ``cleared`` (block key ->
        the rows, named ``(level, code)``, that are pivot columns of the
        block below, which cannot change its rank).  That set is grouped
        into one set of codes per level, and only a level that has some
        loses them from its list.  A block is its row dicts and ``(key,
        index)`` per column level (``_total_block``), from which
        ``_ranked`` names only the pivot columns ``(level, code)``, or None
        on the top total degree, whose pivots clear nothing.

        The levels of total degree k (``summands``) are stacked in key order
        as its columns, those of k - 1 as its rows, and the faces along axis
        i out of a level carry the sign (-1)^(level[0] + ... + level[i - 1])
        (Dold–Puppe, ``fills``), so one axis is one summand with sign +1.
        Each kernel is built once per level and axis.  A weight yields no
        block when no row is left or its exact count (``weight_counts``) is
        zero.  Rows stay in listing order, and every level, listed or not,
        numbers the columns that its rows reach along any axis as they first
        reach them, after the columns of the levels before it
        (``_total_block``), so a row that reaches a new column pivots there
        on sight (``exactlinalg.row_pivots``).  Over Q, rows pulled along a
        table scalar that is no integer hold ``Fraction``s, which are scaled
        to ints (``exactlinalg.integer_rows``) for elimination."""
        bases, lows = self._codes, self.summands(k - 1)
        rows = {}
        for w, n in enumerate(self.weight_counts(k)):
            skip = {}
            for low, x in cleared.pop((k, w), ()):
                skip.setdefault(low, set()).add(x)
            kept = {}
            for low in lows:
                codes, gone = bases.get(low + (w,), ()), skip.get(low)
                kept[low] = [x for x in codes if x not in gone] if gone \
                    else codes
            if n and any(kept.values()):
                rows[w] = kept
        if not rows:
            return ()
        fills = self.fills(k)
        listed = k <= self.max_degree

        def block(kept, w):
            out, _, levels = self._total_block(fills, kept, {
                key + (w,): () for key, _ in fills
                if not listed or key + (w,) in bases}, w)
            if self.fractional:
                integer_rows(out)
            return out, levels if listed else None
        return (((k, w), block(kept, w)) for w, kept in rows.items())

    def fills(self, k):
        """The kernels (``_filler``) of the total differential out of the
        levels of total degree k, ``(key, [(low, fill), ...])`` per level in
        key order: along axis i into ``low``, each face's sign twisted by
        (-1)^(key[0] + ... + key[i - 1]) (Dold–Puppe)."""
        return [(key, [(_lowered(key, i),
                        self._filler(key, i, (-1) ** sum(key[:i])))
                       for i, p in enumerate(key) if p])
                for key in self.summands(k)]

    def _total_block(self, fills, kept, cols, w):
        """The block of weight w of the total differential: the row dicts
        of the codes ``kept`` of each level, stacked, filled by the kernels
        ``fills`` of each column level; its column count; and ``(key,
        index)`` per column level of a listed total degree, the index
        mapping the code of each column to its number, in that order.

        A level numbers first the codes that ``cols`` lists for it (keyed
        ``key + (w,)``; the eager views list every column), then the
        columns its rows reach as they first reach them, after the columns
        of the levels before it.  A level of the top total degree would
        index every labeling its rows reach, so its index is let go once
        the level is filled.  A level that ``cols`` does not hold is not
        filled: a listed level with no labeling of weight w has no column
        there, as every preimage its rows reach is degenerate."""
        out, first = [], {}
        for low, codes in kept.items():
            first[low] = len(out)
            out.extend({} for _ in codes)
        levels, start = [], 0
        for key, axis_fills in fills:
            codes = cols.get(key + (w,))
            if codes is None:
                continue
            index = dict(zip(codes, range(start, start + len(codes))))
            for low, fill in axis_fills:
                codes = kept[low]
                if codes:
                    fill(codes, index,
                         out[first[low]:first[low] + len(codes)], start)
            if sum(key) <= self.max_degree:
                levels.append((key, index))
            start += len(index)
        return out, start, levels

    def signed_plans(self, key, i):
        """The plans of the faces along axis i out of level ``key``, each
        with its sign, in face order: per face, the preimages of each low
        slot (the positions of the cells it sends there) and the positions
        of the cells it sends to the basepoint one level down."""
        p, low = key[i], _lowered(key, i)
        pos_low = {cell: q for q, cell in enumerate(self.slots[low])}
        bp_low = self.basepoints[low]
        plans = []
        for j in range(p + 1):
            face = self.axes[i].face(p, j)
            pre = [[] for _ in pos_low]
            to_base = []
            for q, cell in enumerate(self.slots[key]):
                target = cell[:i] + (face[cell[i]],) + cell[i + 1:]
                if target == bp_low:
                    to_base.append(q)
                else:
                    pre[pos_low[target]].append(q)
            plans.append((-1 if j % 2 else 1,
                          (tuple(map(tuple, pre)), tuple(to_base))))
        return plans

    def _filler(self, key, i, twist):
        """The kernel of the blocks along axis i out of level ``key``, each
        face's sign times ``twist``: a function ``fill(rows, columns, out,
        start)`` that adds the block onto the codes ``rows`` to their row
        dicts ``out`` and returns ``out`` and the end of its columns.
        ``columns`` maps the code of each column to its number, counted
        from ``start``, or is empty and the rows number the columns they
        reach.  The block is pulled from its rows (``_pull_block``) along
        faces whose offset tables come from, or are first built into, the
        complex's ``face_tables``; only the faces' split memos are the
        kernel's own."""
        n, n_low = len(self.slots[key]), len(self.slots[_lowered(key, i)])
        bits, field = self.bits, self.field
        signed = [(twist * sign, plan)
                  for sign, plan in self.signed_plans(key, i)]
        comps = self.complements[key]
        faces = _pull_faces(signed, n, comps, self.unfold, self.sizes, bits,
                            self.face_tables)
        degenerate = tuple((_code([(1 << bits) - 1] * len(comp), comp, bits),
                            _code([self.unit] * len(comp), comp, bits))
                           for comp in comps if len(comp) > 1)

        def pull(rows, columns, out, start):
            return _pull_block(faces, rows, columns, field, bits, n_low,
                               degenerate, out, start)
        return pull


def _lowered(key, i):
    """The level ``key`` one lower on axis i."""
    return key[:i] + (key[i] - 1,) + key[i + 1:]


def build_complex(space: PointedSimplicialSet, algebra, coefficients,
                  max_degree: int, weight_bound=None, normalized: bool = True,
                  max_block_size: int | None = None) -> LodayComplex:
    """The complex of ``space`` as the one axis of a ``LodayComplex``: the
    levels 0..max_degree listed, the top level max_degree + 1 and every
    boundary block deferred; ``max_block_size`` (default
    ``DEFAULT_MAX_BLOCK``) bounds the number of labelings of all levels, the
    top one included."""
    if space.top_level < max_degree + 1:
        raise TruncationTooShallow(
            f"degree {max_degree} homology needs top_level >= "
            f"{max_degree + 1}, got {space.top_level}")
    return LodayComplex((space,), algebra, coefficients, max_degree,
                        weight_bound, normalized, max_block_size)


def chain_dims(complex_: LodayComplex) -> dict:
    """Basis sizes per (degree, weight) through max_degree + 1, counted
    exactly (``LodayComplex.weight_counts``): nothing is listed and no rank
    is computed."""
    return {(k, w): n for k in range(complex_.max_degree + 2)
            for w, n in enumerate(complex_.weight_counts(k)) if n}


def homology_dims(complex_: LodayComplex) -> HomologyTable:
    """dim H_n per (degree <= max_degree, weight) block.

    Each weight's boundary blocks are ranked from degree 1 upward, and the
    rank of ``∂_{p+1}`` leaves out the rows that are pivot columns of
    ``∂_p``, each named by its level and code (clearing, in the cohomology
    direction).  Those columns span a subspace on which ``∂_p`` is
    injective, and ``im ∂_{p+1}`` lies in the kernel of ``∂_p``, so the two
    meet only in zero and the rank is unchanged, whichever pivots
    elimination takes.  This relies on ``∂∂ = 0``, which
    ``LodayComplex.check_boundary_squares`` and acceptance criterion 9
    verify.

    Each block is built once every block below it is ranked, on its
    uncleared rows alone, in listing order, with its columns numbered as
    those rows first reach them, so that a row reaching a new column
    pivots there on sight (``exactlinalg.row_pivots``); it is dropped once
    ranked (``LodayComplex.implicit_blocks``), whether or not the complex
    was read eagerly.  The top total degree d + 1 is read only through the
    rank of ``∂_{d+1}`` and never listed.  The listed codes are keyed by
    level and weight, and their sizes are summed per total degree.
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
