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

Two pushforward paths build the same matrices.  When every product of basis
elements up to the weight bound, and every coefficient action c . action(a),
is zero or a single basis element with coefficient one, a face sends a
labeling to one labeling or to nothing: the face is pushed with lookups in
two tables built once per complex, and boundary entries are summed as plain
+-1 integers.  This holds for truncpoly(m), poly and exterior with unit or
self coefficients, and for any monomial custom coefficients.  Every other
algebra (a file algebra whose products carry other coefficients or several
terms) takes the generic path, which multiplies sparse linear combinations
in the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from operator import itemgetter
from typing import NamedTuple

from .exactlinalg import FieldSpec, SparseMatrix, rank
from .algebra import Coefficients, unit_coefficient_algebra
from .simplicial import PointedSimplicialSet


class TruncationTooShallow(ValueError):
    """The space is not truncated high enough for the requested degree."""


class WeightBoundRequired(ValueError):
    """The algebra has unbounded weights and no weight bound was supplied."""


class FieldMismatch(ValueError):
    """Algebra and coefficient algebra live over different fields."""


class BasisSizeExceeded(RuntimeError):
    """A (degree, weight) block would exceed the labeling ceiling."""


DEFAULT_MAX_BLOCK = 5_000_000


class Labeling(NamedTuple):
    """Algebra labels per non-basepoint slot, plus the coefficient index."""

    assignment: tuple
    coeff: int


def _resolve_coefficients(algebra, coefficients: Coefficients):
    """Return (C_algebra, action) where action maps an A basis index to its
    image in C as a sparse linear combination."""
    field = algebra.field
    mode = coefficients.mode
    if mode == "unit":
        c_alg = unit_coefficient_algebra(field)
        action = lambda i: ({0: algebra.aug(i)} if algebra.aug(i) != field.zero else {})
        return c_alg, action
    if mode == "self":
        one = field.one
        return algebra, (lambda i: {i: one})
    c_alg = coefficients.algebra
    if c_alg.field != field:
        raise FieldMismatch(
            f"coefficient algebra over {c_alg.field}, algebra over {field}")
    if coefficients.action is None:
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
    mult = [0] * (bound + 1)
    for w in range(bound + 1):
        mult[w] = len(algebra.indices_of_weight(w))
    return mult


def _block_counts(algebra, c_alg, n_slots, bound):
    """Labeling counts per total weight 0..bound, computed before enumeration."""
    mult = _weight_multiplicities(algebra, bound)
    counts = [0] * (bound + 1)
    counts[0] = 1
    for _ in range(n_slots):
        nxt = [0] * (bound + 1)
        for w, c in enumerate(counts):
            if not c:
                continue
            for dw, m in enumerate(mult):
                if m and w + dw <= bound:
                    nxt[w + dw] += c * m
        counts = nxt
    cmult = _weight_multiplicities(c_alg, bound)
    out = [0] * (bound + 1)
    for w, c in enumerate(counts):
        if not c:
            continue
        for dw, m in enumerate(cmult):
            if m and w + dw <= bound:
                out[w + dw] += c * m
    return out


def _enumerate_block_bases(algebra, c_alg, n_slots, bound, complements=()):
    """Bases of labelings grouped by total weight, in lexicographic order.

    ``complements`` (normalized complexes) holds per degeneracy the slot
    positions outside its image; an assignment that is the unit on all of
    one is degenerate.  The walk skips the subtree when it puts the unit on
    a complement's last position and its earlier positions are unit too, so
    degenerate labelings are never built.
    """
    if not all(complements):
        return {}
    unit = algebra.unit
    closing = [[] for _ in range(n_slots)]
    for comp in complements:
        last = max(comp)
        closing[last].append(sum(1 << q for q in comp if q != last))
    by_weight = {w: [] for w in range(bound + 1)}
    slot_indices = [(i, algebra.weight(i)) for i in algebra.basis_indices(bound)]
    coeff_by_budget = {}
    for i in c_alg.basis_indices(bound):
        coeff_by_budget.setdefault(c_alg.weight(i), []).append(i)
    coeff_budgets = sorted(coeff_by_budget)

    def rec(prefix, used, units, q):
        if q == n_slots:
            assignment = tuple(prefix)
            for budget in coeff_budgets:
                if used + budget > bound:
                    break
                for ci in coeff_by_budget[budget]:
                    by_weight[used + budget].append(Labeling(assignment, ci))
            return
        for i, w in slot_indices:
            if used + w > bound:
                continue
            marked = units
            if i == unit:
                if any(units & m == m for m in closing[q]):
                    continue
                marked |= 1 << q
            prefix.append(i)
            rec(prefix, used + w, marked, q + 1)
            prefix.pop()

    rec([], 0, 0, 0)
    return {w: labs for w, labs in by_weight.items() if labs}


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
    """Blockwise chain data for one space/algebra/coefficient configuration."""

    def __init__(self, space, algebra, coefficients, max_degree, weight_bound,
                 normalized, bases, boundaries, coeff_mode):
        self.space = space
        self.algebra = algebra
        self.coefficients = coefficients
        self.field = algebra.field
        self.max_degree = max_degree
        self.weight_bound = weight_bound
        self.normalized = normalized
        self.bases = bases            # (degree, weight) -> list of Labelings
        self.boundaries = boundaries  # (degree, weight) -> SparseMatrix
        self.coeff_mode = coeff_mode

    def chain_dim(self, degree: int, weight: int) -> int:
        return len(self.bases.get((degree, weight), ()))

    def boundary(self, degree: int, weight: int):
        return self.boundaries.get((degree, weight))

    def check_boundary_squares(self):
        """Verify boundary . boundary = 0 on every composable block pair."""
        violations = []
        for (p, w), mat in sorted(self.boundaries.items()):
            nxt = self.boundaries.get((p + 1, w))
            if nxt is None or p + 1 > self.max_degree + 1:
                continue
            if not mat.matmul(nxt).is_zero:
                violations.append((p, w))
        return violations


def _face_plans(space, p, slots, slot_pos_low, bp_low):
    """Per face map at level p: preimages of each low slot and the list of
    source slot positions falling into the basepoint."""
    plans = []
    for i in range(p + 1):
        fmap = space.face(p, i)
        pre = [[] for _ in slot_pos_low]
        to_base = []
        for q, sid in enumerate(slots):
            target = fmap[sid]
            if target == bp_low:
                to_base.append(q)
            else:
                pre[slot_pos_low[target]].append(q)
        plans.append((tuple(tuple(x) for x in pre), tuple(to_base)))
    return plans


def _push_labeling(algebra, c_alg, action, plan, labeling, field):
    """Pushforward of a basis labeling along one face map, expanded into a
    sparse combination of labelings one level down."""
    pre, to_base = plan
    one = field.one
    assignment = labeling.assignment
    coeff_lin = {labeling.coeff: one}
    for q in to_base:
        a = assignment[q]
        if a == algebra.unit:
            continue
        img = action(a)
        if not img:
            return {}
        nxt = {}
        for c0, v0 in coeff_lin.items():
            for k, v in img.items():
                out = c_alg.mul(c0, k)
                for r, s in out.items():
                    key = r
                    val = field.mul(field.mul(v0, v), s)
                    cur = nxt.get(key, field.zero)
                    tot = field.add(cur, val)
                    if tot == field.zero:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = tot
        coeff_lin = nxt
        if not coeff_lin:
            return {}
    slot_lins = []
    unit = algebra.unit
    for srcs in pre:
        if not srcs:
            slot_lins.append({unit: one})
            continue
        if len(srcs) == 1:
            slot_lins.append({assignment[srcs[0]]: one})
            continue
        lin = {assignment[srcs[0]]: one}
        for q in srcs[1:]:
            lin = algebra.mul_lincomb(lin, assignment[q])
            if not lin:
                return {}
        slot_lins.append(lin)
    # fast path: everything stayed monomial
    if all(len(l) == 1 for l in slot_lins) and len(coeff_lin) == 1:
        labels = tuple(next(iter(l)) for l in slot_lins)
        scalar = one
        for l in slot_lins:
            scalar = field.mul(scalar, next(iter(l.values())))
        (ci, cv), = coeff_lin.items()
        scalar = field.mul(scalar, cv)
        return {Labeling(labels, ci): scalar}
    out = {}
    slot_items = [sorted(l.items()) for l in slot_lins]
    for combo in iter_product(*slot_items):
        labels = tuple(k for k, _ in combo)
        scalar = one
        for _, v in combo:
            scalar = field.mul(scalar, v)
        for ci, cv in sorted(coeff_lin.items()):
            s = field.mul(scalar, cv)
            key = Labeling(labels, ci)
            tot = field.add(out.get(key, field.zero), s)
            if tot == field.zero:
                out.pop(key, None)
            else:
                out[key] = tot
    return out


class _NotMonomial(Exception):
    """A product or coefficient action is not zero or one unit-coefficient
    basis element."""


def _monomial_tables(algebra, c_alg, action, bound):
    """Lookup tables ``mul[i][j] -> k`` and ``act[c][a] -> c'`` (None for a
    zero product) over the basis up to the weight bound, or None when some
    product or coefficient action there is not a single basis element of
    the expected weight with coefficient one.

    Entries whose total weight exceeds the bound stay None; no labeling of a
    block can reach them, since every partial product of its labels has at
    most the block's weight.
    """
    field = algebra.field
    zero, one = field.zero, field.one

    def image(lin, alg, weight):
        if not lin:
            return None
        if len(lin) == 1:
            (k, v), = lin.items()
            if v == one and alg.weight(k) == weight:
                return k
        raise _NotMonomial

    a_idx = list(algebra.basis_indices(bound))
    c_idx = list(c_alg.basis_indices(bound))
    mul = [[None] * (a_idx[-1] + 1) for _ in range(a_idx[-1] + 1)]
    act = [[None] * (a_idx[-1] + 1) for _ in range(c_idx[-1] + 1)]
    try:
        for i in a_idx:
            for j in a_idx:
                w = algebra.weight(i) + algebra.weight(j)
                if w <= bound:
                    mul[i][j] = image(algebra.mul(i, j), algebra, w)
        for c in c_idx:
            for a in a_idx:
                w = c_alg.weight(c) + algebra.weight(a)
                if w > bound:
                    continue
                if a == algebra.unit:
                    act[c][a] = c
                    continue
                lin = {}
                for k, v in action(a).items():
                    for r, s in c_alg.mul(c, k).items():
                        lin[r] = field.add(lin.get(r, zero), field.mul(v, s))
                act[c][a] = image({r: v for r, v in lin.items() if v != zero},
                                  c_alg, w)
    except _NotMonomial:
        return None
    return mul, act


def _table_face(plan, tables, unit):
    """Pushforward along one face by table lookups: the image labeling as a
    plain ``(assignment, coeff)`` tuple, or None when it vanishes."""
    mul, act = tables
    pre, to_base = plan
    firsts = tuple(srcs[0] if srcs else None for srcs in pre)
    merges = tuple((q, srcs[1:]) for q, srcs in enumerate(pre)
                   if len(srcs) > 1)
    if len(firsts) > 1 and None not in firsts:
        gather = itemgetter(*firsts)
    else:
        def gather(a):
            return tuple(unit if q is None else a[q] for q in firsts)

    def push(labeling):
        a, c = labeling
        for q in to_base:
            c = act[c][a[q]]
            if c is None:
                return None
        if not merges:
            return gather(a), c
        labels = list(gather(a))
        for slot, rest in merges:
            x = labels[slot]
            for q in rest:
                x = mul[x][a[q]]
                if x is None:
                    return None
            labels[slot] = x
        return tuple(labels), c

    return push


def _boundary_block(plans, cols, row_index, n_rows, algebra, c_alg, action,
                    tables):
    """Matrix of the alternating face sum over ``plans`` from the labelings
    ``cols`` to the rows of ``row_index``; images missing from ``row_index``
    (degenerate ones) are dropped.  ``tables`` from ``_monomial_tables``
    selects the table path, None the generic ``_push_labeling`` path."""
    field = algebra.field
    zero = field.zero
    entries = {}
    if tables is not None:
        faces = [(-1 if i % 2 else 1, _table_face(plan, tables, algebra.unit))
                 for i, plan in enumerate(plans)]
        normalize = field.normalize
        for col, lab in enumerate(cols):
            acc = {}
            for sign, push in faces:
                row = row_index.get(push(lab))
                if row is None:
                    continue
                tot = acc.get(row, 0) + sign
                if tot:
                    acc[row] = tot
                else:
                    del acc[row]
            for row, tot in acc.items():
                val = normalize(tot)
                if val != zero:
                    entries[(row, col)] = val
        return SparseMatrix(n_rows, len(cols), entries, field)
    for col, lab in enumerate(cols):
        acc = {}
        for i, plan in enumerate(plans):
            terms = _push_labeling(algebra, c_alg, action, plan, lab, field)
            for out_lab, val in terms.items():
                row = row_index.get(out_lab)
                if row is None:
                    continue
                if i % 2:
                    val = field.neg(val)
                tot = field.add(acc.get(row, zero), val)
                if tot == zero:
                    acc.pop(row, None)
                else:
                    acc[row] = tot
        for row, val in acc.items():
            entries[(row, col)] = val
    return SparseMatrix(n_rows, len(cols), entries, field)


def _degenerate_complements(space, p, slots):
    """Per degeneracy s_j into level p, the slot positions outside its image."""
    images = [set(space.degeneracy(p - 1, j)) for j in range(p)]
    return tuple(tuple(q for q, sid in enumerate(slots) if sid not in image)
                 for image in images)


def build_complex(space: PointedSimplicialSet, algebra, coefficients,
                  max_degree: int, weight_bound=None, normalized: bool = True,
                  max_block_size: int | None = None) -> LodayComplex:
    """Assemble bases and boundary matrices through degree max_degree + 1."""
    if not isinstance(coefficients, Coefficients):
        raise TypeError("coefficients must be a Coefficients value")
    d = max_degree
    if d < 0:
        raise ValueError("max_degree must be >= 0")
    if space.top_level < d + 1:
        raise TruncationTooShallow(
            f"degree {d} homology needs top_level >= {d + 1}, "
            f"got {space.top_level}")
    if not algebra.is_finite and weight_bound is None:
        raise WeightBoundRequired(
            "the algebra has unbounded weights; supply a weight bound")
    if coefficients.mode == "custom" and not coefficients.algebra.is_finite:
        raise WeightBoundRequired("custom coefficient algebras must be finite")
    ceiling = DEFAULT_MAX_BLOCK if max_block_size is None else max_block_size
    c_alg, action = _resolve_coefficients(algebra, coefficients)

    slots_per_level = []
    for p in range(d + 2):
        bp = space.basepoints[p]
        slots_per_level.append(tuple(s for s in range(space.size(p)) if s != bp))

    if weight_bound is not None:
        bound = weight_bound
    else:
        max_slots = max(len(s) for s in slots_per_level)
        bound = algebra.max_basis_weight * max_slots + c_alg.max_basis_weight

    bases = {}
    index = {}
    for p in range(d + 2):
        n_slots = len(slots_per_level[p])
        counts = _block_counts(algebra, c_alg, n_slots, bound)
        for w, count in enumerate(counts):
            if count > ceiling:
                raise BasisSizeExceeded(
                    f"block (degree={p}, weight={w}) needs {count} labelings, "
                    f"ceiling is {ceiling}")
        complements = (_degenerate_complements(space, p, slots_per_level[p])
                       if normalized else ())
        blocks = _enumerate_block_bases(algebra, c_alg, n_slots, bound,
                                        complements)
        for w, labs in blocks.items():
            bases[(p, w)] = labs
            index[(p, w)] = {lab: r for r, lab in enumerate(labs)}

    boundaries = {}
    tables = _monomial_tables(algebra, c_alg, action, bound)
    for p in range(1, d + 2):
        slots = slots_per_level[p]
        slots_low = slots_per_level[p - 1]
        slot_pos_low = {sid: q for q, sid in enumerate(slots_low)}
        plans = _face_plans(space, p, slots, slot_pos_low,
                            space.basepoints[p - 1])
        for w in sorted(w for (q, w) in bases if q == p):
            boundaries[(p, w)] = _boundary_block(
                plans, bases[(p, w)], index.get((p - 1, w), {}),
                len(bases.get((p - 1, w), ())), algebra, c_alg, action, tables)

    return LodayComplex(space, algebra, coefficients, d, weight_bound,
                        normalized, bases, boundaries, coefficients.mode)


def chain_dims(complex_: LodayComplex) -> dict:
    """Basis sizes per (degree, weight), no rank computation."""
    return {key: len(labs) for key, labs in sorted(complex_.bases.items())}


def homology_dims(complex_: LodayComplex) -> HomologyTable:
    """dim H_n per (degree <= max_degree, weight) block."""
    d = complex_.max_degree
    ranks = {}
    for key, mat in complex_.boundaries.items():
        ranks[key] = rank(mat)
    dims = {}
    for (p, w), labs in complex_.bases.items():
        if p > d:
            continue
        value = len(labs) - ranks.get((p, w), 0) - ranks.get((p + 1, w), 0)
        if value:
            dims[(p, w)] = value
    return HomologyTable(dims, d, complex_.weight_bound, complex_.coeff_mode,
                         complex_.field)
