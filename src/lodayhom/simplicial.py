"""Finite pointed simplicial sets truncated at a fixed top level.

A space is stored as explicit per-level tables: level p holds dense integer
simplex identifiers 0..size-1, one of which is the (degenerate image of the)
basepoint, together with total face maps d_i : level p -> level p-1 and total
degeneracy maps s_i : level p -> level p+1.  The identifier order within each
level is the canonical simplex order used downstream for tensor-factor bases.

Conventions for the built-in constructors:

* Every constructor tabulates its space from simplex keys: each level lists
  its keys in identifier order, and the face and degeneracy maps are given on
  keys.  The identifier of a simplex is the position of its key.
* ``simplex_sphere(n)`` is Delta^n/boundary: level p is the basepoint (id 0)
  followed by the surjective monotone maps [p] -> [n], as value tuples in
  lexicographic order; a face that is not surjective is the basepoint.
  ``circle`` is ``simplex_sphere(1)``, i.e. Delta^1/boundary.
* products are levelwise cartesian products with identifier x*|Y_p| + y; in a
  wedge X keeps its identifiers and Y's non-basepoint ones follow in order.
* ``collapse`` identifies simplices with the basepoint using a union-find
  whose class representative is the smallest identifier, and keeps the
  representatives in order; the smash is the product collapsed along both
  axes through the basepoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations_with_replacement


class TruncationMismatch(ValueError):
    """Two spaces entering a binary construction have different top levels."""


class MalformedExpr(ValueError):
    """A space expression fails to parse or has a bad arity/argument."""


class PointedSimplicialSet:
    """Truncated pointed simplicial set given by explicit level tables."""

    __slots__ = ("level_sizes", "basepoints", "_faces", "_degeneracies", "label")

    def __init__(self, level_sizes, basepoints, faces, degeneracies, label=""):
        self.level_sizes = tuple(level_sizes)
        self.basepoints = tuple(basepoints)
        self._faces = {key: tuple(m) for key, m in faces.items()}
        self._degeneracies = {key: tuple(m) for key, m in degeneracies.items()}
        self.label = label
        n = self.top_level
        if len(self.basepoints) != n + 1:
            raise ValueError("need one basepoint per level")
        for p, size in enumerate(self.level_sizes):
            if size < 1 or not (0 <= self.basepoints[p] < size):
                raise ValueError(f"bad basepoint at level {p}")
        for p in range(1, n + 1):
            for i in range(p + 1):
                m = self._faces.get((p, i))
                if m is None or len(m) != self.level_sizes[p]:
                    raise ValueError(f"missing or ragged face map d_{i} at level {p}")
        for p in range(n):
            for i in range(p + 1):
                m = self._degeneracies.get((p, i))
                if m is None or len(m) != self.level_sizes[p]:
                    raise ValueError(f"missing or ragged degeneracy s_{i} at level {p}")

    @property
    def top_level(self) -> int:
        return len(self.level_sizes) - 1

    def size(self, p: int) -> int:
        return self.level_sizes[p]

    def face(self, p: int, i: int):
        """Total map d_i : level p -> level p-1 as a tuple."""
        return self._faces[(p, i)]

    def degeneracy(self, p: int, i: int):
        """Total map s_i : level p -> level p+1 as a tuple."""
        return self._degeneracies[(p, i)]

    def nondegenerate_counts(self):
        """Number of simplices per level not hit by any degeneracy map."""
        counts = [self.level_sizes[0]]
        for p in range(1, self.top_level + 1):
            hit = set()
            for i in range(p):
                hit.update(self._degeneracies[(p - 1, i)])
            counts.append(self.level_sizes[p] - len(hit))
        return counts

    def __repr__(self) -> str:
        name = self.label or "PointedSimplicialSet"
        return f"<{name} levels={list(self.level_sizes)}>"


def _tabulate(levels, base, face, degeneracy, label) -> PointedSimplicialSet:
    """Tabulate a space given by simplex keys.

    ``levels[p]`` lists the keys of level p in identifier order, ``base[p]``
    is the basepoint key, and ``face(p, i, key)`` / ``degeneracy(p, i, key)``
    return the key of d_i / s_i of the simplex ``key`` at level p.
    """
    index = [{key: k for k, key in enumerate(keys)} for keys in levels]
    n = len(levels) - 1
    faces = {(p, i): [index[p - 1][face(p, i, key)] for key in levels[p]]
             for p in range(1, n + 1) for i in range(p + 1)}
    degens = {(p, i): [index[p + 1][degeneracy(p, i, key)] for key in levels[p]]
              for p in range(n) for i in range(p + 1)}
    return PointedSimplicialSet([len(keys) for keys in levels],
                                [index[p][key] for p, key in enumerate(base)],
                                faces, degens, label)


def point(top_level: int) -> PointedSimplicialSet:
    """The one-point space."""
    same = lambda p, i, key: key
    return _tabulate([[()]] * (top_level + 1), [()] * (top_level + 1),
                     same, same, "pt")


def circle(top_level: int) -> PointedSimplicialSet:
    """Minimal model of S^1: one vertex, one non-degenerate 1-simplex."""
    out = simplex_sphere(1, top_level)
    out.label = "S1"
    return out


def collapse(space: PointedSimplicialSet, doomed_by_level, label="") -> PointedSimplicialSet:
    """Collapse a pointed subcomplex to the basepoint.

    ``doomed_by_level`` maps a level to the identifiers to be identified with
    the basepoint there.  The listed simplices must be closed under faces and
    degeneracies for the quotient maps to be well-defined.
    """
    quotients = []  # per level, each identifier's class representative
    for p in range(space.top_level + 1):
        # the only class of several simplices is the basepoint's, with the
        # doomed ones; the smallest identifier represents it
        point_class = {space.basepoints[p], *doomed_by_level.get(p, ())}
        rep = min(point_class)
        quotients.append([rep if x in point_class else x
                          for x in range(space.size(p))])
    return _tabulate(
        [sorted(set(q)) for q in quotients],
        [q[bp] for q, bp in zip(quotients, space.basepoints)],
        lambda p, i, rep: quotients[p - 1][space.face(p, i)[rep]],
        lambda p, i, rep: quotients[p + 1][space.degeneracy(p, i)[rep]],
        label)


def simplex_sphere(n: int, top_level: int) -> PointedSimplicialSet:
    """Delta^n / boundary: every non-surjective simplex collapses to the point."""
    if n < 1:
        raise ValueError("simplex_sphere needs n >= 1")

    def onto(s):
        return s if len(set(s)) == n + 1 else ()

    return _tabulate(
        [[()] + [s for s in combinations_with_replacement(range(n + 1), p + 1)
                 if onto(s)] for p in range(top_level + 1)],
        [()] * (top_level + 1),
        lambda p, i, s: onto(s[:i] + s[i + 1:]),
        lambda p, i, s: s[: i + 1] + s[i:],
        f"simplexsphere({n})")


def product(x: PointedSimplicialSet, y: PointedSimplicialSet) -> PointedSimplicialSet:
    """Levelwise cartesian product; pair (a, b) gets identifier a*|Y_p| + b."""
    if x.top_level != y.top_level:
        raise TruncationMismatch("product factors have different top levels")
    return _tabulate(
        [[(a, b) for a in range(x.size(p)) for b in range(y.size(p))]
         for p in range(x.top_level + 1)],
        list(zip(x.basepoints, y.basepoints)),
        lambda p, i, ab: (x.face(p, i)[ab[0]], y.face(p, i)[ab[1]]),
        lambda p, i, ab: (x.degeneracy(p, i)[ab[0]], y.degeneracy(p, i)[ab[1]]),
        f"prod({x.label},{y.label})")


def wedge(x: PointedSimplicialSet, y: PointedSimplicialSet) -> PointedSimplicialSet:
    """One-point union: X keeps its identifiers, Y's non-basepoint ones follow."""
    if x.top_level != y.top_level:
        raise TruncationMismatch("wedge summands have different top levels")

    part = {"x": x, "y": y}

    def key(p, side, a):
        if side == "y" and a == y.basepoints[p]:
            return ("x", x.basepoints[p])
        return (side, a)

    return _tabulate(
        [[("x", a) for a in range(x.size(p))]
         + [("y", b) for b in range(y.size(p)) if b != y.basepoints[p]]
         for p in range(x.top_level + 1)],
        [("x", bp) for bp in x.basepoints],
        lambda p, i, k: key(p - 1, k[0], part[k[0]].face(p, i)[k[1]]),
        lambda p, i, k: key(p + 1, k[0], part[k[0]].degeneracy(p, i)[k[1]]),
        f"wedge({x.label},{y.label})")


def smash(x: PointedSimplicialSet, y: PointedSimplicialSet) -> PointedSimplicialSet:
    """Product collapsed along the levelwise wedge."""
    if x.top_level != y.top_level:
        raise TruncationMismatch("smash factors have different top levels")
    prod = product(x, y)
    doomed = {}
    for p in range(x.top_level + 1):
        bx, by = x.basepoints[p], y.basepoints[p]
        ids = set()
        for b in range(y.size(p)):
            ids.add(bx * y.size(p) + b)
        for a in range(x.size(p)):
            ids.add(a * y.size(p) + by)
        doomed[p] = sorted(ids)
    return collapse(prod, doomed, f"smash({x.label},{y.label})")


def suspension(x: PointedSimplicialSet) -> PointedSimplicialSet:
    """Reduced suspension, modelled as S^1 smash X."""
    out = smash(circle(x.top_level), x)
    out.label = f"susp({x.label})"
    return out


# --- space expressions -----------------------------------------------------

# constructor -> argument kinds: "n" an integer >= 1, "e" a subexpression
_GRAMMAR = {
    "pt": "", "S1": "", "sphere": "n", "simplexsphere": "n", "torus": "n",
    "wedge": "ee", "prod": "ee", "smash": "ee", "susp": "e",
}


@dataclass(frozen=True)
class SpaceExpr:
    """Syntax tree over pt/S1/sphere(n)/simplexsphere(n)/torus(n) and
    wedge/prod/smash/susp."""

    op: str
    args: tuple = dataclass_field(default=())

    def __post_init__(self):
        kinds = _GRAMMAR.get(self.op)
        if kinds is None:
            raise MalformedExpr(f"unknown space constructor {self.op!r}")
        if len(self.args) != len(kinds) or not all(
                isinstance(a, int if kind == "n" else SpaceExpr)
                for kind, a in zip(kinds, self.args)):
            shape = ", ".join("integer" if kind == "n" else "space"
                              for kind in kinds)
            raise MalformedExpr(f"{self.op} takes ({shape})")
        if kinds == "n" and self.args[0] < 1:
            raise MalformedExpr(f"{self.op} needs n >= 1")

    def __str__(self) -> str:
        if not self.args:
            return self.op
        return f"{self.op}({','.join(str(a) for a in self.args)})"


class _ExprParser:
    def __init__(self, text: str):
        self.text = "".join(text.split())
        self.pos = 0

    def parse(self) -> SpaceExpr:
        expr = self.expr()
        if self.pos != len(self.text):
            raise MalformedExpr(f"trailing input at position {self.pos}")
        return expr

    def expr(self) -> SpaceExpr:
        name = self.name()
        kinds = _GRAMMAR.get(name)
        if kinds is None:
            raise MalformedExpr(f"unknown space constructor {name!r}")
        args = []
        for k, kind in enumerate(kinds):
            self.expect("," if k else "(")
            args.append(self.integer() if kind == "n" else self.expr())
        if kinds:
            self.expect(")")
        return SpaceExpr(name, tuple(args))

    def name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise MalformedExpr(f"expected a name at position {start}")
        return self.text[start:self.pos]

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise MalformedExpr(f"expected an integer at position {start}")
        return int(self.text[start:self.pos])

    def expect(self, ch: str):
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise MalformedExpr(f"expected {ch!r} at position {self.pos}")
        self.pos += 1


def parse_space_expr(text: str) -> SpaceExpr:
    """Parse the space grammar; whitespace-insensitive, case-sensitive."""
    return _ExprParser(text).parse()


def build_space(expr, top_level: int) -> PointedSimplicialSet:
    """Evaluate a SpaceExpr (or its string form) at the given truncation."""
    if isinstance(expr, str):
        expr = parse_space_expr(expr)
    op, args = expr.op, expr.args
    if op == "pt":
        return point(top_level)
    if op == "simplexsphere":
        return simplex_sphere(args[0], top_level)
    if op in ("S1", "sphere", "torus"):
        # S1, the smash power sphere(n) and the product power torus(n)
        join = product if op == "torus" else smash
        out = circle(top_level)
        for _ in range(args[0] - 1 if args else 0):
            out = join(out, circle(top_level))
        out.label = str(expr)
        return out
    spaces = [build_space(a, top_level) for a in args]
    return {"wedge": wedge, "prod": product, "smash": smash,
            "susp": suspension}[op](*spaces)


# --- validation ------------------------------------------------------------

@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "\n".join(self.violations)


def validate(space: PointedSimplicialSet) -> ValidationReport:
    """Check all simplicial identities within the truncation, pointedness of
    every map, and injectivity of the degeneracies."""
    v = []
    n = space.top_level
    for p in range(1, n + 1):
        for i in range(p + 1):
            if space.face(p, i)[space.basepoints[p]] != space.basepoints[p - 1]:
                v.append(f"d_{i} at level {p} does not preserve the basepoint")
    for p in range(n):
        for i in range(p + 1):
            m = space.degeneracy(p, i)
            if m[space.basepoints[p]] != space.basepoints[p + 1]:
                v.append(f"s_{i} at level {p} does not preserve the basepoint")
            if len(set(m)) != len(m):
                v.append(f"s_{i} at level {p} is not injective")
    # d_i d_j = d_{j-1} d_i for i < j
    for p in range(2, n + 1):
        for j in range(p + 1):
            for i in range(j):
                dj = space.face(p, j)
                di_low = space.face(p - 1, i)
                di = space.face(p, i)
                djm1_low = space.face(p - 1, j - 1)
                for x in range(space.size(p)):
                    if di_low[dj[x]] != djm1_low[di[x]]:
                        v.append(
                            f"d_{i} d_{j} != d_{j-1} d_{i} at level {p}, simplex {x}"
                        )
                        break
    # s_i s_j = s_{j+1} s_i for i <= j
    for p in range(n - 1):
        for j in range(p + 1):
            for i in range(j + 1):
                sj = space.degeneracy(p, j)
                si_high = space.degeneracy(p + 1, i)
                si = space.degeneracy(p, i)
                sj1_high = space.degeneracy(p + 1, j + 1)
                for x in range(space.size(p)):
                    if si_high[sj[x]] != sj1_high[si[x]]:
                        v.append(
                            f"s_{i} s_{j} != s_{j+1} s_{i} at level {p}, simplex {x}"
                        )
                        break
    # mixed identities d_i s_j
    for p in range(n):
        for j in range(p + 1):
            sj = space.degeneracy(p, j)
            for i in range(p + 2):
                di = space.face(p + 1, i)
                for x in range(space.size(p)):
                    lhs = di[sj[x]]
                    if i == j or i == j + 1:
                        rhs = x
                        law = f"d_{i} s_{j} = id"
                    elif i < j:
                        rhs = space.degeneracy(p - 1, j - 1)[space.face(p, i)[x]]
                        law = f"d_{i} s_{j} = s_{j-1} d_{i}"
                    else:
                        rhs = space.degeneracy(p - 1, j)[space.face(p, i - 1)[x]]
                        law = f"d_{i} s_{j} = s_{j} d_{i-1}"
                    if lhs != rhs:
                        v.append(f"{law} fails at level {p}, simplex {x}")
                        break
    return ValidationReport(v)


def is_connected(space: PointedSimplicialSet) -> bool:
    """True when every vertex reaches the basepoint through 1-simplices."""
    if space.size(0) == 1:
        return True
    if space.top_level < 1:
        return False
    d0, d1 = space.face(1, 0), space.face(1, 1)
    neighbours = [[] for _ in range(space.size(0))]
    for e in range(space.size(1)):
        neighbours[d0[e]].append(d1[e])
        neighbours[d1[e]].append(d0[e])
    reached, todo = {space.basepoints[0]}, [space.basepoints[0]]
    while todo:
        for y in neighbours[todo.pop()]:
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return len(reached) == space.size(0)


def are_isomorphic(x: PointedSimplicialSet, y: PointedSimplicialSet) -> bool:
    """Decide level-table isomorphism by deterministic backtracking.

    An isomorphism is a family of basepoint-preserving bijections per level
    commuting with all face and degeneracy maps.  Degenerate simplices are
    forced by lower levels, so only non-degenerate ones are searched.
    """
    if x.level_sizes != y.level_sizes or x.top_level != y.top_level:
        return False
    n = x.top_level

    def extend(p, maps):
        if p > n:
            return True
        size = x.size(p)
        forced = {x.basepoints[p]: y.basepoints[p]}
        if p > 0:
            prev = maps[p - 1]
            for i in range(p):
                sx, sy = x.degeneracy(p - 1, i), y.degeneracy(p - 1, i)
                for a in range(x.size(p - 1)):
                    img = sy[prev[a]]
                    known = forced.get(sx[a])
                    if known is not None and known != img:
                        return False
                    forced[sx[a]] = img
        if len(set(forced.values())) != len(forced):
            return False
        free = [a for a in range(size) if a not in forced]
        taken = set(forced.values())
        candidates = [b for b in range(size) if b not in taken]

        def faces_ok(a, b):
            if p == 0:
                return True
            prev = maps[p - 1]
            for i in range(p + 1):
                if prev[x.face(p, i)[a]] != y.face(p, i)[b]:
                    return False
            return True

        def assign(k, current, used):
            if k == len(free):
                maps.append(current.copy())
                if extend(p + 1, maps):
                    return True
                maps.pop()
                return False
            a = free[k]
            for b in candidates:
                if b in used or not faces_ok(a, b):
                    continue
                current[a] = b
                used.add(b)
                if assign(k + 1, current, used):
                    return True
                used.discard(b)
                del current[a]
            return False

        working = dict(forced)
        for a, b in forced.items():
            if not faces_ok(a, b):
                return False
        return assign(0, working, set(working.values()))

    return extend(0, [])
