"""Exact scalar arithmetic over prime fields and the rationals, and sparse rank
computations.

Scalars are plain Python ``int`` (reduced mod p) over a prime field and
``fractions.Fraction`` over the rationals; there is no floating point anywhere.

Rank eliminates on plain ints in both cases: reduced with ``% p`` over F_p,
and fraction-free over Q, where each row is kept as an integer multiple of
its rational value.  Rows of ``Fraction``s are scaled to ints where they are
made (``integer_rows``: by the lcm of their denominators, then down by the
gcd of their entries), and a row is divided by the gcd of its entries after
every update.  Scaling a row by a nonzero factor leaves its zero pattern
alone, and the pivot order reads only zero patterns, so the pivots and the
fill-in are those of field arithmetic.

``row_pivots`` is the one elimination entry: it takes a block as its rows,
``{column: scalar}`` dicts, which ``loday`` builds row by row and hands over
as they are, and returns the (row, column) pairs that elimination takes.
``SparseMatrix`` is only the form of the eager ``LodayComplex.boundaries``
view and of matrices built outside the library; ``rank`` of one is the
number of pivots on its rows.
``loday.homology_dims`` uses the pivot columns to clear boundary blocks:
the pivot columns of ``∂_p`` are left out of the rows of ``∂_{p+1}``, which
by ``∂∂ = 0`` keeps the rank (Chen–Kerber's clearing, in the cohomology direction of
de Silva–Morozov–Vejdemo-Johansson).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class NonPrimeModulus(ValueError):
    """A prime field was requested with a modulus that is not prime."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: F_p for a prime p, or the rationals when ``p`` is None."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise NonPrimeModulus(f"modulus {self.p} is not a prime >= 2")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def normalize(self, x):
        """Bring an int/Fraction into canonical form for this field.

        Floats are rejected: every scalar in the package is exact.
        """
        if isinstance(x, float):
            raise TypeError("floating-point scalars are not allowed")
        if self.p is None:
            return Fraction(x)
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero in F_p")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return Fraction(1) / a

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


def make_field(kind) -> FieldSpec:
    """Build a FieldSpec from a descriptor: a prime int, its spelling "F<p>",
    or "Q"/"rationals"."""
    if isinstance(kind, FieldSpec):
        return kind
    if isinstance(kind, int):
        return FieldSpec(kind)
    if isinstance(kind, str) and kind in ("Q", "rationals"):
        return FieldSpec(None)
    if isinstance(kind, str) and kind[:1] == "F" and kind[1:].isdigit():
        return FieldSpec(int(kind[1:]))
    raise ValueError(f"unrecognized field descriptor {kind!r}: use F<p> or Q")


class SparseMatrix:
    """Immutable sparse matrix over an exact field.

    Entries are stored as a mapping (row, col) -> nonzero scalar; zero scalars
    and duplicate positions are rejected at construction.  Matrices the
    library builds from entries it has already normalized skip these checks
    through ``_trusted``.
    """

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows: int, cols: int, entries, field: FieldSpec):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        stored = {}
        if hasattr(entries, "items"):
            items = entries.items()
        else:
            items = (((r, c), v) for (r, c, v) in entries)
        for key, value in items:
            r, c = key
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry position {key} out of bounds")
            if key in stored:
                raise ValueError(f"duplicate entry at {key}")
            v = field.normalize(value)
            if v == field.zero:
                raise ValueError(f"stored zero scalar at {key}")
            stored[key] = v
        self._adopt(rows, cols, stored, field)

    def _adopt(self, rows, cols, entries, field):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict,
                 field: FieldSpec) -> "SparseMatrix":
        """Take ownership of ``entries``, a dict of in-bounds positions to
        normalized nonzero scalars of ``field``, without checking it."""
        matrix = object.__new__(cls)
        matrix._adopt(rows, cols, entries, field)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @classmethod
    def from_dense(cls, data, field: FieldSpec) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged dense input")
            for c, v in enumerate(row):
                v = field.normalize(v)
                if v != field.zero:
                    entries[(r, c)] = v
        return cls._trusted(rows, cols, entries, field)

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "SparseMatrix":
        return cls(n, n, {(i, i): field.one for i in range(n)}, field)

    @classmethod
    def zero(cls, rows: int, cols: int, field: FieldSpec) -> "SparseMatrix":
        return cls(rows, cols, {}, field)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._trusted(
            self.cols, self.rows,
            {(c, r): v for (r, c), v in self.entries.items()}, self.field,
        )

    def to_dense(self):
        out = [[self.field.zero] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz}, {self.field})"


def _primitive(row) -> None:
    """Divide an integer row, in place, by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        for c, v in row.items():
            row[c] = v // g


def integer_rows(rows) -> list:
    """Scale each of the rational rows ``{col: scalar}``, in place, to its
    primitive integer multiple: by the lcm of its denominators, then down by
    the gcd of its entries.  Each row keeps its zero pattern, and so its
    pivots; ``rows`` is returned."""
    for row in rows:
        if row:
            den = lcm(*[v.denominator for v in row.values()])
            for c, v in row.items():
                row[c] = v.numerator * (den // v.denominator)
            _primitive(row)
    return rows


def _row_elimination_rank(rows, field) -> list:
    """Left-looking Gaussian elimination on a list of {col: scalar} rows,
    which it owns and overwrites; returns the (row, column) pivots in the
    order they were taken, so their number is the rank.

    The columns are ordered once, before any update, by how many rows hold
    them, then by index.  Rows are taken sparsest first, ties on the smaller
    index.  A row's lead is its first column in that order.  While another
    row already pivots on the lead, that pivot row is subtracted, which
    clears the lead and leaves only later columns; the first free lead
    becomes the row's pivot, and a row that empties is dependent.  The only
    state is the table of pivot rows keyed by lead (Bauer's Ripser reduction
    has the same shape), and a pivot row is never touched again.  A column
    that no other row holds sorts before every shared column of its row, so
    such a row pivots there at once and costs no update, and no other row
    can ever need it.

    Entries are nonzero ints, also over Q: rows made of ``Fraction``s are
    scaled to ints first (``integer_rows``) by whoever makes them.  Over F_p
    a row update is ``(x - f * v) % p``.  Over Q rows are eliminated
    fraction-free: with ``g = gcd(pv, jv)`` of the pivot entry and the
    eliminated one, ``jrow <- (pv/g) jrow - (jv/g) prow``, divided by its
    content.  A stored row is thus always a nonzero multiple of the row that
    rational arithmetic would hold, with the same zero pattern; as the
    choices above read only zero patterns, the pivots and the fill-in are
    those of elimination with field arithmetic.
    """
    p = field.p
    counts = Counter(chain.from_iterable(rows))
    width = max(counts, default=0) + 1
    order = {c: n * width + c for c, n in counts.items()}.__getitem__
    by_lead: dict = {}
    pivots = []
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        jrow = rows[i]
        while jrow:
            lead = min(jrow, key=order)
            prow = by_lead.get(lead)
            if prow is None:
                by_lead[lead] = jrow
                pivots.append((i, lead))
                break
            pv, jv = prow[lead], jrow[lead]
            if p is not None:
                f = jv * pow(pv, -1, p) % p
            else:
                g = gcd(pv, jv)
                if pv < 0:
                    g = -g
                scale, f = pv // g, jv // g
                if scale != 1:
                    for c, x in jrow.items():
                        jrow[c] = scale * x
            # the lead is among prow's columns and cancels here
            for c, v in prow.items():
                x = jrow.get(c)
                if x is None:
                    jrow[c] = -f * v % p if p else -f * v
                    continue
                x = (x - f * v) % p if p else x - f * v
                if x:
                    jrow[c] = x
                else:
                    del jrow[c]
            if p is None and jrow:
                _primitive(jrow)
    return pivots


def row_pivots(rows, cols: int, field: FieldSpec) -> list:
    """The (row, column) pivots that elimination takes on the matrix with
    ``cols`` columns whose rows are the ``{column: scalar}`` dicts ``rows``,
    in the order it takes them; their number is the rank.  The rows are
    distinct, the columns are distinct, and the square submatrix they span is
    nonsingular.

    This is the elimination entry: ``loday`` hands it the rows of each block
    it builds, and ``rank`` the rows of a ``SparseMatrix``.  Scalars are
    nonzero ints, reduced mod p over F_p; over Q rows of ``Fraction``s go
    through ``integer_rows`` first.  The rows are owned and overwritten.
    Elimination runs along the shorter side, which bounds the pivot count;
    when that is the column side the rows are transposed first and the
    pairs flipped back, so they are always (row, column) of the matrix.
    """
    if len(rows) <= cols:
        return _row_elimination_rank(rows, field)
    transposed = [{} for _ in range(cols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            transposed[c][r] = v
    return [(r, c) for c, r in _row_elimination_rank(transposed, field)]


def rank(matrix: SparseMatrix) -> int:
    """Exact rank of a sparse matrix over its field: the number of
    ``row_pivots`` of its rows, scaled to ints over Q (``integer_rows``)."""
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    if matrix.field.p is None:
        integer_rows(rows)
    return len(row_pivots(rows, matrix.cols, matrix.field))

