"""Exact scalar arithmetic over prime fields and the rationals, and sparse rank
computations.

Scalars are plain Python ``int`` (reduced mod p) over a prime field and
``fractions.Fraction`` over the rationals; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush


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

    def format(self, a) -> str:
        return str(a)

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


def make_field(kind) -> FieldSpec:
    """Build a FieldSpec from a descriptor: a prime int, or "Q"/"rationals"."""
    if isinstance(kind, FieldSpec):
        return kind
    if isinstance(kind, int):
        return FieldSpec(kind)
    if isinstance(kind, str) and kind in ("Q", "rationals"):
        return FieldSpec(None)
    raise ValueError(f"unrecognized field descriptor {kind!r}")


class SparseMatrix:
    """Immutable sparse matrix over an exact field.

    Entries are stored as a mapping (row, col) -> nonzero scalar; zero scalars
    and duplicate positions are rejected at construction.
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
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", stored)

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
        return cls(rows, cols, entries, field)

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
        return SparseMatrix(
            self.cols, self.rows,
            {(c, r): v for (r, c), v in self.entries.items()}, self.field,
        )

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        field = self.field
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                s = field.add(acc.get(key, field.zero), field.mul(a, b))
                if s == field.zero:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return SparseMatrix(self.rows, other.cols, acc, field)

    def to_dense(self):
        out = [[self.field.zero] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz}, {self.field})"


def _row_elimination_rank(row_data, field) -> int:
    """Structured Gaussian elimination on a list of {col: scalar} rows.

    Pivot rows are chosen sparsest-first, pivot columns by lowest fill; ties
    break on the smaller index, so the result is deterministic.  Rows wait in
    a heap keyed (length, index); a row whose length changes is pushed again,
    and entries of eliminated rows or of stale lengths are skipped on pop.
    """
    rows = [dict(r) for r in row_data]
    col_count: dict = {}
    col_rows: dict = {}
    for i, row in enumerate(rows):
        for c in row:
            col_count[c] = col_count.get(c, 0) + 1
            col_rows.setdefault(c, set()).add(i)
    active = set(i for i, row in enumerate(rows) if row)
    heap = [(len(rows[i]), i) for i in active]
    heapify(heap)
    zero = field.zero
    rank = 0
    while heap:
        n, pi = heappop(heap)
        prow = rows[pi]
        if pi not in active or n != len(prow):
            continue
        pc = min(prow, key=lambda c: (col_count[c], c))
        pinv = field.inv(prow[pc])
        for j in sorted(col_rows[pc]):
            if j == pi or j not in active:
                continue
            jrow = rows[j]
            before = len(jrow)
            factor = field.mul(jrow[pc], pinv)
            for c, v in prow.items():
                cur = jrow.get(c, zero)
                nv = field.sub(cur, field.mul(factor, v))
                if nv == zero:
                    if c in jrow:
                        del jrow[c]
                        col_count[c] -= 1
                        col_rows[c].discard(j)
                else:
                    if c not in jrow:
                        col_count[c] = col_count.get(c, 0) + 1
                        col_rows.setdefault(c, set()).add(j)
                    jrow[c] = nv
            if not jrow:
                active.discard(j)
            elif len(jrow) != before:
                heappush(heap, (len(jrow), j))
        for c in prow:
            col_count[c] -= 1
            col_rows[c].discard(pi)
        active.discard(pi)
        rank += 1
    return rank


def rank(matrix: SparseMatrix) -> int:
    """Exact rank of a sparse matrix over its field."""
    if not matrix.entries:
        return 0
    # Eliminating along the shorter side bounds the pivot count; rank is
    # invariant under transposition.
    transposed = matrix.rows > matrix.cols
    nrows = matrix.cols if transposed else matrix.rows
    rows = [dict() for _ in range(nrows)]
    for (r, c), v in matrix.entries.items():
        if transposed:
            rows[c][r] = v
        else:
            rows[r][c] = v
    return _row_elimination_rank(rows, matrix.field)


def kernel_dim(matrix: SparseMatrix) -> int:
    """Dimension of the right kernel: cols - rank."""
    return matrix.cols - rank(matrix)
