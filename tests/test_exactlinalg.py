"""Field construction and exact sparse rank."""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import GF, QQ, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from lodayhom.exactlinalg import (
    FieldSpec, NonPrimeModulus, SparseMatrix, _row_elimination_rank,
    integer_rows, kernel_dim, make_field, rank, row_pivots,
)

F2, F3, F5 = make_field(2), make_field(3), make_field(5)
Q = make_field("Q")


class TestMakeField:
    def test_prime(self):
        assert make_field(3) == FieldSpec(3)
        assert str(F3) == "F3"

    @pytest.mark.parametrize("bad", [4, 1, 0, -7, 9, 91])
    def test_non_prime_rejected(self, bad):
        with pytest.raises(NonPrimeModulus):
            make_field(bad)

    def test_rationals(self):
        assert Q.is_rational
        assert str(Q) == "Q"

    def test_cli_spelling(self):
        assert make_field("F5") == F5
        assert make_field("Q") == Q
        with pytest.raises(NonPrimeModulus):
            make_field("F4")
        for bad in ("G5", "F", "Fp:5", "F-3"):
            with pytest.raises(ValueError):
                make_field(bad)

    def test_arithmetic_is_exact(self):
        assert F5.inv(3) == 2
        assert F5.mul(3, F5.inv(3)) == F5.one
        third = Q.inv(Fraction(3))
        assert third * 3 == 1
        assert isinstance(third, Fraction)

    def test_normalize(self):
        assert F3.normalize(-1) == 2
        assert Q.normalize(2) == Fraction(2)

    def test_floats_rejected_everywhere(self):
        with pytest.raises(TypeError):
            Q.normalize(0.5)
        with pytest.raises(TypeError):
            SparseMatrix.from_dense([[0.5]], Q)


class TestSparseMatrix:
    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, {(0, 0): 3}, F3)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, {(2, 0): 1}, F3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)], F3)

    def test_normalizes_and_checks_each_entry(self):
        assert SparseMatrix(1, 2, {(0, 1): 4}, F3).entries == {(0, 1): 1}
        assert type(SparseMatrix(1, 1, {(0, 0): 2}, Q).entries[(0, 0)]) \
            is Fraction
        with pytest.raises(TypeError):
            SparseMatrix(1, 1, {(0, 0): 0.5}, Q)
        with pytest.raises(ValueError):
            SparseMatrix(-1, 2, {}, F3)

    def test_immutable(self):
        m = SparseMatrix.identity(2, F3)
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_matmul(self):
        a = SparseMatrix.from_dense([[1, 2], [0, 1]], Q)
        b = SparseMatrix.from_dense([[1, 0], [3, 1]], Q)
        assert a.matmul(b).to_dense() == [[Fraction(7), Fraction(2)],
                                          [Fraction(3), Fraction(1)]]


class TestRank:
    def test_identity(self):
        assert rank(SparseMatrix.identity(2, F3)) == 2

    def test_zero(self):
        assert rank(SparseMatrix.zero(5, 7, F3)) == 0

    def test_proportional_rows_over_q(self):
        assert rank(SparseMatrix.from_dense([[1, 2], [2, 4]], Q)) == 1

    def test_kernel_examples(self):
        assert kernel_dim(SparseMatrix.identity(2, F5)) == 0
        assert kernel_dim(SparseMatrix.zero(3, 4, F3)) == 4
        assert kernel_dim(SparseMatrix.from_dense([[1, 1, 1]], F2)) == 2

    def test_wide_vs_tall(self):
        m = SparseMatrix.from_dense([[1, 0, 2, 1], [0, 1, 1, 1]], F3)
        assert rank(m) == rank(m.transpose()) == 2


def _random_dense(rng, rows, cols, field):
    if field.is_rational:
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(cols)] for _ in range(rows)]
    return [[rng.randint(0, field.p - 1) for _ in range(cols)]
            for _ in range(rows)]


def _dense_rank_oracle(data, field):
    """Plain full-pivot elimination on a dense copy, independent of the
    structured sparse path."""
    m = [[field.normalize(v) for v in row] for row in data]
    nrows, ncols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != field.zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        r += 1
    return r


@pytest.mark.parametrize("field", [F2, F3, F5, Q])
def test_rank_matches_dense_oracle(field):
    rng = Random(1234)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = _random_dense(rng, rows, cols, field)
        assert rank(SparseMatrix.from_dense(data, field)) == \
            _dense_rank_oracle(data, field)


def test_rank_mod_p_vs_rational_rank_and_elementary_divisors():
    """Over F_p the rank of an integer matrix drops by the number of
    elementary divisors divisible by p."""
    rng = Random(99)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        data = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        sym = Matrix(data)
        q_rank = sym.rank()
        snf = smith_normal_form(sym)
        divisors = [snf[i, i] for i in range(min(rows, cols)) if snf[i, i] != 0]
        assert rank(SparseMatrix.from_dense(data, Q)) == q_rank
        for p in (2, 3, 5):
            drop = sum(1 for d in divisors if d % p == 0)
            got = rank(SparseMatrix.from_dense(data, make_field(p)))
            assert got == q_rank - drop


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
        min_size=1, max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    modulus=st.sampled_from([2, 3, 5, None]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rank_invariant_under_permutations(data, modulus, seed):
    field = Q if modulus is None else make_field(modulus)
    m = SparseMatrix.from_dense(data, field)
    base = rank(m)
    assert base <= min(m.rows, m.cols)
    rng = Random(seed)
    row_perm = list(range(m.rows))
    col_perm = list(range(m.cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    permuted = SparseMatrix(
        m.rows, m.cols,
        {(row_perm[r], col_perm[c]): v for (r, c), v in m.entries.items()},
        field)
    assert rank(permuted) == base


@st.composite
def tied_sparse_rows(draw):
    """Dense 0/+-1 rows with the same number of nonzeros each, so rows tie on
    length and columns often tie on how many rows hold them, and the order
    of elimination falls to the index tie-breaks."""
    nrows = draw(st.integers(min_value=2, max_value=10))
    cols = draw(st.integers(min_value=nrows, max_value=12))
    length = draw(st.integers(min_value=1, max_value=min(3, cols)))
    data = []
    for _ in range(nrows):
        support = draw(st.lists(st.integers(0, cols - 1), min_size=length,
                                max_size=length, unique=True))
        row = [0] * cols
        for c in support:
            row[c] = draw(st.sampled_from([1, -1]))
        data.append(row)
    return data


@settings(max_examples=150, deadline=None)
@given(data=tied_sparse_rows(), field=st.sampled_from([F2, F3, Q]))
def test_rank_with_tied_row_lengths_matches_dense_oracle(data, field):
    assert rank(SparseMatrix.from_dense(data, field)) == \
        _dense_rank_oracle(data, field)


def _random_sparse_rows(rng, field, max_side):
    """Sparse {col: scalar} rows, some of them combinations of earlier rows
    (so the rank falls short) and, over Q, some multiplied by a common
    factor (so the content division of the integer scaling has work)."""
    nrows, ncols = rng.randint(1, max_side), rng.randint(1, max_side)
    density = rng.choice((0.1, 0.25, 0.5, 1.0))

    def scalar():
        if field.is_rational:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6),
                            rng.randint(1, 10**3))
        return rng.randint(1, field.p - 1)

    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            s, t = scalar(), scalar()
            row = {c: field.add(field.mul(s, a.get(c, field.zero)),
                                field.mul(t, b.get(c, field.zero)))
                   for c in set(a) | set(b)}
        else:
            row = {c: scalar() for c in range(ncols) if rng.random() < density}
        if field.is_rational and rng.random() < 0.3:
            factor = rng.randint(2, 60)
            row = {c: factor * v for c, v in row.items()}
        rows.append({c: v for c, v in row.items() if v != field.zero})
    return rows, ncols


def _assert_primitive_integer_rows(rows):
    for row in rows:
        assert all(type(v) is int for v in row.values())
        if row:
            assert gcd(*row.values()) == 1


def _sympy_rank(dense, ncols, field):
    """Rank from sympy's dense domain matrices over QQ or GF(p);
    ``Matrix.rank`` takes minutes on some 30 x 30 rational inputs."""
    if field.is_rational:
        domain = QQ
        data = [[QQ(v.numerator, v.denominator) for v in row] for row in dense]
    else:
        domain = GF(field.p)
        data = [[domain(v) for v in row] for row in dense]
    return DomainMatrix(data, (len(dense), ncols), domain).rank()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       modulus=st.sampled_from([None, None, 2, 3, 5, 7, 101]))
# small rational inputs that need both the row scale and the content
# division, tried first: without the row scale, values grow exponentially
# on a large input and the test would stall there instead of failing
@example(seed=146, modulus=None)
@example(seed=474, modulus=None)
def test_integer_kernel_rank_on_larger_matrices(seed, modulus):
    """Up to 30 x 30, with rational entries of numerators up to 10^6 and
    denominators up to 10^3, against the dense oracle and sympy; over Q the
    rows, scaled to ints by ``integer_rows``, are left as primitive integer
    rows."""
    field = Q if modulus is None else make_field(modulus)
    rows, ncols = _random_sparse_rows(Random(seed), field, 30)
    dense = [[row.get(c, field.zero) for c in range(ncols)] for row in rows]
    expected = _dense_rank_oracle(dense, field)
    assert _sympy_rank(dense, ncols, field) == expected
    if field.is_rational:
        integer_rows(rows)
    pivots = _row_elimination_rank(rows, field)
    assert len(pivots) == expected
    if field.is_rational:
        _assert_primitive_integer_rows(rows)


def _field_method_elimination(row_data, field):
    """The pivot rule of the integer kernel, run on field methods: columns
    ordered once by (rows holding them, index), rows taken by (length,
    index), each row reduced by the pivot row of its lead until the lead is
    free or the row is empty.  The reference for the kernel's pivots and
    rows."""
    rows = [dict(r) for r in row_data]
    counts = Counter(c for row in rows for c in row)
    zero = field.zero
    by_lead = {}
    pivots = []
    for i in sorted(range(len(rows)), key=lambda i: (len(rows[i]), i)):
        row = rows[i]
        while row:
            lead = min(row, key=lambda c: (counts[c], c))
            if lead not in by_lead:
                by_lead[lead] = row
                pivots.append((i, lead))
                break
            prow = by_lead[lead]
            factor = field.mul(row[lead], field.inv(prow[lead]))
            for c, v in prow.items():
                nv = field.sub(row.get(c, zero), field.mul(factor, v))
                if nv == zero:
                    row.pop(c, None)
                else:
                    row[c] = nv
    return pivots, rows


@pytest.mark.parametrize("field", [F2, F3, F5, Q])
def test_integer_kernel_takes_the_field_method_pivots(field):
    """Same (row, column) pivots in the same order, and the same rows left
    behind: equal over F_p, over Q the primitive integer multiple of each
    rational row."""
    rng = Random(4321)
    for _ in range(50):
        rows, _ = _random_sparse_rows(rng, field, 16)
        want_pivots, want_rows = _field_method_elimination(rows, field)
        got_rows = [dict(r) for r in rows]
        if field.is_rational:
            integer_rows(got_rows)
        assert _row_elimination_rank(got_rows, field) == want_pivots
        if not field.is_rational:
            assert got_rows == want_rows
            continue
        _assert_primitive_integer_rows(got_rows)
        for got, want in zip(got_rows, want_rows):
            assert got.keys() == want.keys()
            if got:
                c = next(iter(got))
                ratio = Fraction(got[c]) / want[c]
                assert all(got[k] == ratio * want[k] for k in got)


@pytest.mark.parametrize("field", [F2, F3])
def test_a_row_with_a_private_column_pivots_there_untouched(field):
    """Columns 5 and 6 are each held by one row, so those rows pivot on them
    with no update, although both share column 0 or 1 with the first row."""
    rows = [{0: 1, 1: 1}, {0: 1, 2: 1, 5: 1}, {1: 1, 2: 1, 6: 1}]
    got = [dict(r) for r in rows]
    assert _row_elimination_rank(got, field) == [(0, 0), (1, 5), (2, 6)]
    assert got == rows


def _int_rows(dense, field):
    """The rows of ``dense`` as ``{col: scalar}`` dicts, over Q each scaled
    to integers by the lcm of its denominators: the row-dict entry takes
    ints over Q as they are."""
    out = []
    for row in dense:
        entries = {c: v for c, v in enumerate(row) if v != field.zero}
        if field.is_rational and entries:
            den = lcm(*[v.denominator for v in entries.values()])
            entries = {c: int(v * den) for c, v in entries.items()}
        out.append(entries)
    return out


def _assert_pivots_span_a_nonsingular_block(matrix):
    """The pivots ``row_pivots`` takes on the rows of ``matrix``: distinct
    rows and columns inside the matrix, as many as its dense rank and its
    ``rank``, spanning a nonsingular square submatrix."""
    field = matrix.field
    dense = matrix.to_dense()
    found = row_pivots(_int_rows(dense, field), matrix.cols, field)
    prows = [r for r, _ in found]
    pcols = [c for _, c in found]
    assert len(set(prows)) == len(prows)
    assert len(set(pcols)) == len(pcols)
    assert all(0 <= r < matrix.rows for r in prows)
    assert all(0 <= c < matrix.cols for c in pcols)
    assert len(found) == _dense_rank_oracle(dense, field) == rank(matrix)
    square = [[dense[r][c] for c in pcols] for r in prows]
    assert _dense_rank_oracle(square, field) == len(found)


@pytest.mark.parametrize("field", [F2, F3, F5, Q])
def test_pivots_of_tall_and_wide_matrices(field):
    """Both orientations of the elimination."""
    rng = Random(2011)
    shapes = {"tall": 0, "wide": 0}
    for _ in range(40):
        rows, ncols = _random_sparse_rows(rng, field, 14)
        built = SparseMatrix(len(rows), ncols,
                             {(r, c): v for r, row in enumerate(rows)
                              for c, v in row.items()}, field)
        for matrix in (built, built.transpose()):
            if matrix.rows != matrix.cols:
                shapes["tall" if matrix.rows > matrix.cols else "wide"] += 1
            _assert_pivots_span_a_nonsingular_block(matrix)
    assert min(shapes.values()) >= 20
