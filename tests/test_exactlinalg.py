"""Field construction and exact sparse rank."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from lodayhom.exactlinalg import (
    FieldSpec, NonPrimeModulus, SparseMatrix, kernel_dim, make_field, rank,
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
    """Dense 0/+-1 rows with the same number of nonzeros each, so pivot
    candidates tie on length and elimination leaves stale heap entries."""
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
