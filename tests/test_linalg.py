import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar.grading import stacked_killing_matrix
from apolar.linalg import (
    RationalMatrix,
    echelon_with_combinations,
    forward_echelon,
    reduce_against,
)
from conftest import random_form
from oracles import matvec

IDENTITY_2 = RationalMatrix([[1, 0], [0, 1]])


def rows_of(M):
    return [list(M.row(i)) for i in range(M.rows)]


def test_rank_identity():
    assert IDENTITY_2.rank() == 2


def test_rank_zero_matrix():
    assert RationalMatrix([[0] * 4] * 3).rank() == 0


def test_rank_proportional_rows():
    assert RationalMatrix([[1, 2], [2, 4]]).rank() == 1


def test_rank_rational_entries():
    # det = 1/2 - (1/3)(3/2) = 0, so the rows are dependent
    assert RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]).rank() == 1
    assert RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]).rank() == 2


def test_solve_zero_rhs():
    M = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    assert M.solve([0, 0]) == (0, 0, 0)


def test_solve_identity():
    assert IDENTITY_2.solve([3, 5]) == (3, 5)


def test_solve_inconsistent():
    M = RationalMatrix([[1, 0], [1, 0]])
    assert M.solve([1, 2]) is None


def test_solve_free_variables_zero():
    M = RationalMatrix([[1, 1, 0], [0, 0, 1]])
    x = M.solve([5, 7])
    assert x == (5, 0, 7)
    assert matvec(M, x) == (5, 7)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        IDENTITY_2.solve([1, 2, 3])


def test_kernel_identity_empty():
    assert RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel_basis() == []


def test_kernel_zero_matrix():
    basis = RationalMatrix([[0] * 3] * 2).kernel_basis()
    assert len(basis) == 3


def test_kernel_single_row():
    (v,) = RationalMatrix([[1, 1]]).kernel_basis()
    assert v[0] * (-1) == v[1] and v[0] != 0


def test_stacked_and_transpose():
    A = RationalMatrix([[1, 2], [3, 4]])
    B = RationalMatrix([[5, 6]])
    S = RationalMatrix.stacked([A, B])
    assert S.rows == 3 and S.row(2) == (5, 6)
    assert S.transpose().row(0) == (1, 3, 5)


def test_from_columns_round_trip():
    A = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    assert RationalMatrix.from_columns([A.transpose().row(j) for j in range(3)]) == A


def test_rref_pivots_and_reduction():
    M = RationalMatrix([[0, 2, 4], [1, 1, 1]])
    red, pivots = M.rref()
    assert pivots == (0, 1)
    assert red.row(0) == (1, 0, -1)
    assert red.row(1) == (0, 1, 2)


def test_echelon_with_combinations_reconstructs():
    vectors = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    ech = echelon_with_combinations(vectors)
    assert len(ech) == 2
    for row, combo in ech:
        rebuilt = [
            sum(combo[k] * Fraction(vectors[k][i]) for k in range(3)) for i in range(3)
        ]
        assert tuple(rebuilt) == row


def test_reduce_against_full_membership():
    vectors = [(1, 0, 1), (0, 1, 1)]
    ech = echelon_with_combinations(vectors)
    residual, combo = reduce_against(ech, (2, 3, 5))
    assert residual == (0, 0, 0)
    assert combo == (2, 3)


def test_reduce_against_partial():
    vectors = [(1, 0, 0)]
    ech = echelon_with_combinations(vectors)
    residual, combo = reduce_against(ech, (4, 1, 0))
    assert residual == (0, 1, 0)
    assert combo == (4,)


def test_echelon_and_reduce_reject_mismatched_lengths():
    with pytest.raises(ValueError):
        echelon_with_combinations([(1, 2), (1, 2, 3)])
    ech = echelon_with_combinations([(1, 0, 1)])
    with pytest.raises(ValueError):
        reduce_against(ech, (1, 0))


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(small_fractions, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return RationalMatrix(data)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_round_trip(M, data):
    x = [
        data.draw(small_fractions, label=f"x{j}") for j in range(M.cols)
    ]
    b = matvec(M, x)
    got = M.solve(b)
    assert got is not None
    assert matvec(M, got) == b


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(M):
    assert M.rank() == M.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(M):
    for v in M.kernel_basis():
        assert all(x == 0 for x in matvec(M, v))
    assert M.rank() + len(M.kernel_basis()) == M.cols


@settings(max_examples=40, deadline=None)
@given(matrices(), st.data())
def test_rank_invariant_under_row_scaling(M, data):
    scales = [
        data.draw(st.sampled_from([Fraction(1, 2), 2, -3, Fraction(5, 3)]))
        for _ in range(M.rows)
    ]
    scaled = RationalMatrix(
        [[scales[i] * x for x in M.row(i)] for i in range(M.rows)]
    )
    assert scaled.rank() == M.rank()


# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan reference: the library eliminates over the integers,
# these oracles over the rationals.  Reduced echelon forms are unique and the
# pivot choice depends only on which entries are zero, so both must agree
# exactly, including the free-variables-zero solutions and the echelon pairs.
# ---------------------------------------------------------------------------


def oracle_rref(rows, ncols):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, tuple(pivots)


def oracle_kernel(rows, ncols):
    red, pivots = oracle_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][free]
        basis.append(tuple(v))
    return basis


def oracle_solve(rows, ncols, b):
    if not rows:
        return tuple(Fraction(0) for _ in range(ncols))
    red, pivots = oracle_rref([list(r) + [bi] for r, bi in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return tuple(x)


def oracle_echelon(vectors):
    vecs = [[Fraction(x) for x in v] for v in vectors]
    n = len(vecs)
    out = []
    for k, v in enumerate(vecs):
        cur = list(v)
        combo = [Fraction(0)] * n
        combo[k] = Fraction(1)
        for row, rcombo in out:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if cur[lead] != 0:
                f = cur[lead] / row[lead]
                cur = [a - f * b for a, b in zip(cur, row)]
                combo = [a - f * b for a, b in zip(combo, rcombo)]
        if any(x != 0 for x in cur):
            out.append((cur, combo))
    return [(tuple(r), tuple(c)) for r, c in out]


def oracle_reduce(echelon, vector):
    cur = [Fraction(x) for x in vector]
    total = None
    for row, rcombo in echelon:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if cur[lead] != 0:
            f = cur[lead] / row[lead]
            cur = [a - f * b for a, b in zip(cur, row)]
            scaled = [f * c for c in rcombo]
            total = scaled if total is None else [a + b for a, b in zip(total, scaled)]
    if total is None:
        total = [Fraction(0)] * (len(echelon[0][1]) if echelon else 0)
    return tuple(cur), tuple(total)


def assert_same(got, want):
    """Equal values, and every entry a Fraction as the oracle gives."""
    assert got == want
    assert all(type(x) is Fraction for x in _entries(got))


def _entries(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _entries(item)
    else:
        yield value


oracle_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=15),
)


@st.composite
def oracle_matrices(draw):
    """Rows of p/q entries, with zero rows and repeated or scaled rows mixed in.

    Both dimensions run from 0 to 8 independently, so tall, wide, square and
    empty shapes all occur.
    """
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("random", "random", "zero", "copy")))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "copy" and rows:
            source = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((1, -1, 3, Fraction(-2, 7))))
            rows.append([scale * x for x in source])
        else:
            rows.append(draw(st.lists(oracle_entries, min_size=ncols, max_size=ncols)))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(oracle_matrices())
def test_rref_and_kernel_match_oracle(case):
    rows, ncols = case
    M = RationalMatrix(rows)
    width = M.cols if rows else 0
    red, pivots = M.rref()
    want_red, want_pivots = oracle_rref(rows, width)
    assert pivots == want_pivots
    assert_same(rows_of(red), want_red)
    assert_same(M.kernel_basis(), oracle_kernel(rows, width))


@settings(max_examples=300, deadline=None)
@given(oracle_matrices())
def test_forward_echelon_pivots_every_prefix(case):
    # the pivots of input rows below k are the rref pivots of rows[:k], and
    # each returned row is a combination of the rows up to its own
    rows, ncols = case
    got = forward_echelon(rows)
    assert [c for _, c, _ in got] == sorted(c for _, c, _ in got)
    assert RationalMatrix(rows).rank() == len(got)
    for k in range(len(rows) + 1):
        assert tuple(sorted(c for i, c, _ in got if i < k)) == oracle_rref(rows[:k], ncols)[1]
    for i, c, row in got:
        assert not any(row[:c]) and row[c]
        span = oracle_rref(rows[: i + 1], ncols)[1]
        assert oracle_rref(rows[: i + 1] + [row], ncols)[1] == span


@settings(max_examples=300, deadline=None)
@given(oracle_matrices(), st.sampled_from(("image", "random", "off-image")), st.data())
def test_solve_matches_oracle(case, mode, data):
    rows, ncols = case
    M = RationalMatrix(rows)
    if mode == "image":
        x = data.draw(st.lists(oracle_entries, min_size=M.cols, max_size=M.cols))
        b = list(matvec(M, x))
    else:
        b = data.draw(st.lists(oracle_entries, min_size=M.rows, max_size=M.rows))
    if mode == "off-image":
        # a zero row with a nonzero right-hand side: never solvable
        M = RationalMatrix(rows + [[Fraction(0)] * M.cols])
        rows, b = rows_of(M), b + [Fraction(1)]
    got = M.solve(b)
    want = oracle_solve(rows, M.cols, b)
    assert got == want
    if mode == "image":
        assert got is not None
    if mode == "off-image":
        assert got is None
    if got is not None:
        assert_same(got, want)


@settings(max_examples=300, deadline=None)
@given(oracle_matrices(), st.sampled_from(("span", "random")), st.data())
def test_echelon_and_reduce_match_oracle(case, mode, data):
    rows, ncols = case
    ech = echelon_with_combinations(rows)
    want_ech = oracle_echelon(rows)
    assert_same(ech, want_ech)
    if mode == "span" and rows:
        coeffs = data.draw(st.lists(oracle_entries, min_size=len(rows), max_size=len(rows)))
        vector = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    else:
        vector = data.draw(st.lists(oracle_entries, min_size=ncols, max_size=ncols))
    got = reduce_against(ech, vector)
    want = oracle_reduce(want_ech, vector)
    assert_same(got, want)
    if mode == "span" and rows:
        assert all(x == 0 for x in got[0])


def test_large_entry_killing_matrix_matches_oracle():
    # two dense quintics in 4 variables, as in the graded workload: at gap 2
    # the reduced form of the stacked killing matrix has entries over 100 bits
    rng = random.Random(0)
    forms = [random_form(rng, 4, 5) for _ in range(2)]
    M = stacked_killing_matrix(forms, 2)
    rows = rows_of(M)
    red, pivots = M.rref()
    want_red, want_pivots = oracle_rref(rows, M.cols)
    assert pivots == want_pivots
    assert_same(rows_of(red), want_red)
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in want_red for x in row)
    assert bits > 100
    assert_same(M.kernel_basis(), oracle_kernel(rows, M.cols))
    target = [Fraction(rng.randint(-3, 3)) for _ in range(M.rows)]
    assert M.solve(target) == oracle_solve(rows, M.cols, target)
    ech = echelon_with_combinations(rows)
    want_ech = oracle_echelon(rows)
    assert_same(ech, want_ech)
    vector = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(M.cols)]
    assert_same(reduce_against(ech, vector), oracle_reduce(want_ech, vector))
