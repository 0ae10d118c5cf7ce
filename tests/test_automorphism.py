from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (
    DualPolynomial,
    JetPolynomial,
    TruncatedAutomorphism,
    dual_apply,
    monomials,
    monomials_up_to,
    pairing,
    parse_dual,
    parse_jet,
)
from apolar.linalg import RationalMatrix
from apolar.poly import Exponent

from conftest import random_polynomial
from oracles import compose, dense_dual_apply, matmul, perturbation_block, substitute


def identity_is(phi):
    n, s = phi.num_vars, phi.truncation_order
    return all(
        phi.images[j] == JetPolynomial.monomial(n, s, Exponent.unit(n, j)) for j in range(n)
    )


def identity_matrix(k):
    return RationalMatrix([[int(i == j) for j in range(k)] for i in range(k)])


def identity_automorphism(n, s):
    return TruncatedAutomorphism.with_perturbation(n, s, 1, [0] * n * len(monomials(n, 2)))


def test_zero_coefficients_give_identity():
    phi = TruncatedAutomorphism.with_perturbation(2, 4, 1, [0] * 6)
    assert identity_is(phi)
    assert phi.matrix() == identity_matrix(15)


def test_perturbation_layout():
    # blocks run variable by variable, each over the canonical degree-2 order
    i, jj, k = 2, 3, 5
    phi = TruncatedAutomorphism.with_perturbation(2, 4, 1, [0, 0, 0, i, jj, k])
    assert phi.images[0] == parse_jet("x1", 2, 4)
    assert phi.images[1] == parse_jet(f"x2 + {i}*x1^2 + {jj}*x1*x2 + {k}*x2^2", 2, 4)


def test_full_gap_truncates_to_identity():
    # perturbation degree s+1 falls outside the truncated ring
    phi = TruncatedAutomorphism.with_perturbation(2, 4, 4, [0] * 2 * len(monomials(2, 5)))
    assert identity_is(phi)
    phi2 = TruncatedAutomorphism.with_perturbation(2, 3, 3, [1] * (2 * len(monomials(2, 4))))
    assert identity_is(phi2)


def test_coefficient_length_checked():
    with pytest.raises(ValueError):
        TruncatedAutomorphism.with_perturbation(2, 4, 1, [0] * 5)


def test_singular_linear_part_rejected():
    imgs = [parse_jet("x1", 2, 3), parse_jet("2*x1", 2, 3)]
    with pytest.raises(ValueError):
        TruncatedAutomorphism(2, 3, imgs)


def test_nonzero_constant_rejected():
    imgs = [parse_jet("x1 + 1", 2, 3), parse_jet("x2", 2, 3)]
    with pytest.raises(ValueError):
        TruncatedAutomorphism(2, 3, imgs)


def test_matrix_of_identity():
    phi = identity_automorphism(2, 3)
    assert phi.matrix() == identity_matrix(10)


def test_matrix_quintic_column_by_hand():
    # phi(x2^3) = (x2 + P)^3 with P = i x1^2 + j x1 x2 + k x2^2, truncated at 5:
    # x2^3 + 3 x2^2 P (degree 4) + 3 x2 P^2 (degree 5)
    i, jj, k = 2, -1, 3
    per = [0, 0, 0, i, jj, k]
    phi = TruncatedAutomorphism.with_perturbation(2, 5, 1, per)
    M = phi.matrix()
    basis = list(monomials_up_to(2, 5))
    col = basis.index(Exponent((0, 3)))
    expected = {
        Exponent((0, 3)): 1,
        Exponent((2, 2)): 3 * i,
        Exponent((1, 3)): 3 * jj,
        Exponent((0, 4)): 3 * k,
        Exponent((4, 1)): 3 * i * i,
        Exponent((3, 2)): 6 * i * jj,
        Exponent((2, 3)): 3 * (jj * jj + 2 * i * k),
        Exponent((1, 4)): 6 * jj * k,
        Exponent((0, 5)): 3 * k * k,
    }
    for r, e in enumerate(basis):
        assert M[r, col] == expected.get(e, 0)


def test_matrix_of_diagonal_scaling():
    # x1 -> c x1 makes the matrix diagonal with c^(first exponent)
    c = Fraction(3)
    imgs = [parse_jet("3*x1", 2, 4), parse_jet("x2", 2, 4)]
    phi = TruncatedAutomorphism(2, 4, imgs)
    M = phi.matrix()
    basis = list(monomials_up_to(2, 4))
    for r, e in enumerate(basis):
        for col, f in enumerate(basis):
            want = c ** e[0] if e == f else 0
            assert M[r, col] == want


def test_perturbation_block_zero():
    B = perturbation_block(2, 4, 1, [0] * 6)
    assert B == RationalMatrix([[0] * 4] * 5)


def test_perturbation_block_single_entry():
    # only a^2 at exponent (0,2): the (L=(0,4), W=(0,3)) entry is w_2 * a = 3k
    k = Fraction(7)
    B = perturbation_block(2, 4, 1, [0, 0, 0, 0, 0, k])
    rows = list(monomials(2, 4))
    cols = list(monomials(2, 3))
    assert B[rows.index(Exponent((0, 4))), cols.index(Exponent((0, 3)))] == 3 * k


def _block_of_matrix(phi, gap):
    """Rows of top degree, columns of degree s - gap, straight from matrix()."""
    n, s = phi.num_vars, phi.truncation_order
    basis = list(monomials_up_to(n, s))
    row_ix = [basis.index(e) for e in monomials(n, s)]
    col_ix = [basis.index(e) for e in monomials(n, s - gap)]
    M = phi.matrix()
    return RationalMatrix([[M[r, c] for c in col_ix] for r in row_ix])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_perturbation_block_matches_matrix(data):
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(2, 4))
    gap = data.draw(st.integers(1, s - 1))
    width = n * len(monomials(n, gap + 1))
    coeffs = [data.draw(st.integers(-3, 3)) for _ in range(width)]
    phi = TruncatedAutomorphism.with_perturbation(n, s, gap, coeffs)
    assert perturbation_block(n, s, gap, coeffs) == _block_of_matrix(phi, gap)


def test_perturbation_block_linear_in_coefficients():
    import random

    rng = random.Random(3)
    width = 2 * len(monomials(2, 2))
    a = [rng.randint(-3, 3) for _ in range(width)]
    b = [rng.randint(-3, 3) for _ in range(width)]
    Ba = perturbation_block(2, 5, 1, a)
    Bb = perturbation_block(2, 5, 1, b)
    Bsum = perturbation_block(2, 5, 1, [x + y for x, y in zip(a, b)])
    for r in range(Ba.rows):
        for c in range(Ba.cols):
            assert Bsum[r, c] == Ba[r, c] + Bb[r, c]


# ---- dual action -------------------------------------------------------------


def test_dual_apply_identity():
    g = parse_dual("y1^3*y2 + y2^3 - 2*y1", 2)
    phi = identity_automorphism(2, 4)
    assert dual_apply(phi, g) == g


def test_dual_apply_linear_scaling():
    s = 4
    imgs = [parse_jet("3*x1", 2, s), parse_jet("x2", 2, s)]
    phi = TruncatedAutomorphism(2, s, imgs)
    g = parse_dual("y1^4", 2)
    assert dual_apply(phi, g) == parse_dual("81*y1^4", 2)


def test_dual_apply_degree_overflow():
    phi = identity_automorphism(2, 3)
    with pytest.raises(ValueError):
        dual_apply(phi, parse_dual("y1^4", 2))


def test_dual_apply_arity_mismatch():
    phi = identity_automorphism(2, 3)
    with pytest.raises(ValueError):
        dual_apply(phi, parse_dual("y1^2", 3))


def _random_coefficient(rng, fractional):
    c = Fraction(rng.randint(-4, 4))
    return c / rng.randint(1, 5) if fractional else c


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dual_apply_matches_dense_matrix(data):
    # the contraction formula against [F] = [g] * matrix(phi), for linear
    # parts that are any invertible matrix and images with terms in several
    # degrees
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, 5))
    fractional = data.draw(st.booleans())
    kind = data.draw(st.sampled_from(["zero", "constant", "mixed"]))
    while True:
        linear = [[_random_coefficient(rng, fractional) for _ in range(n)] for _ in range(n)]
        if RationalMatrix(linear).rank() == n:
            break
    images = []
    for j in range(n):
        terms = {Exponent.unit(n, i): linear[i][j] for i in range(n)}
        for e in monomials_up_to(n, s):
            if e.degree >= 2 and rng.random() < 0.3:
                terms[e] = _random_coefficient(rng, fractional)
        images.append(JetPolynomial(n, s, terms))
    phi = TruncatedAutomorphism(n, s, images)
    if kind == "zero":
        g = DualPolynomial.zero(n)
    elif kind == "constant":
        g = DualPolynomial(n, {Exponent((0,) * n): _random_coefficient(rng, fractional) or 1})
    else:
        degrees = sorted(rng.sample(range(s + 1), rng.randint(1, s + 1)))
        g = DualPolynomial(n, {
            e: _random_coefficient(rng, fractional)
            for d in degrees for e in monomials(n, d) if rng.random() < 0.6
        })
    assert dual_apply(phi, g) == dense_dual_apply(phi, g)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pairing_identity(data):
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(2, 4))
    gap = data.draw(st.integers(1, s - 1))
    width = n * len(monomials(n, gap + 1))
    coeffs = [rng.randint(-2, 2) for _ in range(width)]
    phi = TruncatedAutomorphism.with_perturbation(n, s, gap, coeffs)
    g = random_polynomial(rng, n, range(s + 1))
    F = dual_apply(phi, g)
    for w in monomials_up_to(n, s):
        jet = JetPolynomial.monomial(n, s, w)
        assert pairing(jet, F) == pairing(substitute(phi, jet), g)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_composition_matrix_order(data):
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n, s = 2, 4
    def rand_phi():
        gap = rng.randint(1, s - 1)
        width = n * len(monomials(n, gap + 1))
        return TruncatedAutomorphism.with_perturbation(
            n, s, gap, [rng.randint(-2, 2) for _ in range(width)]
        )
    phi, psi = rand_phi(), rand_phi()
    chained = compose(phi, psi)
    assert chained.matrix() == matmul(psi.matrix(), phi.matrix())
    # and the dual action factors the opposite way
    g = random_polynomial(rng, n, range(s + 1))
    assert dual_apply(chained, g) == dual_apply(phi, dual_apply(psi, g))


def test_restricted_matrix_block_pattern(rng):
    # for a single-degree perturbation, phi(x^W) has components only in
    # degrees |W| + k*gap with 0 <= k <= |W|; everything else in the matrix
    # vanishes and the diagonal blocks are identities
    for _ in range(5):
        n = rng.choice([2, 3])
        s = rng.randint(3, 5)
        gap = rng.randint(1, s - 1)
        width = n * len(monomials(n, gap + 1))
        phi = TruncatedAutomorphism.with_perturbation(
            n, s, gap, [rng.randint(-2, 2) for _ in range(width)]
        )
        M = phi.matrix()
        basis = list(monomials_up_to(n, s))
        for r, e_row in enumerate(basis):
            for c, e_col in enumerate(basis):
                i, j = e_row.degree, e_col.degree
                if e_row == e_col:
                    assert M[r, c] == 1
                elif i == j or i < j:
                    assert M[r, c] == 0
                elif (i - j) % gap != 0 or (i - j) // gap > j:
                    assert M[r, c] == 0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_restricted_dual_apply_freezes_top_degrees(data):
    # degrees s-gap+1 .. s of any polynomial survive unchanged
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(2, 5))
    gap = data.draw(st.integers(1, s - 1))
    width = n * len(monomials(n, gap + 1))
    phi = TruncatedAutomorphism.with_perturbation(
        n, s, gap, [rng.randint(-2, 2) for _ in range(width)]
    )
    g = random_polynomial(rng, n, range(s + 1))
    F = dual_apply(phi, g)
    for j in range(s - gap + 1, s + 1):
        assert F.homogeneous_component(j) == g.homogeneous_component(j)
