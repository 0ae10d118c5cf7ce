from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (
    DualPolynomial,
    Exponent,
    JetPolynomial,
    contract,
    derivative_span,
    dual_coordinates,
    from_dual_coordinates,
    monomials,
    monomials_up_to,
    pairing,
    parse_dual,
    slice_dimensions,
)
from apolar.poly import contract_monomial


# ---- exponents and the canonical enumeration -------------------------------


def test_exponent_arithmetic():
    a = Exponent((3, 1))
    b = Exponent((1, 1))
    assert (a + b) == Exponent((4, 2))
    assert (a - b) == Exponent((2, 0))
    assert a.degree == 4
    assert Exponent((2, 3)).factorial() == 12


def test_exponent_rejects_negative():
    with pytest.raises(ValueError):
        Exponent((1, -1))


@pytest.mark.parametrize("parts", [(1.5, 0), (1.0, 0), ("1", 0), (Fraction(2), 0)])
def test_exponent_rejects_non_integers(parts):
    # parts used to be truncated with int(): (1.5, 0) read as (1, 0)
    with pytest.raises(ValueError, match="exponent parts must be integers"):
        Exponent(parts)
    with pytest.raises(ValueError, match="exponent parts must be integers"):
        DualPolynomial(2, {parts: 1})


def test_monomials_canonical_order():
    got = [tuple(e) for e in monomials(2, 5)]
    assert got == [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]
    got3 = [tuple(e) for e in monomials(3, 2)]
    assert got3 == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_monomials_count_and_sort_key():
    for n in (1, 2, 3):
        for d in range(6):
            ms = monomials(n, d)
            assert len(ms) == comb(n - 1 + d, n - 1)
            assert list(ms) == sorted(ms, key=Exponent.sort_key)
    ms = monomials_up_to(2, 3)
    assert list(ms) == sorted(ms, key=Exponent.sort_key)


# ---- contraction ------------------------------------------------------------


def j(text, n=2, s=6):
    from apolar import parse_jet

    return parse_jet(text, n, s)


def test_contract_single_variable():
    assert contract(j("x1"), parse_dual("y1", 2)) == parse_dual("1", 2)


def test_contract_monomial_rule():
    # coefficient (3!/2!) * (2!/1!) = 6
    got = contract(j("x1*x2"), parse_dual("y1^3*y2^2", 2))
    assert got == parse_dual("6*y1^2*y2", 2)


def test_contract_kills_quintic_generator():
    G = parse_dual("y1^3*y2^2 + y2^4", 2)
    assert contract(j("x1^4"), G).is_zero()
    assert contract(j("x2^3 - 2*x1^3*x2"), G).is_zero()


def test_contract_variable_count_mismatch():
    with pytest.raises(ValueError):
        contract(j("x1", n=3), parse_dual("y1", 2))


# ---- the polynomial core shared by dual polynomials and jets -----------------


def test_dual_and_jet_with_equal_terms_differ():
    terms = {(1, 0): 2, (0, 2): Fraction(-1, 3)}
    dual, jet = DualPolynomial(2, terms), JetPolynomial(2, 3, terms)
    assert dual.terms == jet.terms
    assert dual != jet and jet != dual
    assert len({dual, jet}) == 2


def test_equal_values_hash_equally():
    a = DualPolynomial(2, {(1, 0): 2, (0, 1): 0})
    b = DualPolynomial(2, {Exponent((1, 0)): Fraction(4, 2)})
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((2, frozenset(a.terms.items())))
    # terms beyond the truncation order are dropped before hashing
    c = JetPolynomial(2, 2, {(1, 0): 1, (3, 0): 5})
    d = JetPolynomial(2, 2, {(1, 0): Fraction(1)})
    assert c == d and hash(c) == hash(d)
    assert hash(c) == hash((2, 2, frozenset(c.terms.items())))
    assert JetPolynomial(2, 3, {(1, 0): 1}) != c


@pytest.mark.parametrize("op", ["__add__", "__sub__"])
def test_arithmetic_across_kinds_and_rings_is_refused(op):
    def combine(p, q):
        return getattr(p, op)(q)

    with pytest.raises(ValueError, match="^variable-count mismatch: 2 vs 3$"):
        combine(DualPolynomial(2, {(1, 0): 1}), DualPolynomial(3, {(1, 0, 0): 1}))
    jet_mismatch = "^jet arity or truncation order mismatch$"
    for p, q in [
        (JetPolynomial(2, 3), JetPolynomial(3, 3)),
        (JetPolynomial(2, 3), JetPolynomial(2, 4)),
        (DualPolynomial(2), JetPolynomial(2, 3)),
        (JetPolynomial(2, 3), DualPolynomial(2)),
    ]:
        with pytest.raises(ValueError, match=jet_mismatch):
            combine(p, q)
    with pytest.raises(ValueError, match=jet_mismatch):
        JetPolynomial(2, 3) * JetPolynomial(2, 4)


def test_jet_truncates_on_construction_and_in_products():
    jet = JetPolynomial(2, 2, {(0, 0): 1, (1, 0): 1, (2, 1): 7, (0, 3): 1})
    assert jet.terms == {(0, 0): 1, (1, 0): 1}
    x1 = JetPolynomial.monomial(2, 2, Exponent.unit(2, 0))
    assert (x1 * x1 * x1).is_zero()
    assert jet * jet == JetPolynomial(2, 2, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
    assert JetPolynomial.monomial(2, 1, (1, 1)).is_zero()


def test_polynomials_are_immutable():
    for p, name in [(DualPolynomial(2), "DualPolynomial"), (JetPolynomial(2, 3), "JetPolynomial")]:
        for attr in ("num_vars", "terms", "truncation_order", "other"):
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(p, attr, 1)


def test_repr_and_str():
    terms = {(1, 0): Fraction(1, 2), (0, 2): -3}
    dual, jet = DualPolynomial(2, terms), JetPolynomial(2, 3, {**terms, (0, 4): 1})
    assert repr(dual) == "DualPolynomial(2, '-3*y2^2 + 1/2*y1')"
    assert repr(jet) == "JetPolynomial(2, 3, '-3*x2^2 + 1/2*x1')"
    assert str(dual) == "-3*y2^2 + 1/2*y1" and str(jet) == "-3*x2^2 + 1/2*x1"


# ---- homogeneous components --------------------------------------------------


def test_homogeneous_component_picks_degree():
    g = parse_dual("y1^3*y2^2 + y2^4", 2)
    assert g.homogeneous_component(4) == parse_dual("y2^4", 2)


def test_homogeneous_component_of_form_is_itself():
    g = parse_dual("y1^3*y2^2", 2)
    assert g.homogeneous_component(5) == g


def test_homogeneous_component_missing_degree_is_zero():
    g = parse_dual("y1^3*y2 + y2^3", 2)
    assert g.homogeneous_component(2).is_zero()
    total = sum(
        (g.homogeneous_component(k) for k in range(5)), DualPolynomial.zero(2)
    )
    assert total == g


# ---- dual coordinates --------------------------------------------------------


def test_dual_coordinates_quintic():
    got = dual_coordinates(parse_dual("y1^3*y2^2", 2))
    assert got == (0, 0, 12, 0, 0, 0)


def test_dual_coordinates_pure_power():
    for d in (1, 3, 5):
        got = dual_coordinates(parse_dual(f"y1^{d}", 2))
        assert got[0] == factorial(d) and not any(got[1:])


def test_dual_coordinates_last_position():
    assert dual_coordinates(parse_dual("y2^4", 2)) == (0, 0, 0, 0, 24)


def test_dual_coordinates_requires_homogeneous():
    with pytest.raises(ValueError):
        dual_coordinates(parse_dual("y1^2 + y1", 2))


# ---- derivative span ----------------------------------------------------------


def test_derivative_span_of_pure_power():
    G = parse_dual("y1^5", 2)
    for k in range(6):
        basis = derivative_span([G], k)
        assert len(basis) == 1
        (b,) = basis
        assert set(b.terms) == {Exponent((k, 0))}


def test_derivative_span_first_partials():
    # oracle: the two first partials of y1^3 y2^2 span {y1^2 y2^2, y1^3 y2}
    G = parse_dual("y1^3*y2^2", 2)
    basis = derivative_span([G], 4)
    assert len(basis) == 2
    spanned = {Exponent((2, 2)), Exponent((3, 1))}
    assert set().union(*(set(b.terms) for b in basis)) == spanned


def test_derivative_span_with_inhomogeneous_generator():
    # oracle (brute force): order-2 contractions of y1^3 y2^2 + y2^4 are
    # 6 y1 y2^2, 6 y1^2 y2, and 2 y1^3 + 12 y2^2; no combination of lower
    # order contractions of degree <= 3 adds anything, so the slice is
    # 3-dimensional, matching h_3 = 3.
    G = parse_dual("y1^3*y2^2 + y2^4", 2)
    basis = derivative_span([G], 3)
    assert len(basis) == 3
    for b in basis:
        assert b.is_homogeneous() and b.degree == 3


def test_slice_dimensions_match_span_sizes():
    G = parse_dual("y1^3*y2^2 + y2^4", 2)
    dims = slice_dimensions([G])
    assert dims == (1, 2, 3, 3, 2, 1)
    assert [len(derivative_span([G], k)) for k in range(6)] == list(dims)


def test_derivative_span_monotone_in_generators():
    g1 = parse_dual("y1^3*y2", 2)
    g2 = parse_dual("y2^4", 2)
    for k in range(5):
        small = len(derivative_span([g1], k))
        big = len(derivative_span([g1, g2], k))
        assert big >= small


# ---- algebraic invariants ------------------------------------------------------


@st.composite
def dual_polys(draw, num_vars, max_degree=4):
    terms = {}
    n_terms = draw(st.integers(1, 5))
    for _ in range(n_terms):
        d = draw(st.integers(0, max_degree))
        e = draw(st.sampled_from(monomials(num_vars, d)))
        terms[e] = draw(st.integers(-3, 3))
    return DualPolynomial(num_vars, terms)


@st.composite
def jets(draw, num_vars, order, max_degree=2):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, max_degree))
        e = draw(st.sampled_from(monomials(num_vars, d)))
        terms[e] = draw(st.integers(-3, 3))
    return JetPolynomial(num_vars, order, terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_contraction_associativity(data):
    n = data.draw(st.sampled_from([2, 3]))
    f1 = data.draw(jets(n, 8))
    f2 = data.draw(jets(n, 8))
    g = data.draw(dual_polys(n))
    assert contract(f1 * f2, g) == contract(f1, contract(f2, g))


def test_duality_pairing_is_kronecker():
    n = 2
    for alpha in monomials_up_to(n, 3):
        f = JetPolynomial.monomial(n, 3, alpha)
        for beta in monomials_up_to(n, 3):
            dual = DualPolynomial.monomial(n, beta, Fraction(1, beta.factorial()))
            assert pairing(f, dual) == (1 if alpha == beta else 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_coordinates_round_trip(data):
    n = data.draw(st.sampled_from([2, 3]))
    d = data.draw(st.integers(0, 4))
    g = DualPolynomial(
        n,
        {
            e: data.draw(st.integers(-4, 4))
            for e in monomials(n, d)
        },
    )
    rebuilt = from_dual_coordinates(n, d, dual_coordinates(g, d))
    assert rebuilt == g
