from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (
    DependentLeadingForms,
    catalecticant_matrix,
    compressed_hilbert_function,
    contract,
    derivative_span,
    dual_coordinates,
    hilbert_function_of_form,
    initial_degree,
    is_compressed_level,
    monomials,
    parse_dual,
    parse_jet,
    socle_correction,
    stacked_catalecticant,
)
from apolar.poly import DualPolynomial

from conftest import random_form


def test_order_zero_is_coordinate_column():
    G = parse_dual("y1^3*y2^2 + 5*y2^5", 2)
    M = catalecticant_matrix(G, 0)
    assert (M.rows, M.cols) == (6, 1)
    assert M.transpose().row(0) == dual_coordinates(G)


def test_top_order_is_transpose_of_order_zero():
    G = parse_dual("y1^4 + y1*y2^3", 2)
    assert catalecticant_matrix(G, 4) == catalecticant_matrix(G, 0).transpose()


def _monomial_jet(e, order=6):
    from apolar import JetPolynomial

    return JetPolynomial.monomial(len(e), order, e)


def test_pure_power_second_order_by_hand():
    # oracle: differentiate y1^4 by every degree-2 monomial directly
    G = parse_dual("y1^4", 2)
    M = catalecticant_matrix(G, 2)
    assert (M.rows, M.cols) == (3, 3)
    for c, i in enumerate(monomials(2, 2)):
        partial = contract(_monomial_jet(i), G)
        assert M.transpose().row(c) == dual_coordinates(partial, 2)
    assert M[0, 0] == 24
    assert sum(1 for r in range(3) for c in range(3) if M[r, c] != 0) == 1


def test_matrix_entries_are_derivative_coordinates():
    # every column of the order-q matrix holds the dual coordinates of the
    # corresponding partial derivative
    G = parse_dual("y1^3*y2^2 + y1*y2^4 - 2*y2^5", 2)
    for q in range(6):
        M = catalecticant_matrix(G, q)
        for c, i in enumerate(monomials(2, q)):
            partial = contract(_monomial_jet(i), G)
            want = dual_coordinates(partial, 5 - q)
            assert M.transpose().row(c) == want


def test_stacked_single_form_matches():
    G = parse_dual("y1^2*y2*y3", 3)
    assert stacked_catalecticant([G], 1) == catalecticant_matrix(G, 1)


def test_stacked_shape():
    Gs = [parse_dual("y1^2", 2), parse_dual("y2^2", 2)]
    M = stacked_catalecticant(Gs, 1)
    assert (M.rows, M.cols) == (4, 2)


def test_stacked_level_pair_ranks_against_span_oracle():
    tops = [
        parse_dual("y1^2*y2*y3", 3),
        parse_dual("y1*y2^2*y3 + y2*y3^3", 3),
    ]
    # the stacked order-i rank equals the degree-i slice dimension of the
    # module the leading forms generate; brute-force spans are authoritative
    for i in range(1, 5):
        assert stacked_catalecticant(tops, i).rank() == len(derivative_span(tops, i))
    assert stacked_catalecticant(tops, 1).rank() == 3
    assert len(derivative_span(tops, 3)) == 6


def test_stacked_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        stacked_catalecticant([parse_dual("y1^2", 2), parse_dual("y1^3", 2)], 1)


def test_hilbert_of_pure_power():
    for s in (1, 3, 5):
        G = parse_dual(f"y1^{s}", 2)
        assert tuple(hilbert_function_of_form(G)) == (1,) * (s + 1)


def _monomial_divisor_counts(exponent, num_vars):
    """Oracle: the Hilbert function of a monomial form counts its divisors."""
    from itertools import product

    counts = [0] * (sum(exponent) + 1)
    for divisor in product(*(range(a + 1) for a in exponent)):
        counts[sum(divisor)] += 1
    return tuple(counts)


def test_hilbert_of_monomial_equals_divisor_count():
    assert tuple(hilbert_function_of_form(parse_dual("y1^3*y2^2", 2))) == (1, 2, 3, 3, 2, 1)
    for e in [(3, 2), (4, 1), (2, 2, 1)]:
        n = len(e)
        G = DualPolynomial.monomial(n, e)
        assert tuple(hilbert_function_of_form(G)) == _monomial_divisor_counts(e, n)


def test_hilbert_binary_quartic():
    G = parse_dual("y1^4 + y1*y2^3", 2)
    hf = hilbert_function_of_form(G)
    assert tuple(hf) == (1, 2, 3, 2, 1)
    assert hf.length() == 9


def test_hilbert_rejects_zero_and_inhomogeneous():
    with pytest.raises(ValueError):
        hilbert_function_of_form(DualPolynomial.zero(2))
    with pytest.raises(ValueError):
        hilbert_function_of_form(parse_dual("y1^2 + y1", 2))


def test_is_compressed_level_extremal_quintic():
    assert is_compressed_level([parse_dual("y1^3*y2^2", 2)]) is True


def test_is_compressed_level_rejects_thin_monomial():
    # oracle: divisor counts give (1,2,2,2,2,1), below the extremal profile
    assert is_compressed_level([parse_dual("y1^4*y2", 2)]) is False


def test_is_compressed_level_pair():
    tops = [parse_dual("y1^2*y2*y3", 3), parse_dual("y1*y2^2*y3 + y2*y3^3", 3)]
    assert is_compressed_level(tops) is True


def test_is_compressed_level_rejects_dependent_forms():
    with pytest.raises(DependentLeadingForms):
        is_compressed_level([parse_dual("y1^2", 2), parse_dual("2*y1^2", 2)])


def test_compressed_hilbert_function_type_two():
    assert tuple(compressed_hilbert_function(3, 4, (0, 0, 0, 0, 2))) == (1, 3, 6, 6, 2)


def test_compressed_hilbert_function_binary_level():
    for i in range(2, 6):
        assert tuple(compressed_hilbert_function(2, 4, (0, 0, 0, 0, i))) == (1, 2, 3, 4, i)


def test_compressed_hilbert_function_gorenstein_quartics():
    for n in range(2, 6):
        got = tuple(compressed_hilbert_function(n, 4, (0, 0, 0, 0, 1)))
        assert got == (1, n, comb(n + 1, 2), n, 1)


def test_initial_degree_examples():
    assert initial_degree(2, 5, (0, 0, 0, 0, 0, 1)) == 3
    assert initial_degree(3, 4, (0, 0, 0, 0, 2)) == 3
    assert initial_degree(2, 4, (0, 0, 0, 0, 5)) == 5  # bound never pinches


def test_compressed_hilbert_function_validates():
    with pytest.raises(ValueError):
        compressed_hilbert_function(2, 3, (0, 0, 1, 0))  # e_s = 0
    with pytest.raises(ValueError):
        compressed_hilbert_function(2, 3, (0, 0, 1))  # wrong length


def test_socle_correction_vanishes_when_socle_degree_large():
    # s >= 2(v-1) forces the correction to zero
    assert socle_correction(2, 3, (0, 0, 0, 0, 1)) == 0
    assert socle_correction(3, 2, (0, 0, 0, 2)) == 0
    assert socle_correction(2, 1, (0, 1)) == 0


def test_socle_correction_direct_value():
    # dim R_2 = 6 minus e_3 * dim R_1 = 3
    assert socle_correction(3, 3, (0, 0, 0, 1)) == 3


def test_socle_correction_validates():
    # v = s + 1: no socle term binds, so the whole of R_s is forced
    assert socle_correction(2, 3, (0, 0, 1)) == 3
    for v in (0, 4, 9):
        with pytest.raises(ValueError, match="initial degree"):
            socle_correction(2, v, (0, 0, 1))
    with pytest.raises(ValueError):
        socle_correction(2, 2, (0, 0, 0))  # e_s = 0
    with pytest.raises(ValueError):
        socle_correction(2, 2, (0, -1, 1))  # negative entry


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_transpose_symmetry_random(data):
    import random

    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(1, 5))
    G = random_form(rng, n, s)
    q = data.draw(st.integers(0, s))
    assert catalecticant_matrix(G, q) == catalecticant_matrix(G, s - q).transpose()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hilbert_palindrome_random(data):
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(1, 5))
    hf = tuple(hilbert_function_of_form(random_form(rng, n, s)))
    assert hf == hf[::-1]
    assert hf[0] == 1
