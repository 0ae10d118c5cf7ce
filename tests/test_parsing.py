from fractions import Fraction

import pytest

from apolar import DualPolynomial, Exponent, ParseError, format_polynomial, parse_dual, parse_jet


def test_parse_basic():
    g = parse_dual("y1^3*y2^2 + y2^4", 2)
    assert g.terms == {Exponent((3, 2)): 1, Exponent((0, 4)): 1}


def test_parse_coefficients_and_signs():
    g = parse_dual("-2*y1 + 1/2*y2 - y1", 2)
    assert g.terms == {Exponent((1, 0)): -3, Exponent((0, 1)): Fraction(1, 2)}


def test_parse_whitespace_ignored():
    assert parse_dual(" y1 ^2*  y2 ", 2) == parse_dual("y1^2*y2", 2)


def test_parse_constant():
    g = parse_dual("7", 3)
    assert g.terms == {Exponent((0, 0, 0)): 7}


def test_parse_repeated_variable_multiplies():
    assert parse_dual("y1*y1", 2) == parse_dual("y1^2", 2)


def test_parse_cancellation_gives_zero():
    assert parse_dual("y1 - y1", 2).is_zero()


def test_parse_jet_side_uses_x():
    f = parse_jet("x2^3 - 2*x1^3*x2", 2, 4)
    assert f.terms == {Exponent((0, 3)): 1, Exponent((3, 1)): -2}


def test_parse_wrong_letter_rejected():
    with pytest.raises(ParseError):
        parse_dual("x1^2", 2)


def test_parse_out_of_range_variable():
    with pytest.raises(ParseError):
        parse_dual("y3", 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_dual("y1 + @", 2)
    assert exc.value.position == 5


def test_parse_zero_denominator_rejected():
    with pytest.raises(ParseError, match="zero denominator") as exc:
        parse_dual("y1 - 3/ 00*y2", 2)
    assert exc.value.position == 5


def test_parse_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_dual("y1^1/2", 2)


def test_parse_jet_degree_overflow():
    with pytest.raises(ParseError):
        parse_jet("x1^5", 2, 4)


def test_format_round_trip():
    texts = [
        "y1^3*y2^2 + y2^4",
        "y1^3*y2 - y1*y2^3",
        "-y1 + 1/2*y2",
        "3*y1^2 - 2",
        "0",
    ]
    for text in texts:
        g = parse_dual(text, 2)
        assert parse_dual(format_polynomial(g), 2) == g


def test_format_leading_form_first():
    g = parse_dual("y2^3 + y1^3*y2", 2)
    assert format_polynomial(g) == "y1^3*y2 + y2^3"


def test_format_zero():
    assert format_polynomial(DualPolynomial.zero(2)) == "0"
