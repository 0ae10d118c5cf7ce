"""Text grammar for polynomials.

Terms are joined by `+`/`-`; a term is `[coeff*]v<i>[^e][*v<j>[^e]]...` where
the coefficient is an integer or `p/q` and `v` is `y` on the dual side,
`x` on the truncated series side.  Whitespace is ignored.  Example:
`y1^3*y2^2 + y2^4`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .poly import DualPolynomial, Exponent, JetPolynomial

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<var>[A-Za-z]+\d+)|(?P<op>[-+*^])"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group().replace(" ", ""), pos))
        pos = m.end()
    return out


def _parse_terms(text: str, letter: str, num_vars: int) -> dict[Exponent, Fraction]:
    tokens = _tokenize(text)
    terms: dict[Exponent, Fraction] = {}
    i = 0
    n = len(tokens)

    def fail(message: str, at: int | None = None):
        pos = tokens[at][2] if at is not None and at < n else len(text)
        raise ParseError(message, pos)

    if not tokens:
        raise ParseError("empty polynomial", 0)

    sign = Fraction(1)
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = Fraction(-1) if tokens[0][1] == "-" else Fraction(1)
        i = 1

    while True:
        coeff = sign
        exps = [0] * num_vars
        saw_factor = False
        while True:
            if i >= n:
                fail("expected a coefficient or variable")
            kind, value, pos = tokens[i]
            if kind == "num":
                num, _, den = value.partition("/")
                if den and int(den) == 0:
                    fail("zero denominator", i)
                coeff *= Fraction(int(num), int(den or 1))
                i += 1
            elif kind == "var":
                letter_part = value.rstrip("0123456789")
                index = int(value[len(letter_part):])
                if letter_part != letter:
                    fail(f"expected variable letter {letter!r}, got {letter_part!r}", i)
                if not 1 <= index <= num_vars:
                    fail(f"variable {value} out of range for {num_vars} variables", i)
                exp = 1
                i += 1
                if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= n or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        fail("exponent must be a natural number", i if i < n else None)
                    exp = int(tokens[i][1])
                    i += 1
                exps[index - 1] += exp
            else:
                fail(f"unexpected operator {value!r}", i)
            saw_factor = True
            if i < n and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                continue
            break
        if not saw_factor:
            fail("empty term")
        e = Exponent(exps)
        terms[e] = terms.get(e, Fraction(0)) + coeff
        if i >= n:
            break
        kind, value, pos = tokens[i]
        if kind != "op" or value not in "+-":
            fail(f"expected '+' or '-' between terms, got {value!r}", i)
        sign = Fraction(-1) if value == "-" else Fraction(1)
        i += 1
    return {e: c for e, c in terms.items() if c}


def parse_dual(text: str, num_vars: int) -> DualPolynomial:
    """Parse a polynomial in y1..y<n>."""
    return DualPolynomial(num_vars, _parse_terms(text, "y", num_vars))


def parse_jet(text: str, num_vars: int, truncation_order: int) -> JetPolynomial:
    """Parse a truncated polynomial in x1..x<n>; terms beyond the order are an error."""
    terms = _parse_terms(text, "x", num_vars)
    for e in terms:
        if e.degree > truncation_order:
            raise ParseError(
                f"term of degree {e.degree} exceeds truncation order {truncation_order}", 0
            )
    return JetPolynomial(num_vars, truncation_order, terms)


def _format_coeff(c: Fraction) -> str:
    return str(c)


def format_polynomial(poly) -> str:
    """Render in the grammar, leading form first; inverse of the parser."""
    letter = "y" if isinstance(poly, DualPolynomial) else "x"
    if not poly.terms:
        return "0"
    ordered = sorted(poly.terms, key=lambda e: (-e.degree, tuple(-a for a in e)))
    pieces = []
    for e in ordered:
        c = poly.terms[e]
        factors = []
        for k, a in enumerate(e):
            if a == 1:
                factors.append(f"{letter}{k + 1}")
            elif a > 1:
                factors.append(f"{letter}{k + 1}^{a}")
        mag = abs(c)
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(mag)] + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    first = pieces[0][2:] if pieces[0].startswith("+ ") else "-" + pieces[0][2:]
    return " ".join([first] + pieces[1:])
