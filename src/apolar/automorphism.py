"""Automorphisms of the truncated power-series ring and their dual action.

An automorphism phi of R/M^(s+1) is stored by the images of the variables
(jets with zero constant term and an invertible linear part).  Write them
phi(x_j) = l_j + h_j, with l_j = sum_i L_ij x_i the linear part and h_j the
terms of degree >= 2.

The dual action sends g to the F with <w, F> = <phi(w), g> for every monomial
w, pinned by tests against the contraction pairing.  Pairing g with
phi(exp(x.y)) = exp(x.(L y)) * exp(h.y) gives, in the plain basis of
`DualPolynomial`,

    F(y) = sum_k (y^k / k!) * G_k(L y),   G_0 = g,   G_k = h_j o G_(k - delta_j),

one contraction of a small h_j per multi-index k.  The sum is finite: G_k
vanishes once |k| times the least degree of the h_j exceeds deg g.  No
matrix over the monomial basis is formed.  `matrix()` builds that matrix
(the column of x^b holds the coordinates of phi(x^b)), so [F] = [g] * matrix()
in dual coordinates; it is the dense reference the tests check the
contraction formula against.

`dual_apply` works on integers.  The variable images and g are rational at
the API; it writes g = N/D, h_j = H_j/q with one q for every j, and
L = L'/l, computes every contraction and the substitution y -> L'y on
integer numerators, and builds one `Fraction` per term of F, by a single
division by the common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from operator import add
from typing import Sequence

from .linalg import RationalMatrix
from .poly import (
    DualPolynomial,
    Exponent,
    JetPolynomial,
    add_contraction,
    integer_terms,
    monomials,
    monomials_up_to,
)


class TruncatedAutomorphism:
    """K-algebra automorphism of R/M^(s+1), given by variable images."""

    __slots__ = ("num_vars", "truncation_order", "images", "_image_memo")

    def __init__(self, num_vars: int, truncation_order: int, images: Sequence[JetPolynomial]):
        images = tuple(images)
        if len(images) != num_vars:
            raise ValueError("need one image per variable")
        for img in images:
            if img.num_vars != num_vars or img.truncation_order != truncation_order:
                raise ValueError("image arity or truncation order mismatch")
            if img.constant_term():
                raise ValueError("variable images must have zero constant term")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "truncation_order", truncation_order)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_image_memo", {})
        if self.linear_part().rank() != num_vars:
            raise ValueError("singular linear part")

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedAutomorphism is immutable")

    # ---- constructors ------------------------------------------------------

    @classmethod
    def with_perturbation(
        cls, num_vars: int, truncation_order: int, gap: int, coefficients: Sequence
    ) -> "TruncatedAutomorphism":
        """x_j maps to x_j plus a form of degree gap+1, nothing higher.

        `coefficients` is laid out one variable after another, each block
        running over the canonical degree-(gap+1) exponents.
        """
        n, s = num_vars, truncation_order
        if not 1 <= gap <= s:
            raise ValueError(f"gap must lie in 1..{s}")
        perturbation_exps = monomials(n, gap + 1)
        per = len(perturbation_exps)
        coeffs = [Fraction(c) for c in coefficients]
        if len(coeffs) != n * per:
            raise ValueError(
                f"expected {n * per} coefficients ({n} blocks of {per}), got {len(coeffs)}"
            )
        images = []
        for j in range(n):
            terms = {Exponent.unit(n, j): Fraction(1)}
            for k, e in enumerate(perturbation_exps):
                c = coeffs[j * per + k]
                if c:
                    terms[e] = terms.get(e, Fraction(0)) + c
            images.append(JetPolynomial(n, s, terms))
        return cls(n, s, images)

    # ---- substitution ------------------------------------------------------

    def image_of_exponent(self, e: Exponent) -> JetPolynomial:
        """phi(x^e), truncated; built by repeated multiplication and memoized."""
        memo = self._image_memo
        if e in memo:
            return memo[e]
        if e.degree == 0:
            result = JetPolynomial.one(self.num_vars, self.truncation_order)
        else:
            j = next(k for k, a in enumerate(e) if a > 0)
            result = self.image_of_exponent(e - Exponent.unit(self.num_vars, j)) * self.images[j]
        memo[e] = result
        return result

    def matrix(self) -> RationalMatrix:
        """Matrix over the monomial basis; column of x^b holds phi(x^b).

        The dense reference for the dual action: identity diagonal blocks for
        identity linear part, zero blocks above the diagonal, and the
        perturbation blocks below.  `dual_apply` does not use it.
        """
        basis = monomials_up_to(self.num_vars, self.truncation_order)
        pos = {e: i for i, e in enumerate(basis)}
        cols = []
        for b in basis:
            col = [Fraction(0)] * len(basis)
            for e, c in self.image_of_exponent(b).terms.items():
                col[pos[e]] = c
            cols.append(col)
        return RationalMatrix.from_columns(cols)

    def linear_part(self) -> RationalMatrix:
        """L with L[i, j] the coefficient of x_i in phi(x_j)."""
        n = self.num_vars
        return RationalMatrix(
            [
                [img.terms.get(Exponent.unit(n, i), Fraction(0)) for img in self.images]
                for i in range(n)
            ]
        )


def dual_apply(phi: TruncatedAutomorphism, g: DualPolynomial) -> DualPolynomial:
    """The F with <w, F> = <phi(w), g> for every monomial w of degree at most s.

    F(y) = sum_k (y^k / k!) * G_k(L y) with G_0 = g and G_k = h_j o G_(k -
    delta_j) (module docstring).  Each G_k is reached once, from the k with
    its last nonzero entry removed, and the linear substitution y -> L y is
    memoized per monomial.

    On integers, with g = N/D, h_j = H_j/q and L = L'/l: G_k = N_k / (D q^|k|)
    with N_k = H_j o N_(k - delta_j), and (L y)^beta = (L' y)^beta / l^|beta|.
    So every term of F is a numerator over T = D q^K l^B m, with K the
    largest |k| reached, B = deg g and m the lcm of the k!.
    """
    if g.num_vars != phi.num_vars:
        raise ValueError("variable-count mismatch")
    if g.degree > phi.truncation_order:
        raise ValueError(
            f"degree {g.degree} exceeds truncation order {phi.truncation_order}"
        )
    n = phi.num_vars
    units = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
    num, den = integer_terms(g.terms)
    higher = [{e: c for e, c in img.terms.items() if e.degree >= 2} for img in phi.images]
    q = lcm(*(c.denominator for h in higher for c in h.values()))
    higher = [[(e, c.numerator * (q // c.denominator)) for e, c in h.items()] for h in higher]
    # the image of y_i under y -> L' y, as (exponent, coefficient) pairs
    linear = [[img.terms.get(u, 0) for img in phi.images] for u in units]
    l = lcm(*(c.denominator for row in linear for c in row if c))
    substituted = [
        [(units[j], c.numerator * (l // c.denominator)) for j, c in enumerate(row) if c]
        for row in linear
    ]
    zero = (0,) * n
    memo = {zero: {zero: 1}}

    def substitute(beta: tuple) -> dict:
        """(L' y)^beta as a term dict, built from beta minus one variable."""
        if beta not in memo:
            i = next(i for i, b in enumerate(beta) if b)
            out: dict = {}
            for gamma, c in substitute(beta[:i] + (beta[i] - 1,) + beta[i + 1 :]).items():
                for u, a in substituted[i]:
                    e = tuple(map(add, gamma, u))
                    out[e] = out.get(e, 0) + c * a
            memo[beta] = out
        return memo[beta]

    contractions = []
    pending = [(zero, 0, num)]
    while pending:
        k, first, terms = pending.pop()
        contractions.append((k, terms))
        for j in range(first, n):
            child: dict = {}
            for alpha, a in higher[j]:
                add_contraction(child, alpha, terms, a)
            child = {e: c for e, c in child.items() if c}
            if child:
                pending.append((tuple(map(add, k, units[j])), j, child))

    top_k = max(sum(k) for k, _ in contractions)
    top_beta = max(g.degree, 0)
    k_factorial = [prod(map(factorial, k)) for k, _ in contractions]
    m = lcm(*k_factorial)
    result: dict = {}
    for (k, terms), kf in zip(contractions, k_factorial):
        scale = q ** (top_k - sum(k)) * (m // kf)
        for beta, c in terms.items():
            c *= scale * l ** (top_beta - sum(beta))
            for gamma, a in substitute(beta).items():
                e = tuple(map(add, gamma, k))
                result[e] = result.get(e, 0) + c * a
    T = den * q**top_k * l**top_beta * m
    return DualPolynomial(n, {e: Fraction(c, T) for e, c in result.items() if c})
