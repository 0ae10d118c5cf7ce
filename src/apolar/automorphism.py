"""Automorphisms of the truncated power-series ring and their dual action.

An automorphism phi of R/M^(s+1) is stored by the images of the variables
(jets with zero constant term and an invertible linear part).  Its matrix
over the monomial basis is assembled by direct substitution and truncated
multiplication; the tests check its top-degree block against a closed form
of a perturbation's effect.

Conventions, pinned by tests against the contraction pairing:
  * column of x^b in matrix() holds the coordinates of phi(x^b);
  * the dual action sends g to the F with row vector [F] = [g] * matrix(),
    equivalently <w, F> = <phi(w), g> for every monomial w;
  * phi.then(psi) applies phi first, so matrix(phi.then(psi)) equals
    matrix(psi) @ matrix(phi).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import RationalMatrix
from .poly import (
    DualPolynomial,
    Exponent,
    JetPolynomial,
    monomials,
    monomials_up_to,
)


class TruncatedAutomorphism:
    """K-algebra automorphism of R/M^(s+1), given by variable images."""

    __slots__ = ("num_vars", "truncation_order", "images", "_matrix", "_image_memo")

    def __init__(self, num_vars: int, truncation_order: int, images: Sequence[JetPolynomial]):
        images = tuple(images)
        if len(images) != num_vars:
            raise ValueError("need one image per variable")
        for img in images:
            if img.num_vars != num_vars or img.truncation_order != truncation_order:
                raise ValueError("image arity or truncation order mismatch")
            if img.constant_term():
                raise ValueError("variable images must have zero constant term")
        linear = RationalMatrix(
            [
                [img.terms.get(Exponent.unit(num_vars, i), Fraction(0)) for img in images]
                for i in range(num_vars)
            ]
        )
        if linear.rank() != num_vars:
            raise ValueError("singular linear part")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "truncation_order", truncation_order)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_image_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedAutomorphism is immutable")

    # ---- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, num_vars: int, truncation_order: int) -> "TruncatedAutomorphism":
        return cls(
            num_vars,
            truncation_order,
            [JetPolynomial.variable(num_vars, truncation_order, j) for j in range(num_vars)],
        )

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

    def apply(self, f: JetPolynomial) -> JetPolynomial:
        """Substitute the variable images into f."""
        if f.num_vars != self.num_vars or f.truncation_order != self.truncation_order:
            raise ValueError("jet does not live in this truncated ring")
        acc = JetPolynomial(self.num_vars, self.truncation_order)
        for e, c in f.terms.items():
            acc = acc + self.image_of_exponent(e).scaled(c)
        return acc

    def then(self, other: "TruncatedAutomorphism") -> "TruncatedAutomorphism":
        """The composite that applies self first, then other."""
        if (self.num_vars, self.truncation_order) != (other.num_vars, other.truncation_order):
            raise ValueError("automorphisms live in different truncated rings")
        return TruncatedAutomorphism(
            self.num_vars,
            self.truncation_order,
            [other.apply(img) for img in self.images],
        )

    def matrix(self) -> RationalMatrix:
        """Matrix over the monomial basis; column of x^b holds phi(x^b).

        Identity diagonal blocks for identity linear part, zero blocks above
        the diagonal, and the perturbation blocks below, matching the block
        description checked in the test-suite.
        """
        if self._matrix is not None:
            return self._matrix
        basis = monomials_up_to(self.num_vars, self.truncation_order)
        pos = {e: i for i, e in enumerate(basis)}
        r = len(basis)
        cols = []
        for b in basis:
            img = self.image_of_exponent(b)
            col = [Fraction(0)] * r
            for e, c in img.terms.items():
                col[pos[e]] = c
            cols.append(col)
        m = RationalMatrix.from_columns(cols)
        object.__setattr__(self, "_matrix", m)
        return m

    def linear_part(self) -> RationalMatrix:
        n = self.num_vars
        return RationalMatrix(
            [
                [img.terms.get(Exponent.unit(n, i), Fraction(0)) for img in self.images]
                for i in range(n)
            ]
        )


def dual_apply(phi: TruncatedAutomorphism, g: DualPolynomial) -> DualPolynomial:
    """The polynomial F with [F] = [g] * matrix(phi) in dual coordinates.

    Equivalently <w, F> = <phi(w), g> for every monomial w of degree at most
    the truncation order.
    """
    if g.num_vars != phi.num_vars:
        raise ValueError("variable-count mismatch")
    if g.degree > phi.truncation_order:
        raise ValueError(
            f"degree {g.degree} exceeds truncation order {phi.truncation_order}"
        )
    basis = monomials_up_to(phi.num_vars, phi.truncation_order)
    row = [e.factorial() * g.coefficient(e) for e in basis]
    out_row = phi.matrix().row_apply(row)
    return DualPolynomial(
        phi.num_vars,
        {e: c / e.factorial() for e, c in zip(basis, out_row) if c},
    )
