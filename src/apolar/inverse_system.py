"""Annihilator ideals and the Artin algebra attached to dual generators.

A presentation is a finite set of dual polynomials G_1..G_t with linearly
independent leading forms.  Its algebra is A = R/I where I is everything in
R that contracts all generators to zero; A is a finite-dimensional local
ring.  Its Hilbert function, length, socle type and compressedness are all
read from one forward echelon of the dual module M (`poly.dual_echelon`),
computed once per presentation.  The annihilators are the orthogonal of
that echelon under the pairing: f o G_r = 0 for every r exactly when
<f, m> = 0 for every m in M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .catalecticant import HilbertFunction, check_independent, compressed_hilbert_function
from .linalg import RationalMatrix
from .poly import (
    DualPolynomial,
    Exponent,
    JetPolynomial,
    dual_echelon,
    echelon_columns,
    monomials,
    monomials_up_to,
)


class SocleType(tuple):
    """The vector (e_0, ..., e_s) of socle dimensions along the filtration."""

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(int(v) for v in values)
        if any(v < 0 for v in values):
            raise ValueError("socle type entries must be naturals")
        if not values or values[-1] <= 0:
            raise ValueError("e_s must be positive")
        return super().__new__(cls, values)

    @property
    def socle_degree(self) -> int:
        return len(self) - 1

    def type(self) -> int:
        """dim of the socle."""
        return sum(self)


@dataclass(frozen=True)
class AlgebraPresentation:
    """Dual generators of an Artin local algebra."""

    num_vars: int
    generators: tuple[DualPolynomial, ...] = field(default=())

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if g.num_vars != self.num_vars:
                raise ValueError("generator variable count does not match presentation")
            if g.is_zero():
                raise ValueError("zero generator")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def from_strings(cls, num_vars: int, texts: Sequence[str]) -> "AlgebraPresentation":
        from .parsing import parse_dual

        return cls(num_vars, tuple(parse_dual(t, num_vars) for t in texts))

    @property
    def socle_degree(self) -> int:
        return max(g.degree for g in self.generators)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    def leading_forms(self) -> tuple[DualPolynomial, ...]:
        return tuple(g.top_component() for g in self.generators)

    @cached_property
    def pivot_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Pivots of the dual echelon per degree 0..s: (all of them, generator-added).

        Validated and computed once per presentation; the Hilbert function,
        the length, the socle type and compressedness are read from it.
        """
        macaulay_validate(self)
        s = self.socle_degree
        h, e = [0] * (s + 1), [0] * (s + 1)
        for d, from_generator, _ in dual_echelon(self.generators):
            h[d] += 1
            e[d] += from_generator
        return tuple(h), tuple(e)


def macaulay_validate(pres: AlgebraPresentation) -> None:
    """Check the leading forms are linearly independent.

    Raises DependentLeadingForms carrying a witness relation otherwise.
    """
    check_independent(pres.leading_forms())


def _orthogonal(
    pres: AlgebraPresentation, fmons: Sequence[Exponent], jet_order: int
) -> list[JetPolynomial]:
    """Basis of the f in the span of fmons that pair to zero with M.

    M is spanned by the rows m of `dual_echelon`; <x^gamma, m> is gamma! times
    the coefficient of y^gamma in m, and 0 when |gamma| = s+1, beyond its columns.
    """
    n, s = pres.num_vars, pres.socle_degree
    pos = {e: i for i, e in enumerate(echelon_columns(n, s))}
    rows = [
        [gamma.factorial() * r[pos[gamma]] if gamma.degree <= s else 0 for gamma in fmons]
        for _, _, r in dual_echelon(pres.generators)
    ]
    kernel = RationalMatrix(rows).kernel_basis()
    return [
        JetPolynomial(n, jet_order, {fmons[k]: v[k] for k in range(len(fmons))})
        for v in kernel
    ]


def annihilator_slice(pres: AlgebraPresentation, degree: int) -> list[JetPolynomial]:
    """Basis of the homogeneous degree-d piece of the annihilator ideal."""
    if not 0 <= degree <= pres.socle_degree + 1:
        raise ValueError(f"degree must lie in 0..{pres.socle_degree + 1}")
    if degree == 0:
        return []
    return _orthogonal(pres, monomials(pres.num_vars, degree), degree)


def annihilator_upto(pres: AlgebraPresentation, degree: int) -> list[JetPolynomial]:
    """Basis of the inhomogeneous annihilator slice {f of degree <= d, f(0) = 0}.

    At d = s+1 this pins down A = R/I as a vector space, since everything of
    degree above the socle degree annihilates.
    """
    if not 1 <= degree <= pres.socle_degree + 1:
        raise ValueError(f"degree must lie in 1..{pres.socle_degree + 1}")
    return _orthogonal(pres, monomials_up_to(pres.num_vars, degree)[1:], degree)


def hilbert_function(pres: AlgebraPresentation) -> HilbertFunction:
    """Hilbert function of A: h_i is the number of dual-echelon pivots in degree i."""
    return HilbertFunction(pres.pivot_counts[0])


def algebra_length(pres: AlgebraPresentation) -> int:
    """dim_K A, the length of the algebra."""
    return hilbert_function(pres).length()


def socle_type(pres: AlgebraPresentation) -> SocleType:
    """Socle dimensions e_i along the powers of the maximal ideal.

    Read on the dual side, which handles inhomogeneous generators: under
    the pairing of A with its dual module M, Soc(A) is the orthogonal of
    m o M and m^i that of M intersected with P_{<i}, so e_i = h_i(M) -
    h_i(m o M), the pivots in degree i that the generators add to those of
    m o M.
    """
    return SocleType(pres.pivot_counts[1])


def is_compressed(pres: AlgebraPresentation) -> bool:
    """Whether A has the maximal Hilbert function for its socle type."""
    E = socle_type(pres)
    hf = hilbert_function(pres)
    return hf == compressed_hilbert_function(pres.num_vars, pres.socle_degree, E)


def type_mismatch_warning(pres: AlgebraPresentation, E: SocleType) -> Optional[str]:
    """Note when dim Soc(A) differs from the number of dual generators.

    A minimal presentation has one generator per socle dimension; a mismatch
    usually means a generator is redundant.  Reported, never guessed around.
    """
    t = E.type()
    if t != len(pres.generators):
        return (
            f"socle dimension {t} differs from generator count "
            f"{len(pres.generators)}; the presentation may not be minimal"
        )
    return None
