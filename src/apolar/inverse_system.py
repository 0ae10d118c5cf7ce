"""Annihilator ideals and the Artin algebra attached to dual generators.

A presentation is a finite set of dual polynomials G_1..G_t with linearly
independent leading forms.  Its algebra is A = R/I where I is everything in
R that contracts all generators to zero; A is a finite-dimensional local
ring.  Its Hilbert function, length, socle type and compressedness are all
read from one forward echelon of the dual module (`poly.dual_echelon`),
computed once per presentation; the annihilators are kernels of
contraction matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .catalecticant import HilbertFunction, compressed_hilbert_function
from .errors import DependentLeadingForms
from .linalg import RationalMatrix
from .poly import (
    DualPolynomial,
    Exponent,
    JetPolynomial,
    contract_monomial,
    dual_echelon,
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
    Forms of different degrees cannot interact, so the check stacks plain
    coefficient vectors over every exponent that appears.
    """
    tops = pres.leading_forms()
    exps = sorted({e for g in tops for e in g.terms}, key=Exponent.sort_key)
    mat = RationalMatrix.from_columns([[g.coefficient(e) for e in exps] for g in tops])
    if mat.rank() < len(tops):
        raise DependentLeadingForms(mat.kernel_basis()[0])


def _contraction_kernel(
    pres: AlgebraPresentation, fmons: Sequence[Exponent], jet_order: int
) -> list[JetPolynomial]:
    """Kernel of f -> (f o G_1, ..., f o G_t) over the span of fmons."""
    n = pres.num_vars
    s = pres.socle_degree
    exps = monomials_up_to(n, s)
    pos = {e: i for i, e in enumerate(exps)}
    columns = []
    for gamma in fmons:
        col = []
        for g in pres.generators:
            block = [Fraction(0)] * len(exps)
            for e, c in contract_monomial(gamma, g).terms.items():
                block[pos[e]] = c
            col.extend(block)
        columns.append(col)
    kernel = RationalMatrix.from_columns(columns).kernel_basis()
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
    return _contraction_kernel(pres, monomials(pres.num_vars, degree), degree)


def annihilator_upto(pres: AlgebraPresentation, degree: int) -> list[JetPolynomial]:
    """Basis of the inhomogeneous annihilator slice {f of degree <= d, f(0) = 0}.

    At d = s+1 this pins down A = R/I as a vector space, since everything of
    degree above the socle degree annihilates.
    """
    if not 1 <= degree <= pres.socle_degree + 1:
        raise ValueError(f"degree must lie in 1..{pres.socle_degree + 1}")
    n = pres.num_vars
    fmons = [e for e in monomials_up_to(n, degree) if e.degree >= 1]
    return _contraction_kernel(pres, fmons, degree)


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
