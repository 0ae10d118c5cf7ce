"""Catalecticant matrices of forms and the numerics of compressed algebras.

For a form G of degree s, the order-q catalecticant has rows indexed by
exponents L of degree s-q and columns by exponents i of degree q, with
entry beta_{L+i} where beta is the dual-coordinate vector of G.  Its rank
computes the Hilbert function of the apolar algebra of G one degree at a
time, and maximality of all the ranks is exactly compressedness.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DependentLeadingForms
from .linalg import RationalMatrix
from .poly import (
    DualPolynomial,
    Exponent,
    degree_dimension,
    dual_coordinates,
    monomials,
)


class HilbertFunction(tuple):
    """The vector (h_0, ..., h_s) of an Artin algebra."""

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(int(v) for v in values)
        if any(v < 0 for v in values):
            raise ValueError("Hilbert function values must be naturals")
        return super().__new__(cls, values)

    @property
    def socle_degree(self) -> int:
        return len(self) - 1

    def length(self) -> int:
        """dim_K of the algebra."""
        return sum(self)


def _require_form(G: DualPolynomial) -> int:
    if G.is_zero():
        raise ValueError("zero form")
    if not G.is_homogeneous():
        raise ValueError("expected a homogeneous polynomial")
    return G.degree


def catalecticant_matrix(G: DualPolynomial, order: int) -> RationalMatrix:
    """The order-q matrix of partials of G in dual coordinates.

    Shape binom(n-1+s-q, n-1) x binom(n-1+q, n-1); the column at exponent i
    holds the dual coordinates of the order-i partial of G.
    """
    s = _require_form(G)
    if not 0 <= order <= s:
        raise ValueError(f"order must be within 0..{s}, got {order}")
    n = G.num_vars
    beta = dict(zip(monomials(n, s), dual_coordinates(G)))
    return RationalMatrix(
        [[beta[L + i] for i in monomials(n, order)] for L in monomials(n, s - order)]
    )


def stacked_catalecticant(forms: Sequence[DualPolynomial], order: int) -> RationalMatrix:
    """Vertical stack of the catalecticants of equal-degree forms, in order."""
    if not forms:
        raise ValueError("need at least one form")
    degrees = {_require_form(G) for G in forms}
    if len(degrees) > 1:
        raise ValueError(f"mixed degrees {sorted(degrees)} in stack")
    return RationalMatrix.stacked([catalecticant_matrix(G, order) for G in forms])


def hilbert_function_of_form(G: DualPolynomial) -> HilbertFunction:
    """Hilbert function of the apolar algebra of a nonzero form.

    h_j is the rank of the order-(s-j) catalecticant; by the transpose
    symmetry of catalecticants the result is always a palindrome.
    """
    s = _require_form(G)
    return HilbertFunction(
        catalecticant_matrix(G, s - j).rank() for j in range(s + 1)
    )


def check_independent(forms: Sequence[DualPolynomial]) -> None:
    """Raise DependentLeadingForms, with a witness relation, on dependent forms.

    Forms of different degrees cannot interact, so the check stacks plain
    coefficient vectors over every exponent that appears.
    """
    exps = sorted({e for g in forms for e in g.terms}, key=Exponent.sort_key)
    mat = RationalMatrix.from_columns([[g.coefficient(e) for e in exps] for g in forms])
    if mat.rank() < len(forms):
        raise DependentLeadingForms(mat.kernel_basis()[0])


def is_compressed_level(forms: Sequence[DualPolynomial]) -> bool:
    """Whether equal-degree independent forms present a compressed level algebra.

    True iff every stacked catalecticant rank hits
    min(binom(n-1+i, n-1), t * binom(n-1+s-i, n-1)).
    """
    if not forms:
        raise ValueError("need at least one form")
    degrees = {_require_form(G) for G in forms}
    if len(degrees) > 1:
        raise ValueError(f"mixed degrees {sorted(degrees)} in level presentation")
    check_independent(forms)
    n = forms[0].num_vars
    s = forms[0].degree
    t = len(forms)
    for i in range(1, s + 1):
        bound = min(degree_dimension(n, i), t * degree_dimension(n, s - i))
        if stacked_catalecticant(forms, i).rank() != bound:
            return False
    return True


def _validate_socle_type(socle_degree: int, socle_type: Sequence[int]) -> tuple[int, ...]:
    E = tuple(int(e) for e in socle_type)
    if len(E) != socle_degree + 1:
        raise ValueError(
            f"socle type needs entries e_0..e_{socle_degree}, got {len(E)} values"
        )
    if any(e < 0 for e in E):
        raise ValueError("socle type entries must be naturals")
    if E[socle_degree] <= 0:
        raise ValueError("e_s must be positive")
    return E


def initial_degree(num_vars: int, socle_degree: int, socle_type: Sequence[int]) -> int:
    """Smallest degree where the socle bound pinches below dim R_i.

    The compressed Hilbert function switches from dim R_i to the socle bound
    there; if the bound never binds this returns socle_degree + 1.
    """
    E = _validate_socle_type(socle_degree, socle_type)
    n = num_vars
    for i in range(socle_degree + 1):
        bound = sum(
            E[u] * degree_dimension(n, u - i) for u in range(i, socle_degree + 1)
        )
        if bound < degree_dimension(n, i):
            return i
    return socle_degree + 1


def compressed_hilbert_function(
    num_vars: int, socle_degree: int, socle_type: Sequence[int]
) -> HilbertFunction:
    """Maximal Hilbert function for the given embedding dimension and socle type.

    h_i = dim R_i below the initial degree and the socle bound
    sum_{u>=i} e_u * dim R_{u-i} from the initial degree on.
    """
    E = _validate_socle_type(socle_degree, socle_type)
    n, s = num_vars, socle_degree
    v = initial_degree(n, s, E)
    return HilbertFunction(
        degree_dimension(n, i)
        if i < v
        else sum(E[u] * degree_dimension(n, u - i) for u in range(i, s + 1))
        for i in range(s + 1)
    )


def socle_correction(num_vars: int, v: int, socle_type: Sequence[int]) -> int:
    """Forced socle dimension in degree v-1 for a compressed algebra.

    max(0, dim R_{v-1} - sum_{u>=v} e_u * dim R_{u-v+1}); automatically 0
    whenever s >= 2(v-1) because the degree-s term alone dominates.
    """
    s = len(socle_type) - 1
    E = _validate_socle_type(s, socle_type)
    if not 1 <= v <= s + 1:
        raise ValueError(f"initial degree must lie in 1..{s + 1}, got {v}")
    n = num_vars
    bound = sum(E[u] * degree_dimension(n, u - v + 1) for u in range(v, s + 1))
    return max(0, degree_dimension(n, v - 1) - bound)
