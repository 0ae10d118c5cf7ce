"""Exponents, dual polynomials, truncated jets, and the contraction action.

The dual side lives in P = Q[y_1..y_n]; the series side in R/M^(s+1) with
R = Q[[x_1..x_n]].  Both hold the same data, a map from exponents to
rationals, so `DualPolynomial` and `JetPolynomial` share one immutable
polynomial core; a jet adds only its truncation order and the product.
R acts on P by differentiation:

    x^a o y^b = b!/(b-a)! * y^(b-a)   if b >= a componentwise, else 0.

The monomial basis dual to {x^a} under this pairing is {y^a / a!}; the
toolkit calls coordinates with respect to it "dual coordinates".  Every
matrix anywhere in the package indexes its rows and columns by the single
monomial enumeration defined here: total degree ascending, and inside a
fixed degree the x_1-dominant monomial first (descending lexicographic
exponent tuples).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, lcm, perm
from operator import add, index, sub
from typing import Iterable, Mapping, Sequence

from .linalg import RationalMatrix, forward_echelon


class Exponent(tuple):
    """A monomial exponent: an n-tuple of naturals.

    Ordered by deg-lex with x_1 > ... > x_n: compare total degree first,
    then lexicographically (use `sort_key`; sorting by it reproduces the
    canonical enumeration of `monomials`).
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        try:
            parts = tuple(map(index, parts))
        except TypeError as exc:
            raise ValueError(f"exponent parts must be integers: {exc}") from None
        if any(a < 0 for a in parts):
            raise ValueError(f"negative exponent in {parts}")
        return super().__new__(cls, parts)

    @property
    def degree(self) -> int:
        return sum(self)

    def sort_key(self) -> tuple:
        return (sum(self), tuple(-a for a in self))

    def __add__(self, other: "Exponent") -> "Exponent":
        return Exponent(map(add, self, other))

    def __sub__(self, other: "Exponent") -> "Exponent":
        return Exponent(map(sub, self, other))

    def factorial(self) -> int:
        r = 1
        for a in self:
            r *= factorial(a)
        return r

    @classmethod
    def unit(cls, num_vars: int, j: int) -> "Exponent":
        """delta_j: the exponent of the single variable x_{j+1}."""
        return cls(int(k == j) for k in range(num_vars))


@lru_cache(maxsize=None)
def monomials(num_vars: int, degree: int) -> tuple[Exponent, ...]:
    """All exponents of the given degree, canonically ordered.

    Descending lexicographic: (d,0,...,0) first, (0,...,0,d) last.  Length
    is binom(num_vars-1+degree, num_vars-1).
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    # Stars and bars: bar positions in lexicographic order give ascending exponents.
    slots = degree + num_vars - 1
    out = []
    for bars in combinations(range(slots), num_vars - 1):
        ends = (-1,) + bars + (slots,)
        out.append(Exponent(b - a - 1 for a, b in zip(ends, ends[1:])))
    return tuple(reversed(out))


def monomials_up_to(num_vars: int, max_degree: int) -> tuple[Exponent, ...]:
    """Exponents of degree 0..max_degree, degree ascending then canonical."""
    return tuple(e for d in range(max_degree + 1) for e in monomials(num_vars, d))


def degree_dimension(num_vars: int, degree: int) -> int:
    """dim of the space of forms of the given degree."""
    return comb(num_vars - 1 + degree, num_vars - 1) if degree >= 0 else 0


def _normalized_terms(num_vars: int, terms: Mapping, max_degree=None) -> dict[Exponent, Fraction]:
    """Exponent -> nonzero Fraction, dropping the terms above max_degree (if given)."""
    out: dict[Exponent, Fraction] = {}
    for e, c in dict(terms).items():
        e = e if isinstance(e, Exponent) else Exponent(e)
        if len(e) != num_vars:
            raise ValueError(f"exponent {tuple(e)} has wrong arity, expected {num_vars}")
        c = c if type(c) is Fraction else Fraction(c)
        if c and (max_degree is None or e.degree <= max_degree):
            out[e] = c
    return out


class _TermPolynomial:
    """An immutable map from exponents to nonzero rationals: both sides of the pairing.

    `_ring()` is the constructor arguments before the terms; `_like` builds
    every result of arithmetic in the same kind and ring.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping = ()):
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "terms", _normalized_terms(num_vars, terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _ring(self) -> tuple:
        return (self.num_vars,)

    def _like(self, terms: Mapping):
        return type(self)(*self._ring(), terms)

    def _check_compatible(self, other) -> None:
        if other._ring() != self._ring() or type(other) is not type(self):
            if type(self) is type(other) is DualPolynomial:
                raise ValueError(f"variable-count mismatch: {self.num_vars} vs {other.num_vars}")
            # A dual polynomial has no truncation order: mixing kinds is a jet mismatch.
            raise ValueError("jet arity or truncation order mismatch")

    @classmethod
    def monomial(cls, num_vars: int, exponent, coeff=1):
        return cls(num_vars, {Exponent(exponent): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((e.degree for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({e.degree for e in self.terms}) <= 1

    def homogeneous_component(self, j: int):
        """The degree-j part; summing over all j reconstructs the polynomial."""
        return self._like({e: c for e, c in self.terms.items() if e.degree == j})

    def top_component(self):
        return self.homogeneous_component(self.degree)

    def coefficient(self, exponent) -> Fraction:
        return self.terms.get(Exponent(exponent), Fraction(0))

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def scaled(self, factor):
        f = Fraction(factor)
        return self._like({e: f * c for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other._ring() == self._ring()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self._ring() + (frozenset(self.terms.items()),))

    def __repr__(self) -> str:
        from .parsing import format_polynomial

        ring = ", ".join(map(str, self._ring()))
        return f"{type(self).__name__}({ring}, {format_polynomial(self)!r})"

    def __str__(self) -> str:
        from .parsing import format_polynomial

        return format_polynomial(self)


class DualPolynomial(_TermPolynomial):
    """Element of P = Q[y_1..y_n], stored in the plain monomial basis."""

    __slots__ = ()

    @classmethod
    def zero(cls, num_vars: int) -> "DualPolynomial":
        return cls(num_vars)


class JetPolynomial(_TermPolynomial):
    """Element of R/M^(s+1): a polynomial truncated beyond degree s."""

    __slots__ = ("truncation_order",)

    def __init__(self, num_vars: int, truncation_order: int, terms: Mapping = ()):
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "truncation_order", int(truncation_order))
        object.__setattr__(self, "terms", _normalized_terms(num_vars, terms, truncation_order))

    def _ring(self) -> tuple:
        return (self.num_vars, self.truncation_order)

    @classmethod
    def one(cls, num_vars: int, truncation_order: int) -> "JetPolynomial":
        return cls(num_vars, truncation_order, {Exponent((0,) * num_vars): 1})

    @classmethod
    def monomial(cls, num_vars, truncation_order, exponent, coeff=1) -> "JetPolynomial":
        return cls(num_vars, truncation_order, {Exponent(exponent): coeff})

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.num_vars)

    def __mul__(self, other: "JetPolynomial") -> "JetPolynomial":
        """Product truncated beyond the truncation order."""
        self._check_compatible(other)
        s = self.truncation_order
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e.degree <= s:
                    out[e] = out.get(e, 0) + c1 * c2
        return self._like(out)


# ---------------------------------------------------------------------------
# contraction action
# ---------------------------------------------------------------------------


def add_contraction(out: dict, alpha: Sequence[int], terms: Mapping, factor=1) -> dict:
    """Add factor * (x^alpha o g) into the term dict `out`; g is given by its terms.

    The new keys are plain exponent tuples, and the coefficients may be
    integers or `Fraction`s.  `out` may hold zero coefficients afterwards;
    `DualPolynomial` drops them.  It must not be `terms` itself.
    """
    for beta, c in terms.items():
        scale = 1
        for b, a in zip(beta, alpha):
            if b < a:
                break
            scale *= perm(b, a)
        else:
            rest = tuple(map(sub, beta, alpha))
            out[rest] = out.get(rest, 0) + factor * scale * c
    return out


def integer_terms(terms: Mapping) -> tuple[dict, int]:
    """(numerators, denominator) with terms = numerators / denominator.

    The denominator is the least common denominator of the rational
    coefficients, so it shares no factor with all the numerators at once.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def contract_monomial(alpha: Exponent, g: DualPolynomial) -> DualPolynomial:
    """x^alpha o g, by the rule x^a o y^b = b!/(b-a)! y^(b-a)."""
    return DualPolynomial(g.num_vars, add_contraction({}, alpha, g.terms))


def contract(f: JetPolynomial, g: DualPolynomial) -> DualPolynomial:
    """f o g = f(d/dy_1, ..., d/dy_n) applied to g."""
    if f.num_vars != g.num_vars:
        raise ValueError(f"variable-count mismatch: {f.num_vars} vs {g.num_vars}")
    out: dict = {}
    for alpha, c in f.terms.items():
        add_contraction(out, alpha, g.terms, c)
    return DualPolynomial(g.num_vars, out)


def pairing(f: JetPolynomial, g: DualPolynomial) -> Fraction:
    """<f, g>: the constant term of f o g.

    On monomials <x^a, y^b/b!> = 1 if a == b else 0, which is what makes
    {y^a/a!} the dual basis.
    """
    return contract(f, g).coefficient(Exponent((0,) * g.num_vars))


# ---------------------------------------------------------------------------
# dual-basis coordinates
# ---------------------------------------------------------------------------


def dual_coordinates(g: DualPolynomial, degree: int | None = None) -> tuple[Fraction, ...]:
    """Coordinates of a homogeneous g in the dual basis {y^a / a!}.

    Entry at exponent a is a! times the plain coefficient of y^a, indexed by
    the canonical enumeration of that degree.
    """
    if not g.is_homogeneous():
        raise ValueError("dual coordinates require a homogeneous polynomial")
    if degree is None:
        degree = g.degree
        if degree < 0:
            raise ValueError("zero polynomial needs an explicit degree")
    elif not g.is_zero() and g.degree != degree:
        raise ValueError(f"polynomial has degree {g.degree}, not {degree}")
    return tuple(e.factorial() * g.coefficient(e) for e in monomials(g.num_vars, degree))


def from_dual_coordinates(
    num_vars: int, degree: int, coordinates: Sequence
) -> DualPolynomial:
    """Inverse of dual_coordinates: rebuild g = sum b_a * y^a/a!."""
    exps = monomials(num_vars, degree)
    if len(coordinates) != len(exps):
        raise ValueError(
            f"expected {len(exps)} coordinates for degree {degree}, got {len(coordinates)}"
        )
    return DualPolynomial(
        num_vars,
        {e: Fraction(b) / e.factorial() for e, b in zip(exps, coordinates)},
    )


# ---------------------------------------------------------------------------
# the derived submodule and its filtered echelon
# ---------------------------------------------------------------------------


def echelon_columns(num_vars: int, top: int) -> tuple[Exponent, ...]:
    """The columns of `dual_echelon`: degree top down to 0, canonical inside a degree."""
    return tuple(e for d in range(top, -1, -1) for e in monomials(num_vars, d))


def dual_echelon(
    generators: Sequence[DualPolynomial],
) -> list[tuple[int, bool, list[int]]]:
    """One forward echelon of the module M the generators span under contraction.

    Columns are the monomials of degree top, top-1, ..., 0 (canonical order
    inside a degree), so a row's pivot lies in the degree of its leading
    component and the rows with pivot in degree <= j span M intersected with
    P_{<=j}.  The rows are every nonzero x^gamma o g with |gamma| >= 1, which
    span m o M, followed by the generators themselves.  Returns
    (degree, from_generator, row) per pivot: from_generator marks the pivots
    of M that m o M lacks, and the row is the eliminated integer row.
    """
    n = generators[0].num_vars
    top = max(g.degree for g in generators)
    columns = echelon_columns(n, top)
    pos = {e: i for i, e in enumerate(columns)}

    def row(p: DualPolynomial) -> list:
        out = [0] * len(pos)
        for e, c in p.terms.items():
            out[pos[e]] = c
        return out

    rows = []
    for g in generators:
        for gamma in monomials_up_to(n, g.degree)[1:]:
            cg = contract_monomial(gamma, g)
            if not cg.is_zero():
                rows.append(row(cg))
    first_generator = len(rows)
    rows.extend(row(g) for g in generators)
    return [
        (columns[c].degree, i >= first_generator, r) for i, c, r in forward_echelon(rows)
    ]


def _nonzero_generators(generators: Sequence[DualPolynomial]) -> list[DualPolynomial]:
    gens = [g for g in generators if not g.is_zero()]
    if len({g.num_vars for g in gens}) > 1:
        raise ValueError("generators must share the variable count")
    return gens


def slice_dimensions(generators: Sequence[DualPolynomial]) -> tuple[int, ...]:
    """Dimensions of the graded slices of the generated submodule.

    Entry j is the dimension of the degree-j slice: elements of the
    submodule of degree <= j, taken modulo those of degree < j, which is
    the number of pivots of `dual_echelon` in degree j.  For a nonzero
    Macaulay dual module this is the Hilbert function of the corresponding
    quotient algebra.
    """
    if not generators:
        raise ValueError("need at least one generator")
    gens = _nonzero_generators(generators)
    if not gens:
        raise ValueError("all generators are zero")
    dims = [0] * (max(g.degree for g in gens) + 1)
    for d, _, _ in dual_echelon(gens):
        dims[d] += 1
    return tuple(dims)


def derivative_span(
    generators: Sequence[DualPolynomial], target_degree: int
) -> list[DualPolynomial]:
    """Basis of the degree-j slice of the submodule generated under derivation.

    The slice consists of the degree-j leading parts of the submodule
    elements of degree <= j; the rows of `dual_echelon` with pivot in degree
    j have independent degree-j parts spanning it.  The basis returned is
    the reduced echelon form of those parts over monomials(n, j).
    """
    gens = _nonzero_generators(generators)
    top = max((g.degree for g in gens), default=-1)
    j = target_degree
    if not 0 <= j <= top:
        return []
    n = gens[0].num_vars
    exps_j = monomials(n, j)
    start = sum(degree_dimension(n, d) for d in range(j + 1, top + 1))
    rows = [r[start : start + len(exps_j)] for d, _, r in dual_echelon(gens) if d == j]
    if not rows:
        return []
    red, pivots = RationalMatrix(rows).rref()
    return [DualPolynomial(n, dict(zip(exps_j, red.row(i)))) for i in range(len(pivots))]
