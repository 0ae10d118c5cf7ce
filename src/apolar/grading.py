"""Obstruction matrices, the killing staircase, and the gradedness decision.

Whether an Artin local algebra is canonically graded (analytically
isomorphic to its associated graded ring) is attacked constructively: walk
p = 1, 2, ... and at each step try to eliminate, for every generator of the
dual module, the homogeneous component sitting gap p below its top.  A
single automorphism with identity linear part and a degree-(p+1)
perturbation serves all generators at once; its effect on those components
is linear in the perturbation coefficients, with matrix `killing_matrix`.

Outcomes are reported honestly: GRADED comes with a replayable certificate,
while OBSTRUCTED_RESTRICTED only asserts that no automorphism from this
restricted family completes the failing step; it is not by itself a proof
that the algebra fails to be canonically graded.

The staircase computes on integers.  Generator reduction and the killing
step write each generator as integer numerators over one denominator,
keyed by plain exponent tuples; echelons, combinations and the stacked
killing system are integer rows, eliminated by the integer cores of
`linalg`.  `Fraction`s are built only where a result leaves: the
coefficients of a reduced `DualPolynomial`, a `KillingStep`'s solution, and
the matrix and target of an `Obstruction`, the one place a
`RationalMatrix` is built.  `killing_matrix` is the `Fraction` view of the
killing step's row builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, prod
from operator import add
from typing import Optional, Sequence, Union

from .automorphism import TruncatedAutomorphism, dual_apply
from .catalecticant import catalecticant_matrix
from .errors import InvariantViolation, SocleDegreeTooLarge
from .inverse_system import AlgebraPresentation, macaulay_validate
from .linalg import RationalMatrix, combination_echelon, reduce_rows, solve_rows
from .poly import (
    DualPolynomial,
    Exponent,
    add_contraction,
    dual_coordinates,
    integer_terms,
    monomials,
)

_STAIRCASE_NOTE = (
    "staircase order: components are eliminated in ascending gap order"
    " (p = 1, 2, ...), re-reducing after every step"
)
_MIXED_DEGREE_NOTE = (
    "generators of unequal degrees: each killing step stacks blocks only for"
    " generators whose degree exceeds the current target degree"
)
_UNDECIDED_NOTE = (
    "staircase completed but lower components of smaller-degree generators"
    " remain; the restricted family cannot decide this input"
)
_RESTRICTED_NOTE = (
    "OBSTRUCTED_RESTRICTED rules out automorphisms with identity linear part"
    " and a single-degree perturbation at the failing step; it does not by"
    " itself prove the algebra is not canonically graded"
)


def _killing_rows(terms: dict, num_vars: int, degree: int, gap: int) -> list[list]:
    """Rows of the killing matrix of the degree-`degree` form with these terms.

    The coefficients may be integers or `Fraction`s; the entries are of the
    same kind, and terms of other degrees are ignored.  Row W, block j is
    w_j times the catalecticant row W - delta_j (zero when w_j = 0).
    """
    n = num_vars
    beta = {e: prod(map(factorial, e)) * c for e, c in terms.items() if sum(e) == degree}
    columns = monomials(n, gap + 1)
    catalecticant_row: dict = {}
    zero = [0] * len(columns)
    rows = []
    for W in monomials(n, degree - gap):
        row = []
        for j, w in enumerate(W):
            if not w:
                row.extend(zero)
                continue
            L = W[:j] + (w - 1,) + W[j + 1 :]
            if L not in catalecticant_row:
                catalecticant_row[L] = [beta.get(tuple(map(add, L, i)), 0) for i in columns]
            row.extend(w * x for x in catalecticant_row[L])
        rows.append(row)
    return rows


def killing_matrix(form: DualPolynomial, gap: int) -> RationalMatrix:
    """Matrix of the perturbation's first-order effect gap degrees below the top.

    For a form of degree d, rows run over exponents W of degree d-gap and
    columns over pairs (j, i) with |i| = gap+1; the entry is
    w_j * alpha_{W - delta_j + i} in the dual coordinates alpha of the form.
    So row W, block j is w_j times row W - delta_j of the order-(gap+1)
    catalecticant (zero when w_j = 0): every row of the killing matrix is a
    scaled catalecticant row, which `rank_criterion` rests on.
    """
    if form.is_zero() or not form.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous polynomial")
    d = form.degree
    if d < 2:
        raise ValueError(f"a form of degree {d} has no killing matrix (degree must be at least 2)")
    if not 1 <= gap <= d - 1:
        raise ValueError(f"gap must lie in 1..{d - 1}")
    return RationalMatrix(_killing_rows(form.terms, form.num_vars, d, gap))


def stacked_killing_matrix(forms: Sequence[DualPolynomial], gap: int) -> RationalMatrix:
    """Vertical stack of killing matrices of equal-degree forms, in order."""
    if not forms:
        raise ValueError("need at least one form")
    if len({f.degree for f in forms}) > 1:
        raise ValueError("mixed degrees in killing stack")
    return RationalMatrix.stacked([killing_matrix(f, gap) for f in forms])


def rank_criterion(form: DualPolynomial, gap: int) -> bool:
    """Whether the order-(gap+1) catalecticant rank is maximal for its shape.

    Only meaningful for forms of degree at most 4 (degree 5 has a documented
    counterexample, so larger degrees are refused).  Catalecticant
    maximality always forces killing-matrix maximality in this range, and
    that direction is re-checked on every call; the converse does not hold
    in general (binary quartics that are sums of two fourth powers have a
    degenerate middle catalecticant but a full killing matrix), so a
    degenerate catalecticant simply returns False.
    """
    d = form.degree
    if d >= 5:
        raise SocleDegreeTooLarge(
            f"the rank criterion holds only for socle degree <= 4 (got {d})"
        )
    delta = catalecticant_matrix(form, gap + 1)
    delta_maximal = delta.rank() == min(delta.rows, delta.cols)
    if delta_maximal:
        M = killing_matrix(form, gap)
        if M.rank() != min(M.rows, M.cols):
            raise InvariantViolation(
                "maximal catalecticant rank failed to force a maximal killing"
                f" matrix at degree {d}, gap {gap}"
            )
    return delta_maximal


# ---------------------------------------------------------------------------
# generator reduction
# ---------------------------------------------------------------------------


def _span_rows(
    tops: Sequence[dict], degrees: Sequence[int], n: int, degree: int, allowed: Sequence[int]
) -> tuple[list[list[int]], list[tuple[int, Exponent]]]:
    """Degree-`degree` contractions of the allowed tops' numerators, with provenance."""
    exps = monomials(n, degree)
    rows, tags = [], []
    for q in allowed:
        if degrees[q] < degree:
            continue
        for gamma in monomials(n, degrees[q] - degree):
            cg = add_contraction({}, gamma, tops[q])
            if cg:
                rows.append([cg.get(e, 0) for e in exps])
                tags.append((q, gamma))
    return rows, tags


def reduce_generators(
    generators: Sequence[DualPolynomial], *, echelons: Optional[dict] = None
) -> list[DualPolynomial]:
    """Normalize lower components against the module of the leading forms.

    A component is absorbed by subtracting actual contractions of the full
    generators, so the generated submodule (hence the ideal, hence the
    algebra) is untouched.  Two kinds of absorption are used:

      * when the degree-j slice of the leading-form module is all of P_j,
        the component is eliminated outright;
      * otherwise it is reduced only against contractions of its own top
        and of tops of different degree.

    Same-degree cross-generator reduction is deliberately not performed in
    the second case: leftover components are exactly what the killing
    staircase is for, and silently absorbing them would bypass it.

    Reductions never change a top component, so the echelon of the allowed
    tops' contractions in a degree depends only on the tops.  `echelons`
    maps (degree, allowed generators) to that echelon and is filled as
    needed.  Calls may share a table only when their generators have the
    same tops: the staircase passes one table to all its reductions, since
    its automorphisms keep the tops too.  Without it a table lives for
    this call only.

    On integers: generator r is N/D with a running denominator D, top q is
    P_q / t_q with P_q integer, and the echelons are built from the P_q.
    Reducing the numerators of a component read under denominator D gives
    combination coefficients c'_k for the rows of P_q; the coefficient for
    the contraction of generator q is then c'_k * t_q / D, and subtracting
    it multiplies D by the part of its denominator that D lacks.
    """
    gens = list(generators)
    if not gens:
        return []
    n = gens[0].num_vars
    degrees = [g.degree for g in gens]
    if echelons is None:
        echelons = {}
    ints = [integer_terms(g.terms) for g in gens]
    tops = [
        integer_terms({e: c for e, c in g.terms.items() if sum(e) == d})
        for g, d in zip(gens, degrees)
    ]

    def echelon(j: int, allowed: tuple[int, ...]):
        if (j, allowed) not in echelons:
            rows, tags = _span_rows([t for t, _ in tops], degrees, n, j, allowed)
            width, count = len(monomials(n, j)), len(rows)
            units = [[0] * k + [1] + [0] * (count - k - 1) for k in range(count)]
            kept = combination_echelon([row + unit for row, unit in zip(rows, units)], width)
            # a zero column for the 1 that reduce_rows carries for the vector
            echelons[j, allowed] = [(row + [0], lead) for row, lead, _ in kept], tags
        return echelons[j, allowed]

    for r in range(len(gens)):
        num, den = ints[r]
        num = dict(num)
        for j in range(degrees[r] - 1, -1, -1):
            exps = monomials(n, j)
            vec = [num.get(e, 0) for e in exps]
            if not any(vec):
                continue
            ech, tags = echelon(j, tuple(range(len(gens))))
            if len(ech) < len(exps):
                ech, tags = echelon(j, tuple(
                    q for q in range(len(gens)) if q == r or degrees[q] != degrees[r]
                ))
            if not ech:
                continue
            # proportional to [residual | -combination | 1]
            cur = reduce_rows(ech, vec + [0] * len(tags) + [1])
            width, last = len(exps), cur[-1] * den
            for k, (q, gamma) in enumerate(tags):
                if cur[width + k]:
                    # a contraction of generator r itself sees the
                    # subtractions made so far
                    source, source_den = (dict(num), den) if q == r else ints[q]
                    # minus the combination coefficient, per numerator of generator q
                    c = Fraction(cur[width + k] * tops[q][1], last * source_den)
                    scale = c.denominator // gcd(den, c.denominator)
                    if scale > 1:
                        num = {e: v * scale for e, v in num.items()}
                        den *= scale
                    add_contraction(num, gamma, source, c.numerator * (den // c.denominator))
        ints[r] = num, den
        gens[r] = DualPolynomial(n, {e: Fraction(v, den) for e, v in num.items() if v})
    return gens


# ---------------------------------------------------------------------------
# the staircase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """Witness that a killing step is unsolvable in the restricted family."""

    gap: int
    matrix: RationalMatrix
    rank: int
    target: tuple[Fraction, ...]
    generator_indices: tuple[int, ...]


@dataclass(frozen=True)
class KillingStep:
    gap: int
    coefficients: tuple[Fraction, ...]


class GradingOutcome(str, Enum):
    GRADED = "GRADED"
    OBSTRUCTED_RESTRICTED = "OBSTRUCTED_RESTRICTED"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class GradingReport:
    outcome: GradingOutcome
    steps: tuple[KillingStep, ...]
    final_generators: tuple[DualPolynomial, ...]
    obstruction: Optional[Obstruction] = None
    notes: tuple[str, ...] = field(default=())

    def as_document(self) -> dict:
        """Plain, ordering-stable structure for serialization."""
        doc = {
            "outcome": self.outcome.value,
            "steps": [
                {"gap": st.gap, "coefficients": [str(c) for c in st.coefficients]}
                for st in self.steps
            ],
            "final_generators": [str(g) for g in self.final_generators],
        }
        if self.obstruction is not None:
            ob = self.obstruction
            doc["obstruction"] = {
                "gap": ob.gap,
                "matrix": [[str(x) for x in ob.matrix.row(i)] for i in range(ob.matrix.rows)],
                "rank": ob.rank,
                "target": [str(x) for x in ob.target],
                "generator_indices": list(ob.generator_indices),
            }
        doc["notes"] = list(self.notes)
        return doc


def _participants(degrees: Sequence[int], socle_degree: int, gap: int) -> list[int]:
    """Generators joining the killing system at this step.

    A generator takes part when its degree exceeds the step's target degree
    and the component gap degrees below its top actually exists.
    """
    return [
        r
        for r, d in enumerate(degrees)
        if d > socle_degree - gap and d - gap >= 1
    ]


def killing_step(
    generators: Sequence[DualPolynomial], gap: int
) -> Union[tuple[Fraction, ...], Obstruction]:
    """Solve for perturbation coefficients wiping the gap-p components.

    Stacks one killing-matrix block per participating generator and asks for
    coefficients a with [component] + a * M^T = 0 simultaneously.  Returns
    the (free-variables-zero) solution, or the obstruction certificate.

    With generator r = N/D, block r is solved as K(top of N) a = -[component
    of N]: both sides are D times the rational ones, so the stacked system is
    integer and has the same solutions.
    """
    gens = list(generators)
    n = gens[0].num_vars
    degrees = [g.degree for g in gens]
    s = max(degrees)
    if not 1 <= gap <= s - 1:
        raise ValueError(f"gap must lie in 1..{s - 1}")
    parts = _participants(degrees, s, gap)
    if not parts:
        return tuple()
    rows = []
    for r in parts:
        d = degrees[r]
        num, _ = integer_terms(gens[r].terms)
        target = [prod(map(factorial, e)) * num.get(e, 0) for e in monomials(n, d - gap)]
        for row, t in zip(_killing_rows(num, n, d, gap), target):
            row.append(-t)
            rows.append(row)
    solution = solve_rows(rows, n * len(monomials(n, gap + 1)))
    if solution is not None:
        return solution
    M = RationalMatrix.stacked([killing_matrix(gens[r].top_component(), gap) for r in parts])
    return Obstruction(
        gap=gap,
        matrix=M,
        rank=M.rank(),
        target=tuple(
            t
            for r in parts
            for t in dual_coordinates(
                gens[r].homogeneous_component(degrees[r] - gap), degrees[r] - gap
            )
        ),
        generator_indices=tuple(parts),
    )


def canonically_graded(pres: AlgebraPresentation) -> GradingReport:
    """Decide canonical gradedness by the restricted killing staircase.

    Reduce, then for p ascending solve each killing step and push every
    generator through the resulting automorphism, re-reducing after each
    step.  GRADED certificates replay: the recorded coefficient vectors,
    applied in order with the same reductions, land on the reported
    homogeneous generators without moving any leading form.
    """
    macaulay_validate(pres)
    n = pres.num_vars
    notes = [_STAIRCASE_NOTE]
    if len(set(pres.degrees)) > 1:
        notes.append(_MIXED_DEGREE_NOTE)
    # one table of echelons for every reduction: no step moves a top
    echelons: dict = {}
    gens = reduce_generators(pres.generators, echelons=echelons)
    degrees = [g.degree for g in gens]
    s = max(degrees)
    steps: list[KillingStep] = []
    for gap in range(1, s):
        parts = _participants(degrees, s, gap)
        if not parts:
            continue
        if not any(sum(e) == degrees[r] - gap for r in parts for e in gens[r].terms):
            continue
        outcome = killing_step(gens, gap)
        if isinstance(outcome, Obstruction):
            return GradingReport(
                outcome=GradingOutcome.OBSTRUCTED_RESTRICTED,
                steps=tuple(steps),
                final_generators=tuple(gens),
                obstruction=outcome,
                notes=tuple(notes + [_RESTRICTED_NOTE]),
            )
        phi = TruncatedAutomorphism.with_perturbation(n, s, gap, outcome)
        gens = [dual_apply(phi, g) for g in gens]
        gens = reduce_generators(gens, echelons=echelons)
        steps.append(KillingStep(gap=gap, coefficients=tuple(outcome)))
    if all(g.is_homogeneous() for g in gens):
        return GradingReport(
            outcome=GradingOutcome.GRADED,
            steps=tuple(steps),
            final_generators=tuple(gens),
            notes=tuple(notes),
        )
    notes.append(_UNDECIDED_NOTE)
    return GradingReport(
        outcome=GradingOutcome.NOT_APPLICABLE,
        steps=tuple(steps),
        final_generators=tuple(gens),
        notes=tuple(notes),
    )


def replay_certificate(
    pres: AlgebraPresentation, report: GradingReport
) -> tuple[DualPolynomial, ...]:
    """Re-run the recorded reductions and automorphisms from the input.

    The result must match the report's final generators exactly; tests use
    this to validate GRADED certificates.
    """
    n = pres.num_vars
    echelons: dict = {}
    gens = reduce_generators(pres.generators, echelons=echelons)
    s = max(g.degree for g in gens)
    for step in report.steps:
        phi = TruncatedAutomorphism.with_perturbation(n, s, step.gap, step.coefficients)
        gens = [dual_apply(phi, g) for g in gens]
        gens = reduce_generators(gens, echelons=echelons)
    return tuple(gens)
