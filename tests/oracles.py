"""Independent reference computations that only the tests use.

Three kinds live here.  Matrix products and the algebra of truncated
automorphisms: substituting the variable images into a jet, and
composing two automorphisms.  Cross-checks of the killing staircase: the
closed form of a perturbation's top-degree block, the killing matrix
entry by entry from the dual coordinates, a scan of its block structure,
the dual action through the dense matrix of the automorphism,
generator reduction as it was written before the staircase shared its
echelons (one echelon table per call, one `DualPolynomial` subtraction
per contraction), the killing step on `Fraction` matrices, and the whole
staircase built from those three.  And the invariants of a
presentation computed the long way, without the dual echelon of
`apolar.poly.dual_echelon`: the annihilators as kernels of contraction
matrices, the socle type on the quotient algebra A = R/I itself, the
slice dimensions by one rank per degree, and the derivative spans by a
Gauss-Jordan elimination with the columns of degree above j moved first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from apolar import (
    AlgebraPresentation,
    DualPolynomial,
    GradingOutcome,
    GradingReport,
    KillingStep,
    Obstruction,
    JetPolynomial,
    TruncatedAutomorphism,
    annihilator_upto,
    dual_coordinates,
    killing_matrix,
)
from apolar.catalecticant import catalecticant_matrix
from apolar.grading import (
    _MIXED_DEGREE_NOTE,
    _RESTRICTED_NOTE,
    _STAIRCASE_NOTE,
    _UNDECIDED_NOTE,
)
from apolar.linalg import RationalMatrix, echelon_with_combinations, reduce_against
from apolar.poly import (
    Exponent,
    contract_monomial,
    degree_dimension,
    monomials,
    monomials_up_to,
)
from apolar.inverse_system import SocleType


# ---------------------------------------------------------------------------
# matrix products and automorphism algebra
# ---------------------------------------------------------------------------


def matvec(M: RationalMatrix, vector: Sequence) -> tuple[Fraction, ...]:
    """M times the column vector."""
    if len(vector) != M.cols:
        raise ValueError("vector length does not match column count")
    return tuple(sum(a * b for a, b in zip(M.row(i), vector)) for i in range(M.rows))


def vecmat(vector: Sequence, M: RationalMatrix) -> tuple[Fraction, ...]:
    """The row vector times M."""
    if len(vector) != M.rows:
        raise ValueError("vector length does not match row count")
    return tuple(sum(v * M[i, j] for i, v in enumerate(vector)) for j in range(M.cols))


def matmul(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    """The product A B."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    return RationalMatrix([vecmat(A.row(i), B) for i in range(A.rows)])


def substitute(phi: TruncatedAutomorphism, f: JetPolynomial) -> JetPolynomial:
    """phi(f): the variable images of phi substituted into the jet f."""
    if f.num_vars != phi.num_vars or f.truncation_order != phi.truncation_order:
        raise ValueError("jet does not live in this truncated ring")
    acc = JetPolynomial(phi.num_vars, phi.truncation_order)
    for e, c in f.terms.items():
        acc = acc + phi.image_of_exponent(e).scaled(c)
    return acc


def compose(phi: TruncatedAutomorphism, psi: TruncatedAutomorphism) -> TruncatedAutomorphism:
    """The composite that applies phi first, then psi."""
    if (phi.num_vars, phi.truncation_order) != (psi.num_vars, psi.truncation_order):
        raise ValueError("automorphisms live in different truncated rings")
    return TruncatedAutomorphism(
        phi.num_vars, phi.truncation_order, [substitute(psi, img) for img in phi.images]
    )


# ---------------------------------------------------------------------------
# the killing staircase
# ---------------------------------------------------------------------------


def killing_matrix_reference(form: DualPolynomial, gap: int) -> RationalMatrix:
    """`apolar.killing_matrix` entry by entry: w_j * alpha_{W - delta_j + i}.

    Rows over exponents W of degree d-gap, columns over pairs (j, i) with
    |i| = gap+1, alpha the dual coordinates of the degree-d form.
    """
    d, n = form.degree, form.num_vars
    alpha = dict(zip(monomials(n, d), dual_coordinates(form)))
    cols = [(j, i) for j in range(n) for i in monomials(n, gap + 1)]
    rows = []
    for W in monomials(n, d - gap):
        row = []
        for j, i in cols:
            if W[j] == 0:
                row.append(Fraction(0))
                continue
            shifted = tuple(W[k] - (1 if k == j else 0) + i[k] for k in range(n))
            row.append(W[j] * alpha[Exponent(shifted)])
        rows.append(row)
    return RationalMatrix(rows)


def perturbation_block(
    num_vars: int, truncation_order: int, gap: int, coefficients: Sequence
) -> RationalMatrix:
    """Closed form of the top-degree block of a perturbation's matrix.

    Rows over degree-s exponents L, columns over degree-(s-gap) exponents W;
    the entry is the sum of w_j * a^j_i over all splittings W - delta_j + i = L.
    Cross-checked against the corresponding submatrix of phi.matrix().
    """
    n, s = num_vars, truncation_order
    perturbation_exps = monomials(n, gap + 1)
    per = len(perturbation_exps)
    coeffs = [Fraction(c) for c in coefficients]
    if len(coeffs) != n * per:
        raise ValueError(f"expected {n * per} coefficients, got {len(coeffs)}")
    a = {
        (j, e): coeffs[j * per + k]
        for j in range(n)
        for k, e in enumerate(perturbation_exps)
    }
    rows = []
    for L in monomials(n, s):
        row = []
        for W in monomials(n, s - gap):
            total = Fraction(0)
            for j in range(n):
                if W[j] == 0:
                    continue
                diff = tuple(
                    L[k] - W[k] + (1 if k == j else 0) for k in range(n)
                )
                if all(d >= 0 for d in diff):
                    total += W[j] * a[(j, Exponent(diff))]
            row.append(total)
        rows.append(row)
    return RationalMatrix(rows)


def dense_dual_apply(phi: TruncatedAutomorphism, g: DualPolynomial) -> DualPolynomial:
    """The dual action by its dense definition [F] = [g] * phi.matrix()."""
    if g.num_vars != phi.num_vars or g.degree > phi.truncation_order:
        raise ValueError("g does not fit the automorphism")
    basis = monomials_up_to(phi.num_vars, phi.truncation_order)
    row = [e.factorial() * g.coefficient(e) for e in basis]
    out = vecmat(row, phi.matrix())
    return DualPolynomial(phi.num_vars, {e: c / e.factorial() for e, c in zip(basis, out)})


def reduce_generators_reference(
    generators: Sequence[DualPolynomial], self_uses: list | None = None
) -> list[DualPolynomial]:
    """`apolar.reduce_generators` with a fresh echelon table per call.

    Each contraction of a combination is subtracted from the generator as a
    `DualPolynomial`, in combination order; a contraction of the generator
    itself sees the subtractions made before it.  `self_uses`, if given,
    receives for every applied combination the number of its nonzero
    coefficients on contractions of the generator being reduced.
    """
    gens = list(generators)
    if not gens:
        return []
    n = gens[0].num_vars
    tops = [g.top_component() for g in gens]
    degrees = [g.degree for g in gens]
    echelons = {}

    def echelon(j, allowed):
        if (j, allowed) not in echelons:
            rows, tags = [], []
            for q in allowed:
                for gamma in monomials(n, tops[q].degree - j):
                    cg = contract_monomial(gamma, tops[q])
                    if not cg.is_zero():
                        rows.append([cg.coefficient(e) for e in monomials(n, j)])
                        tags.append((q, gamma))
            echelons[j, allowed] = echelon_with_combinations(rows), tags
        return echelons[j, allowed]

    for r in range(len(gens)):
        for j in range(degrees[r] - 1, -1, -1):
            comp = gens[r].homogeneous_component(j)
            if comp.is_zero():
                continue
            exps = monomials(n, j)
            ech, tags = echelon(j, tuple(range(len(gens))))
            if len(ech) < len(exps):
                ech, tags = echelon(j, tuple(
                    q for q in range(len(gens)) if q == r or degrees[q] != degrees[r]
                ))
            if not ech:
                continue
            _, combo = reduce_against(ech, [comp.coefficient(e) for e in exps])
            if self_uses is not None:
                self_uses.append(sum(1 for c, (q, _) in zip(combo, tags) if c and q == r))
            for c, (q, gamma) in zip(combo, tags):
                if c:
                    gens[r] = gens[r] - contract_monomial(gamma, gens[q]).scaled(c)
    return gens


def killing_step_reference(generators: Sequence[DualPolynomial], gap: int):
    """`apolar.killing_step` on `Fraction` matrices.

    Stacks `killing_matrix_reference` of each participating generator's top
    (degree above s - gap, with a component gap below its top) and solves
    with `RationalMatrix.solve` against the negated dual coordinates of the
    gap-p components.
    """
    gens = list(generators)
    degrees = [g.degree for g in gens]
    s = max(degrees)
    parts = [r for r, d in enumerate(degrees) if d > s - gap and d - gap >= 1]
    if not parts:
        return tuple()
    blocks, target = [], []
    for r in parts:
        blocks.append(killing_matrix_reference(gens[r].top_component(), gap))
        comp = gens[r].homogeneous_component(degrees[r] - gap)
        target.extend(dual_coordinates(comp, degrees[r] - gap))
    M = RationalMatrix.stacked(blocks)
    solution = M.solve([-t for t in target])
    if solution is None:
        return Obstruction(
            gap=gap, matrix=M, rank=M.rank(), target=tuple(target),
            generator_indices=tuple(parts),
        )
    return solution


def canonically_graded_reference(pres: AlgebraPresentation) -> GradingReport:
    """The killing staircase of `apolar.canonically_graded` from the references.

    Reductions are `reduce_generators_reference`, steps are
    `killing_step_reference`, and each automorphism acts by
    `dense_dual_apply`; the control flow and the notes are the staircase's.
    """
    n = pres.num_vars
    notes = [_STAIRCASE_NOTE]
    if len(set(pres.degrees)) > 1:
        notes.append(_MIXED_DEGREE_NOTE)
    gens = reduce_generators_reference(pres.generators)
    degrees = [g.degree for g in gens]
    s = max(degrees)
    steps = []
    for gap in range(1, s):
        parts = [r for r, d in enumerate(degrees) if d > s - gap and d - gap >= 1]
        if all(gens[r].homogeneous_component(degrees[r] - gap).is_zero() for r in parts):
            continue
        outcome = killing_step_reference(gens, gap)
        if isinstance(outcome, Obstruction):
            return GradingReport(
                GradingOutcome.OBSTRUCTED_RESTRICTED, tuple(steps), tuple(gens),
                outcome, tuple(notes + [_RESTRICTED_NOTE]),
            )
        phi = TruncatedAutomorphism.with_perturbation(n, s, gap, outcome)
        gens = reduce_generators_reference([dense_dual_apply(phi, g) for g in gens])
        steps.append(KillingStep(gap=gap, coefficients=tuple(outcome)))
    if all(g.is_homogeneous() for g in gens):
        return GradingReport(GradingOutcome.GRADED, tuple(steps), tuple(gens),
                             notes=tuple(notes))
    return GradingReport(GradingOutcome.NOT_APPLICABLE, tuple(steps), tuple(gens),
                         notes=tuple(notes + [_UNDECIDED_NOTE]))


def group_index(e: Exponent) -> int:
    """Index i of the set S^i containing x^e: first variable with a positive part."""
    return next(k for k, a in enumerate(e) if a > 0)


def verify_block_structure(form: DualPolynomial, gap: int) -> list[str]:
    """Diagnostic scan of the upper-diagonal structure of the killing matrix.

    Checks the zero pattern below the block diagonal, that the first
    diagonal block consists of scaled catalecticant rows, and that each
    later diagonal block repeats scaled rows of the previous one.  Returns
    a list of violation descriptions; empty means the structure holds.
    """
    d = form.degree
    n = form.num_vars
    M = killing_matrix(form, gap)
    delta = catalecticant_matrix(form, gap + 1)
    row_exps = monomials(n, d - gap)
    col_exps = monomials(n, gap + 1)
    delta_rows = {e: k for k, e in enumerate(monomials(n, d - gap - 1))}
    col_of = lambda j, k: j * len(col_exps) + k
    problems = []
    for r, W in enumerate(row_exps):
        group = group_index(W)
        for j in range(group):
            for k in range(len(col_exps)):
                if M[r, col_of(j, k)] != 0:
                    problems.append(
                        f"expected zero at row {W}, column block {j + 1} (group {group + 1})"
                    )
        if group == 0:
            L = W - Exponent.unit(n, 0)
            for k in range(len(col_exps)):
                want = W[0] * delta[delta_rows[L], k]
                if M[r, col_of(0, k)] != want:
                    problems.append(
                        f"first block row {W}: entry {k} is {M[r, col_of(0, k)]},"
                        f" expected {want} from the catalecticant"
                    )
    pos = {e: k for k, e in enumerate(row_exps)}
    for j in range(n - 1):
        for W in row_exps:
            if group_index(W) != j + 1:
                continue
            L = W - Exponent.unit(n, j + 1) + Exponent.unit(n, j)
            for k in range(len(col_exps)):
                want = W[j + 1] * M[pos[L], col_of(j, k)]
                if M[pos[W], col_of(j + 1, k)] != want:
                    problems.append(
                        f"block {j + 2} row {W}: entry {k} does not repeat"
                        f" the scaled block-{j + 1} row {L}"
                    )
    return problems


# ---------------------------------------------------------------------------
# slice dimensions and derivative spans, one elimination per degree
# ---------------------------------------------------------------------------


def contraction_closure(generators: Sequence[DualPolynomial]):
    """All contractions x^gamma o g_r as coefficient rows.

    Rows are indexed over monomials_up_to(n, d_max) (degree ascending), which
    makes "degree <= j" a coordinate prefix.
    """
    n = generators[0].num_vars
    top = max(g.degree for g in generators)
    exps = monomials_up_to(n, max(top, 0))
    pos = {e: i for i, e in enumerate(exps)}
    rows: list[list[Fraction]] = []
    for g in generators:
        for gamma in monomials_up_to(n, max(g.degree, 0)):
            cg = contract_monomial(gamma, g)
            if cg.is_zero():
                continue
            row = [Fraction(0)] * len(exps)
            for e, c in cg.terms.items():
                row[pos[e]] = c
            rows.append(row)
    return exps, rows


def filtered_dimensions(generators: Sequence[DualPolynomial]) -> list[int]:
    """dim of (span of all contractions) intersected with P_{<=j}, j = 0..top.

    The intersection with P_{<=j} is the kernel of projecting rows onto the
    coordinates of degree > j, so its dimension is dim(span) minus the rank
    of the column block of degree > j.
    """
    n = generators[0].num_vars
    top = max(g.degree for g in generators)
    exps, rows = contraction_closure(generators)
    dim_span = RationalMatrix(rows).rank()
    out = []
    offset = 0
    for j in range(top + 1):
        offset += degree_dimension(n, j)
        if offset < len(exps):
            tail_rank = RationalMatrix([r[offset:] for r in rows]).rank()
        else:
            tail_rank = 0
        out.append(dim_span - tail_rank)
    return out


def filtered_slice_dimensions(generators: Sequence[DualPolynomial]) -> tuple[int, ...]:
    """Slice dimensions as successive differences of `filtered_dimensions`."""
    filtered = filtered_dimensions(generators)
    return tuple(b - a for a, b in zip([0] + filtered[:-1], filtered))


def filtered_derivative_span(
    generators: Sequence[DualPolynomial], j: int
) -> list[DualPolynomial]:
    """Reduced basis of the degree-j slice, from a Gauss-Jordan elimination.

    The columns of degree > j go first, so the echelon rows whose pivot lies
    in the trailing (degree <= j) block span the submodule's intersection
    with P_{<=j}; their degree-j parts are brought to reduced echelon form.
    """
    n = generators[0].num_vars
    if j < 0 or j > max(g.degree for g in generators):
        return []
    exps, rows = contraction_closure(generators)
    prefix = sum(degree_dimension(n, d) for d in range(j + 1))
    reordered = [r[prefix:] + r[:prefix] for r in rows]
    red, pivots = RationalMatrix(reordered).rref()
    cut = len(exps) - prefix
    out = []
    for i, c in enumerate(pivots):
        if c < cut:
            continue
        tail = red.row(i)[cut:]
        comp = {e: tail[k] for k, e in enumerate(exps[:prefix]) if e.degree == j and tail[k]}
        if comp:
            out.append(DualPolynomial(n, comp))
    if not out:
        return []
    exps_j = monomials(n, j)
    red2, piv2 = RationalMatrix([[g.coefficient(e) for e in exps_j] for g in out]).rref()
    return [
        DualPolynomial(n, {e: red2[i, k] for k, e in enumerate(exps_j)})
        for i in range(len(piv2))
    ]


# ---------------------------------------------------------------------------
# annihilators, one contraction matrix per call
# ---------------------------------------------------------------------------


def contraction_kernel(
    pres: AlgebraPresentation, fmons: Sequence[Exponent], jet_order: int
) -> list[JetPolynomial]:
    """Kernel of f -> (f o G_1, ..., f o G_t) over the span of fmons.

    One column per monomial of fmons, holding the coefficients of x^gamma o G_r
    for every r over monomials_up_to(n, s).
    """
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


# ---------------------------------------------------------------------------
# the socle type on A = R/I
# ---------------------------------------------------------------------------


class QuotientAlgebra:
    """A = R/I with multiplication truncated past the socle degree.

    Basis: the monomials of degree <= s that are not pivots of the reduced
    annihilator; multiplication reduces back into that basis.  Everything of
    degree s+1 and beyond is already in I, so truncating products there is
    exact.
    """

    def __init__(self, pres: AlgebraPresentation):
        n, s = pres.num_vars, pres.socle_degree
        self.num_vars, self.socle_degree = n, s
        self.mons = monomials_up_to(n, s)
        self.pos = {e: i for i, e in enumerate(self.mons)}
        ann = annihilator_upto(pres, s) if s >= 1 else []
        rows = []
        for f in ann:
            row = [Fraction(0)] * len(self.mons)
            for e, c in f.terms.items():
                row[self.pos[e]] = c
            rows.append(row)
        if rows:
            red, pivots = RationalMatrix(rows).rref()
            self._reduced = red
            self._pivots = pivots
        else:
            self._reduced = RationalMatrix([])
            self._pivots = ()
        pivot_set = set(self._pivots)
        self.basis = [i for i in range(len(self.mons)) if i not in pivot_set]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        for i, c in enumerate(self._pivots):
            if vec[c]:
                f = vec[c]
                row = self._reduced.row(i)
                vec = [x - f * y for x, y in zip(vec, row)]
        return vec

    def class_of_monomial(self, e: Exponent) -> list[Fraction]:
        """Residue class of x^e, in coordinates over the quotient basis."""
        if e.degree > self.socle_degree:
            return [Fraction(0)] * self.dimension
        vec = [Fraction(0)] * len(self.mons)
        vec[self.pos[e]] = Fraction(1)
        vec = self._reduce(vec)
        return [vec[i] for i in self.basis]

    def multiply_by_variable(self, k: int, basis_index: int) -> list[Fraction]:
        """Class of x_k times the basis monomial at the given quotient index."""
        e = self.mons[self.basis[basis_index]] + Exponent.unit(self.num_vars, k)
        return self.class_of_monomial(e)


def subspace_intersection_dim(u_rows: list, v_rows: list) -> int:
    if not u_rows or not v_rows:
        return 0
    du = RationalMatrix(u_rows).rank()
    dv = RationalMatrix(v_rows).rank()
    return du + dv - RationalMatrix(u_rows + v_rows).rank()


def quotient_socle_type(pres: AlgebraPresentation) -> SocleType:
    """Socle dimensions e_i computed on A itself.

    The socle is the kernel of simultaneous multiplication by the variables,
    intersected with the filtration by monomial residues of degree >= i.
    """
    A = QuotientAlgebra(pres)
    n, s, dim = A.num_vars, A.socle_degree, A.dimension

    rows = []
    cols = [
        [A.multiply_by_variable(k, b) for b in range(dim)] for k in range(n)
    ]
    for k in range(n):
        for r in range(dim):
            rows.append([cols[k][b][r] for b in range(dim)])
    socle = [list(v) for v in RationalMatrix(rows).kernel_basis()]

    def filtration_rows(i: int) -> list[list[Fraction]]:
        if i == 0:
            return [
                [Fraction(int(a == b)) for a in range(dim)] for b in range(dim)
            ]
        return [
            A.class_of_monomial(e)
            for e in A.mons
            if e.degree >= i
        ]

    dims = [
        subspace_intersection_dim(socle, filtration_rows(i)) for i in range(s + 2)
    ]
    return SocleType(dims[i] - dims[i + 1] for i in range(s + 1))
