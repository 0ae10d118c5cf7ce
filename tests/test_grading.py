from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar import (
    AlgebraPresentation,
    DependentLeadingForms,
    DualPolynomial,
    GradingOutcome,
    Obstruction,
    SocleDegreeTooLarge,
    TruncatedAutomorphism,
    canonically_graded,
    catalecticant_matrix,
    dual_apply,
    dual_coordinates,
    from_dual_coordinates,
    hilbert_function,
    is_compressed_level,
    killing_matrix,
    killing_step,
    monomials,
    monomials_up_to,
    parse_dual,
    rank_criterion,
    reduce_generators,
    replay_certificate,
    stacked_killing_matrix,
)
from apolar.linalg import RationalMatrix
from apolar.poly import contract_monomial

from conftest import random_form, random_polynomial
from oracles import (
    canonically_graded_reference,
    group_index,
    killing_matrix_reference,
    matvec,
    perturbation_block,
    reduce_generators_reference,
    vecmat,
    verify_block_structure,
)


def _quintic_pattern(z):
    """The 5x6 killing matrix of a binary quintic, by the entry formula."""
    z1, z2, z3, z4, z5, z6 = z
    return [
        [4 * z1, 4 * z2, 4 * z3, 0, 0, 0],
        [3 * z2, 3 * z3, 3 * z4, z1, z2, z3],
        [2 * z3, 2 * z4, 2 * z5, 2 * z2, 2 * z3, 2 * z4],
        [z4, z5, z6, 3 * z3, 3 * z4, 3 * z5],
        [0, 0, 0, 4 * z4, 4 * z5, 4 * z6],
    ]


def test_killing_matrix_matches_quintic_pattern():
    import random

    rng = random.Random(11)
    vectors = [[int(i == k) for i in range(6)] for k in range(6)]
    vectors.append([rng.randint(-4, 4) for _ in range(6)])
    for z in vectors:
        if not any(z):
            continue
        G = from_dual_coordinates(2, 5, z)
        assert killing_matrix(G, 1) == RationalMatrix(_quintic_pattern(z))


def test_killing_matrix_quintic_specialization():
    G = parse_dual("y1^3*y2^2", 2)
    assert dual_coordinates(G) == (0, 0, 12, 0, 0, 0)
    M = killing_matrix(G, 1)
    assert M == RationalMatrix(_quintic_pattern([0, 0, 12, 0, 0, 0]))
    assert M.rank() == 4
    target = dual_coordinates(parse_dual("y2^4", 2))
    assert M.solve(target) is None


def test_killing_matrix_cubic_times_variable():
    # hand evaluation: rows (3,0),(2,1),(1,2),(0,3); alpha_(3,1) = 6 is the
    # only nonzero coordinate, and the last row vanishes identically
    G = parse_dual("y1^3*y2", 2)
    M = killing_matrix(G, 1)
    assert (M.rows, M.cols) == (4, 6)
    assert [list(M.row(i)) for i in range(M.rows)] == [
        [0, 18, 0, 0, 0, 0],
        [12, 0, 0, 0, 6, 0],
        [0, 0, 0, 12, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_killing_matrix_matches_entry_formula(data):
    # built from catalecticant rows, the matrix equals the entry formula,
    # entries and their type alike, at every gap
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(2, 5))
    G = DualPolynomial.zero(n)
    while G.is_zero():
        G = DualPolynomial(n, {
            e: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for e in monomials(n, d)
        })
    for gap in range(1, d):
        M = killing_matrix(G, gap)
        assert M == killing_matrix_reference(G, gap)
        assert all(type(x) is Fraction for i in range(M.rows) for x in M.row(i))


@pytest.mark.parametrize("text, degree", [("5", 0), ("y1 - 3*y2", 1)])
def test_killing_matrix_refuses_low_degree(text, degree):
    with pytest.raises(ValueError, match=f"^a form of degree {degree} has no killing matrix"):
        killing_matrix(parse_dual(text, 2), 1)


def _ternary_block_pattern(z):
    """First block of the 20x18 stacked killing matrix of two quartics."""
    def row(entries):
        out = [0] * 18
        for pos, coeff, idx in entries:
            out[pos] = coeff * z[idx - 1]
        return out

    rows = []
    rows.append(row([(c, 3, c + 1) for c in range(6)]))
    rows.append(row(
        [(0, 2, 2), (1, 2, 4), (2, 2, 5), (3, 2, 7), (4, 2, 8), (5, 2, 9)]
        + [(6, 1, 1), (7, 1, 2), (8, 1, 3), (9, 1, 4), (10, 1, 5), (11, 1, 6)]
    ))
    rows.append(row(
        [(0, 2, 3), (1, 2, 5), (2, 2, 6), (3, 2, 8), (4, 2, 9), (5, 2, 10)]
        + [(12, 1, 1), (13, 1, 2), (14, 1, 3), (15, 1, 4), (16, 1, 5), (17, 1, 6)]
    ))
    rows.append(row(
        [(0, 1, 4), (1, 1, 7), (2, 1, 8), (3, 1, 11), (4, 1, 12), (5, 1, 13)]
        + [(6, 2, 2), (7, 2, 4), (8, 2, 5), (9, 2, 7), (10, 2, 8), (11, 2, 9)]
    ))
    rows.append(row(
        [(0, 1, 5), (1, 1, 8), (2, 1, 9), (3, 1, 12), (4, 1, 13), (5, 1, 14)]
        + [(6, 1, 3), (7, 1, 5), (8, 1, 6), (9, 1, 8), (10, 1, 9), (11, 1, 10)]
        + [(12, 1, 2), (13, 1, 4), (14, 1, 5), (15, 1, 7), (16, 1, 8), (17, 1, 9)]
    ))
    rows.append(row(
        [(0, 1, 6), (1, 1, 9), (2, 1, 10), (3, 1, 13), (4, 1, 14), (5, 1, 15)]
        + [(12, 2, 3), (13, 2, 5), (14, 2, 6), (15, 2, 8), (16, 2, 9), (17, 2, 10)]
    ))
    rows.append(row(
        [(6, 3, 4), (7, 3, 7), (8, 3, 8), (9, 3, 11), (10, 3, 12), (11, 3, 13)]
    ))
    rows.append(row(
        [(6, 2, 5), (7, 2, 8), (8, 2, 9), (9, 2, 12), (10, 2, 13), (11, 2, 14)]
        + [(12, 1, 4), (13, 1, 7), (14, 1, 8), (15, 1, 11), (16, 1, 12), (17, 1, 13)]
    ))
    rows.append(row(
        [(6, 1, 6), (7, 1, 9), (8, 1, 10), (9, 1, 13), (10, 1, 14), (11, 1, 15)]
        + [(12, 2, 5), (13, 2, 8), (14, 2, 9), (15, 2, 12), (16, 2, 13), (17, 2, 14)]
    ))
    rows.append(row(
        [(12, 3, 6), (13, 3, 9), (14, 3, 10), (15, 3, 13), (16, 3, 14), (17, 3, 15)]
    ))
    return rows


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_stacked_killing_matrix_matches_ternary_pattern(data):
    z1 = [data.draw(st.integers(-3, 3)) for _ in range(15)]
    z2 = [data.draw(st.integers(-3, 3)) for _ in range(15)]
    if not any(z1) or not any(z2):
        return
    G1 = from_dual_coordinates(3, 4, z1)
    G2 = from_dual_coordinates(3, 4, z2)
    M = stacked_killing_matrix([G1, G2], 1)
    assert (M.rows, M.cols) == (20, 18)
    want = RationalMatrix(_ternary_block_pattern(z1) + _ternary_block_pattern(z2))
    assert M == want


def test_stacked_killing_matrix_single_is_plain():
    G = parse_dual("y1^2*y2^2", 2)
    assert stacked_killing_matrix([G], 1) == killing_matrix(G, 1)


def test_stacked_identical_forms_rank():
    G = parse_dual("y1^2*y2^2 + y2^4", 2).top_component()
    single = killing_matrix(G, 1).rank()
    assert stacked_killing_matrix([G, G], 1).rank() == single


# ---- block structure ---------------------------------------------------------


def test_block_structure_random_forms(rng):
    for _ in range(6):
        G = random_form(rng, 3, 4)
        assert verify_block_structure(G, 1) == []
        assert verify_block_structure(G, 2) == []


def test_block_structure_quintic():
    assert verify_block_structure(parse_dual("y1^3*y2^2", 2), 1) == []


def test_block_group_sizes():
    # rows of the killing matrix split into groups by first positive variable;
    # group i has binom(d-gap-1 + n-i, d-gap-1) rows
    from math import comb

    for n, d, gap in [(2, 5, 1), (3, 4, 1), (3, 4, 2)]:
        rows = monomials(n, d - gap)
        for i in range(n):
            size = sum(1 for W in rows if group_index(W) == i)
            assert size == comb(d - gap - 1 + n - i - 1, d - gap - 1)


def test_block_structure_first_block_is_scaled_catalecticant():
    G = parse_dual("y1^2*y2^2 + y1^4", 2)
    M = killing_matrix(G, 1)
    delta = catalecticant_matrix(G, 2)
    rows = list(monomials(2, 3))
    drows = {e: k for k, e in enumerate(monomials(2, 2))}
    for r, W in enumerate(rows):
        if W[0] == 0:
            continue
        L = W - type(W)((1, 0))
        for k in range(delta.cols):
            assert M[r, k] == W[0] * delta[drows[L], k]


# ---- rank criterion ------------------------------------------------------------


def test_rank_criterion_true_case():
    assert rank_criterion(parse_dual("y1^4 + y1*y2^3", 2), 1) is True


def test_rank_criterion_false_case():
    assert rank_criterion(parse_dual("y1^4", 2), 1) is False


def test_rank_criterion_refuses_degree_five():
    with pytest.raises(SocleDegreeTooLarge):
        rank_criterion(parse_dual("y1^5", 2), 1)


def test_degree_five_equivalence_breaks():
    # pinned boundary case: the catalecticant side is maximal, the killing
    # matrix side is not
    G = parse_dual("y1^3*y2^2", 2)
    delta = catalecticant_matrix(G, 2)
    assert delta.rank() == min(delta.rows, delta.cols) == 3
    M = killing_matrix(G, 1)
    assert M.rank() == 4 < min(M.rows, M.cols)


def test_degree_four_converse_breaks():
    # regression pin: a binary quartic splitting as (y1-y2)(y1+y2)(y1^2-y1*y2+y2^2)
    # has a degenerate middle catalecticant yet a full killing matrix, so the
    # rank criterion is one-directional even at degree 4
    G = parse_dual("2*y1^4 - 2*y1^3*y2 + 2*y1*y2^3 - 2*y2^4", 2)
    assert catalecticant_matrix(G, 2).rank() == 2
    M = killing_matrix(G, 1)
    assert M.rank() == 4 == min(M.rows, M.cols)
    assert rank_criterion(G, 1) is False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_maximality_forcing_direction(data):
    # maximal catalecticant rank forces a maximal killing matrix for s <= 4
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(2, 4))
    gap = data.draw(st.integers(1, s - 1))
    G = random_form(rng, n, s)
    delta = catalecticant_matrix(G, gap + 1)
    if delta.rank() == min(delta.rows, delta.cols):
        M = killing_matrix(G, gap)
        assert M.rank() == min(M.rows, M.cols)
    rank_criterion(G, gap)  # also exercises the internal cross-check


# ---- the first-order identity ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_block_action_equals_killing_matrix_action(data):
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(2, 4))
    gap = data.draw(st.integers(1, s - 1))
    G = random_form(rng, n, s)
    width = n * len(monomials(n, gap + 1))
    a = [rng.randint(-3, 3) for _ in range(width)]
    B = perturbation_block(n, s, gap, a)
    left = vecmat(dual_coordinates(G), B)
    right = matvec(killing_matrix(G, gap), a)
    assert left == right


# ---- killing steps ---------------------------------------------------------------


def test_killing_step_zero_components_gives_zero_vector():
    gens = [parse_dual("y1^3*y2", 2)]
    out = killing_step(gens, 1)
    assert out == tuple([0] * 6)


def test_killing_step_obstruction_almost_stretched():
    out = killing_step([parse_dual("y1^3*y2 + y2^3", 2)], 1)
    assert isinstance(out, Obstruction)
    assert out.gap == 1
    assert out.matrix.row(3) == (0, 0, 0, 0, 0, 0)
    assert out.target == (0, 0, 0, 6)
    assert out.rank == out.matrix.rank()


def test_killing_step_obstruction_level_pair():
    gens = [
        parse_dual("y1^2*y2*y3 + y3^3", 3),
        parse_dual("y1*y2^2*y3 + y2*y3^3", 3),
    ]
    out = killing_step(gens, 1)
    assert isinstance(out, Obstruction)
    assert (out.matrix.rows, out.matrix.cols) == (20, 18)
    want = list(dual_coordinates(parse_dual("y3^3", 3))) + [0] * 10
    assert list(out.target) == want


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_killing_step_soundness(data):
    # on success, the gap-p components vanish and everything above survives
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.integers(2, 4))
    gap = data.draw(st.integers(1, s - 1))
    gens = [random_polynomial(rng, n, range(s + 1)) for _ in range(data.draw(st.integers(1, 2)))]
    gens = [g for g in gens if g.degree == s]
    if not gens:
        return
    out = killing_step(gens, gap)
    if isinstance(out, Obstruction):
        return
    phi = TruncatedAutomorphism.with_perturbation(n, s, gap, out)
    for g in gens:
        F = dual_apply(phi, g)
        assert F.homogeneous_component(s - gap).is_zero()
        for j in range(s - gap + 1, s + 1):
            assert F.homogeneous_component(j) == g.homogeneous_component(j)


# ---- reduction --------------------------------------------------------------------


def _closure_rows(gens):
    n = gens[0].num_vars
    top = max(g.degree for g in gens)
    exps = monomials_up_to(n, top)
    rows = []
    for g in gens:
        for gamma in monomials_up_to(n, max(g.degree, 0)):
            cg = contract_monomial(gamma, g)
            if not cg.is_zero():
                rows.append([cg.coefficient(e) for e in exps])
    return rows


def same_submodule(gens_a, gens_b):
    ra, rb = _closure_rows(gens_a), _closure_rows(gens_b)
    width = max(len(ra[0]), len(rb[0]))
    pad = lambda rows: [r + [Fraction(0)] * (width - len(r)) for r in rows]
    ra, rb = pad(ra), pad(rb)
    rank_a = RationalMatrix(ra).rank()
    rank_b = RationalMatrix(rb).rank()
    return rank_a == rank_b == RationalMatrix(ra + rb).rank()


def test_reduce_homogeneous_unchanged():
    gens = [parse_dual("y1^2*y2*y3", 3), parse_dual("y2^4", 3)]
    assert reduce_generators(gens) == gens


def test_reduce_drops_quadric_below_compressed_quartic():
    G4 = parse_dual("y1^4 + y1*y2^3", 2)
    assert is_compressed_level([G4])
    reduced = reduce_generators([G4 + parse_dual("y1*y2 - 3*y2^2", 2)])
    assert reduced == [G4]


def test_reduce_keeps_quintic_tail():
    G = parse_dual("y1^3*y2^2 + y2^4", 2)
    assert reduce_generators([G]) == [G]


def test_reduce_keeps_level_pair_tail():
    # the cubic tail is inside the full degree-3 slice of the leading forms,
    # but same-degree cross-generator absorption is deliberately off
    gens = [
        parse_dual("y1^2*y2*y3 + y3^3", 3),
        parse_dual("y1*y2^2*y3 + y2*y3^3", 3),
    ]
    assert reduce_generators(gens) == gens


def test_reduce_is_idempotent(rng):
    for _ in range(6):
        n = rng.choice([2, 3])
        gens = [random_polynomial(rng, n, range(5)) for _ in range(rng.choice([1, 2]))]
        gens = [g for g in gens if g.degree >= 1]
        if not gens:
            continue
        once = reduce_generators(gens)
        assert reduce_generators(once) == once


def test_reduce_preserves_the_submodule(rng):
    for _ in range(8):
        n = rng.choice([2, 3])
        gens = [random_polynomial(rng, n, range(5)) for _ in range(rng.choice([1, 2]))]
        gens = [g for g in gens if g.degree >= 1]
        if not gens:
            continue
        reduced = reduce_generators(gens)
        assert same_submodule(gens, reduced)


def test_reduce_absorbs_cubic_tail_of_quartic_into_cubic_generator():
    # a mixed-degree presentation: the quartic's cubic tail can move into the
    # cubic generator, which reduction performs via a degree-0 contraction
    C = parse_dual("y1^3 + y2^3", 2)
    Q = parse_dual("y1^4 + 2*y1^3 + 2*y2^3", 2)
    reduced = reduce_generators([Q, C])
    assert reduced[0].homogeneous_component(3).is_zero()
    assert same_submodule([Q, C], reduced)


# Two-generator inputs on which a reduction combination uses more than one
# contraction of the generator it reduces; subtracting those from the
# generator as it was before the combination, instead of one after the
# other, changes the result.
SELF_CONTRACTING_PAIRS = [
    (3, ["-y2^3 + 2*y2^2*y3 + y2*y3^2 + y1*y2 + 2*y3^2 - y1",
         "-y2^3*y3 + y2*y3^3 - y1*y2^2 - 2*y1*y2*y3 - y1*y3^2 + y2^3 + 2*y1*y3"]),
    (3, ["-2*y1^3 - y1^2*y2 - y2^2 + 2*y2*y3 - 2*y3^2 - 2*y2",
         "y1^2*y2^2 - 2*y1^3 + y1^2*y2 + y1*y2^2 + 2*y1*y2*y3 + 2*y1*y3^2"
         " + 2*y2^2*y3 - y1^2 + y1*y3 - y2^2 - 2*y1"]),
]


def assert_reduces_like_reference(gens):
    got = reduce_generators(gens)
    want = reduce_generators_reference(gens)
    assert got == want
    assert [str(g) for g in got] == [str(g) for g in want]


@pytest.mark.parametrize("n, texts", SELF_CONTRACTING_PAIRS)
def test_reduce_matches_reference_on_repeated_self_contractions(n, texts):
    gens = [parse_dual(t, n) for t in texts]
    self_uses = []
    reduce_generators_reference(gens, self_uses)
    assert max(self_uses) >= 2
    assert_reduces_like_reference(gens)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduce_matches_reference(data):
    # sparse leading forms, so that contractions of a top are dependent and
    # the order of the subtractions shows in the lower components
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 3))
    s = data.draw(st.integers(3, 5))
    fractional = data.draw(st.booleans())
    # p/q tops make each combination depend on the top's denominator
    top_denominators = data.draw(st.sampled_from([(1,), (1, 2, 3, 5)]))
    gens = []
    for _ in range(data.draw(st.integers(2, 3))):
        d = s - rng.randint(0, 1)
        terms = {
            e: Fraction(rng.choice([-2, -1, 1, 2]), rng.choice(top_denominators))
            for e in rng.sample(monomials(n, d), 2)
        }
        for e in monomials_up_to(n, d - 1):
            if rng.random() < 0.4:
                c = Fraction(rng.randint(-2, 2))
                terms[e] = c / rng.randint(1, 3) if fractional else c
        gens.append(DualPolynomial(n, terms))
    assert_reduces_like_reference(gens)


# ---- the staircase shares its echelons --------------------------------------------


def _dense_presentation(rng, n, degrees):
    """Dense integer generators of the given degrees with tails in every degree."""
    gens = tuple(
        DualPolynomial(n, {e: rng.randint(-2, 2) for e in monomials_up_to(n, d)})
        for d in degrees
    )
    return AlgebraPresentation(n, gens)


STAIRCASE_SHAPES = [(2, (5,)), (3, (5,)), (3, (5, 4)), (2, (4, 4)), (3, (4, 3))]


def test_staircase_keeps_every_top_component(rng, monkeypatch):
    # after every step each generator's top component is the input's, and
    # every reduction of the staircase matches the reference reduction
    import apolar.grading as grading

    reduced = []
    original = grading.reduce_generators

    def record(gens, **kwargs):
        out = original(gens, **kwargs)
        assert out == reduce_generators_reference(gens)
        reduced.append(out)
        return out

    monkeypatch.setattr(grading, "reduce_generators", record)
    steps = 0
    for n, degrees in STAIRCASE_SHAPES:
        pres = _dense_presentation(rng, n, degrees)
        tops = [g.top_component() for g in pres.generators]
        reduced.clear()
        report = canonically_graded(pres)
        assert len(reduced) == len(report.steps) + 1
        for gens in reduced:
            assert [g.top_component() for g in gens] == tops
        steps += len(report.steps)
    assert steps >= len(STAIRCASE_SHAPES) + 2


def test_staircase_builds_each_echelon_once(rng, monkeypatch):
    # one canonically_graded call builds the echelon of each (degree,
    # allowed generators) at most once, however many reductions it runs
    import apolar.grading as grading

    built = []
    original = grading.combination_echelon

    def record(rows, width):
        built.append(tuple(map(tuple, rows)))
        return original(rows, width)

    monkeypatch.setattr(grading, "combination_echelon", record)
    for n, degrees in STAIRCASE_SHAPES:
        pres = _dense_presentation(rng, n, degrees)
        built.clear()
        report = canonically_graded(pres)
        assert built
        assert len(built) == len(set(built))
        built.clear()
        assert replay_certificate(pres, report) == report.final_generators
        assert len(built) == len(set(built))


# ---- the full decision ----------------------------------------------------------


def test_graded_homogeneous_input():
    pres = AlgebraPresentation.from_strings(2, ["y1^3*y2"])
    report = canonically_graded(pres)
    assert report.outcome == GradingOutcome.GRADED
    assert report.steps == ()
    assert report.final_generators == pres.generators


def test_graded_quintic_obstructed():
    pres = AlgebraPresentation.from_strings(2, ["y1^3*y2^2 + y2^4"])
    report = canonically_graded(pres)
    assert report.outcome == GradingOutcome.OBSTRUCTED_RESTRICTED
    assert report.obstruction.gap == 1
    assert report.obstruction.rank == 4
    assert any("OBSTRUCTED_RESTRICTED" in note for note in report.notes)


def test_graded_level_pair_obstructed():
    pres = AlgebraPresentation.from_strings(
        3, ["y1^2*y2*y3 + y3^3", "y1*y2^2*y3 + y2*y3^3"]
    )
    report = canonically_graded(pres)
    assert report.outcome == GradingOutcome.OBSTRUCTED_RESTRICTED
    assert report.obstruction.gap == 1


def test_graded_almost_stretched_family():
    a = canonically_graded(AlgebraPresentation.from_strings(2, ["y1^3*y2"]))
    assert a.outcome == GradingOutcome.GRADED
    b = canonically_graded(AlgebraPresentation.from_strings(2, ["y1^3*y2 + y2^3"]))
    assert b.outcome == GradingOutcome.OBSTRUCTED_RESTRICTED
    c = canonically_graded(AlgebraPresentation.from_strings(2, ["y1^3*y2 - y1*y2^3"]))
    assert c.outcome == GradingOutcome.GRADED


def test_graded_compressed_quartic_with_tail(rng):
    for n in (2, 3):
        for _ in range(5):
            while True:
                G4 = random_form(rng, n, 4)
                if is_compressed_level([G4]):
                    break
            G = G4 + random_polynomial(rng, n, [3])
            pres = AlgebraPresentation(n, (G,))
            report = canonically_graded(pres)
            assert report.outcome == GradingOutcome.GRADED
            final = replay_certificate(pres, report)
            assert final == report.final_generators
            assert all(g.is_homogeneous() for g in final)
            assert final[0].top_component() == G4
            assert tuple(hilbert_function(pres)) == tuple(
                hilbert_function(AlgebraPresentation(n, final))
            )


def test_graded_later_step_and_multi_step_certificates():
    # [3] is absent, so the staircase first acts at gap 2; deeper tails add
    # a gap-3 step; certificates replay to the pure power
    one = AlgebraPresentation.from_strings(2, ["y1^4 + y1*y2"])
    rep = canonically_graded(one)
    assert rep.outcome == GradingOutcome.GRADED
    assert [st.gap for st in rep.steps] == [2]
    assert rep.final_generators == (parse_dual("y1^4", 2),)
    assert replay_certificate(one, rep) == rep.final_generators

    two = AlgebraPresentation.from_strings(2, ["y1^4 + y1*y2 + y2"])
    rep = canonically_graded(two)
    assert rep.outcome == GradingOutcome.GRADED
    assert [st.gap for st in rep.steps] == [2, 3]
    assert rep.final_generators == (parse_dual("y1^4", 2),)
    assert replay_certificate(two, rep) == rep.final_generators


def test_graded_obstruction_at_later_step():
    # nothing to do at gap 1; the gap-2 target y2^2 meets a zero row
    pres = AlgebraPresentation.from_strings(2, ["y1^4 + y2^2"])
    rep = canonically_graded(pres)
    assert rep.outcome == GradingOutcome.OBSTRUCTED_RESTRICTED
    assert rep.obstruction.gap == 2
    assert rep.obstruction.target == (0, 0, 2)


def test_not_applicable_for_unabsorbable_mixed_tail():
    # the cubic generator's y1*y2 tail is neither reducible against the
    # quartic nor reachable by any staircase step
    pres = AlgebraPresentation.from_strings(2, ["y1^4", "y2^3 + y1*y2"])
    rep = canonically_graded(pres)
    assert rep.outcome == GradingOutcome.NOT_APPLICABLE
    assert rep.steps == ()
    assert any("cannot decide" in note for note in rep.notes)
    assert any("unequal degrees" in note for note in rep.notes)


def test_graded_level_pair_with_stacked_killing_step():
    # a compressed level pair in four variables whose quadratic tails survive
    # reduction, so the gap-1 system genuinely stacks two blocks
    import random

    rng = random.Random(99)
    tops = [random_form(rng, 4, 3) for _ in range(2)]
    assert is_compressed_level(tops)
    gens = tuple(t + random_polynomial(rng, 4, [2]) for t in tops)
    assert any(not g.is_homogeneous() for g in reduce_generators(gens))
    pres = AlgebraPresentation(4, gens)
    report = canonically_graded(pres)
    assert report.outcome == GradingOutcome.GRADED
    assert [st.gap for st in report.steps] == [1]
    assert all(g.is_homogeneous() for g in report.final_generators)
    assert [g.top_component() for g in report.final_generators] == tops
    assert replay_certificate(pres, report) == report.final_generators


def test_graded_report_document_shape():
    pres = AlgebraPresentation.from_strings(2, ["y1^3*y2 + y2^3"])
    doc = canonically_graded(pres).as_document()
    assert doc["outcome"] == "OBSTRUCTED_RESTRICTED"
    assert doc["obstruction"]["gap"] == 1
    assert doc["obstruction"]["target"] == ["0", "0", "0", "6"]
    assert isinstance(doc["notes"], list)


# ---- the staircase against its Fraction references -------------------------------


def assert_staircase_matches_reference(pres):
    report = canonically_graded(pres)
    assert report.as_document() == canonically_graded_reference(pres).as_document()
    return report


def _p_over_q(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_staircase_matches_fraction_reference(data):
    # p/q leading forms and tails, 1-3 generators of mixed degree: every
    # document equals the one of the staircase built from the references
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 3))
    s = data.draw(st.integers(3, 5))
    degrees = [s] + [rng.randint(max(2, s - 2), s) for _ in range(data.draw(st.integers(0, 2)))]
    gens = []
    for d in degrees:
        tops = monomials(n, d)
        terms = {e: _p_over_q(rng) for e in rng.sample(tops, rng.randint(2, len(tops)))}
        for e in monomials_up_to(n, d - 1):
            if e.degree >= 1 and rng.random() < 0.4:
                terms[e] = _p_over_q(rng)
        gens.append(DualPolynomial(n, terms))
    pres = AlgebraPresentation(n, tuple(gens))
    try:
        assert_staircase_matches_reference(pres)
    except DependentLeadingForms:
        pass


# (n, generators, gaps of the steps, outcome): a solution with denominators,
# so that dual_apply has a perturbation over q > 1; two steps; an obstruction
# after a step.
PINNED_STAIRCASES = [
    (2, ["y1^3 + y1^2*y2 - y2^2"], [1], "GRADED"),
    (2, ["-2*y1^5 + 2*y1^3*y2^2 + y1^2*y2^3 - y1^3*y2"], [1, 2], "GRADED"),
    (3, ["-y1^4*y2 - y1^2*y2*y3^2 + y1*y2^2*y3 + y2*y3^2"], [1], "OBSTRUCTED_RESTRICTED"),
]


@pytest.mark.parametrize("n, texts, gaps, outcome", PINNED_STAIRCASES)
def test_pinned_staircase_matches_fraction_reference(n, texts, gaps, outcome):
    report = assert_staircase_matches_reference(AlgebraPresentation.from_strings(n, texts))
    assert report.outcome.value == outcome
    assert [step.gap for step in report.steps] == gaps
    assert any(c.denominator > 1 for c in report.steps[0].coefficients)
