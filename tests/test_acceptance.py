"""Acceptance suite: every criterion at exact-equality tolerance.

Each test prints one `criterion ...: PASS/FAIL` line; all arithmetic is
exact rational, so there are no numeric tolerances anywhere.
"""

import functools
import random
from fractions import Fraction
from math import comb

import pytest

from apolar import (
    AlgebraPresentation,
    GradingOutcome,
    TruncatedAutomorphism,
    canonically_graded,
    catalecticant_matrix,
    compressed_hilbert_function,
    dual_apply,
    dual_coordinates,
    hilbert_function,
    hilbert_function_of_form,
    is_compressed,
    is_compressed_level,
    killing_matrix,
    monomials,
    monomials_up_to,
    pairing,
    parse_dual,
    parse_jet,
    replay_certificate,
    slice_dimensions,
    socle_type,
    stacked_killing_matrix,
)
from apolar.inverse_system import annihilator_upto
from apolar.linalg import RationalMatrix
from apolar.poly import JetPolynomial

from conftest import random_form, random_polynomial
from oracles import matvec, perturbation_block, substitute, vecmat


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return wrapper

    return decorate


def _in_span(basis, f):
    exps = sorted(
        {e for b in basis for e in b.terms} | set(f.terms), key=lambda e: e.sort_key()
    )
    mat = RationalMatrix.from_columns(
        [[b.terms.get(e, Fraction(0)) for e in exps] for b in basis]
    )
    return mat.solve([f.terms.get(e, Fraction(0)) for e in exps]) is not None


@criterion("criterion 1 (extremal Gorenstein quintic)")
def test_criterion_1_quintic_replication():
    pres = AlgebraPresentation.from_strings(2, ["y1^3*y2^2 + y2^4"])
    assert tuple(hilbert_function(pres)) == (1, 2, 3, 3, 2, 1)

    basis = annihilator_upto(pres, 4)
    assert _in_span(basis, parse_jet("x1^4", 2, 4))
    assert _in_span(basis, parse_jet("x2^3 - 2*x1^3*x2", 2, 4))

    assert is_compressed(pres) is True

    M = killing_matrix(parse_dual("y1^3*y2^2", 2), 1)
    assert dual_coordinates(parse_dual("y1^3*y2^2", 2))[2] == 12
    assert M.rank() == 4
    target = dual_coordinates(parse_dual("y2^4", 2))
    assert M.solve(target) is None

    report = canonically_graded(pres)
    assert report.outcome == GradingOutcome.OBSTRUCTED_RESTRICTED
    assert report.obstruction.gap == 1


@criterion("criterion 2 (compressed level pair)")
def test_criterion_2_level_pair_replication():
    pres = AlgebraPresentation.from_strings(
        3, ["y1^2*y2*y3 + y3^3", "y1*y2^2*y3 + y2*y3^3"]
    )
    assert tuple(hilbert_function(pres)) == (1, 3, 6, 6, 2)
    assert tuple(socle_type(pres)) == (0, 0, 0, 0, 2)
    assert is_compressed(pres) is True

    tops = [g.top_component() for g in pres.generators]
    M = stacked_killing_matrix(tops, 1)
    assert (M.rows, M.cols) == (20, 18)
    target = list(dual_coordinates(parse_dual("y3^3", 3))) + [Fraction(0)] * 10
    assert M.solve(target) is None

    report = canonically_graded(pres)
    assert report.outcome == GradingOutcome.OBSTRUCTED_RESTRICTED


@criterion("criterion 3 (almost-stretched triple)")
def test_criterion_3_almost_stretched():
    a = AlgebraPresentation.from_strings(2, ["y1^3*y2"])
    assert canonically_graded(a).outcome == GradingOutcome.GRADED

    b = AlgebraPresentation.from_strings(2, ["y1^3*y2 + y2^3"])
    assert tuple(hilbert_function(b)) == (1, 2, 2, 2, 1)
    assert is_compressed(b) is False
    assert canonically_graded(b).outcome == GradingOutcome.OBSTRUCTED_RESTRICTED

    c = AlgebraPresentation.from_strings(2, ["y1^3*y2 - y1*y2^3"])
    assert canonically_graded(c).outcome == GradingOutcome.GRADED


def _graded_with_replay(num_vars, top, tail):
    pres = AlgebraPresentation(num_vars, (top + tail,))
    report = canonically_graded(pres)
    assert report.outcome == GradingOutcome.GRADED, (num_vars, str(top), str(tail))
    final = replay_certificate(pres, report)
    assert final == report.final_generators
    assert all(g.is_homogeneous() for g in final)
    assert final[0] == top  # leading form untouched


@criterion("criterion 4a (compressed Gorenstein quartics + cubic tails)")
def test_criterion_4_socle_degree_4():
    rng = random.Random(40400)
    for k in range(200):
        n = 2 if k % 2 == 0 else 3
        while True:
            G4 = random_form(rng, n, 4)
            if is_compressed_level([G4]):
                break
        _graded_with_replay(n, G4, random_polynomial(rng, n, [3]))


@criterion("criterion 4b (compressed Gorenstein cubics + quadric tails)")
def test_criterion_4_socle_degree_3():
    rng = random.Random(40300)
    for k in range(200):
        n = 2 if k % 2 == 0 else 3
        while True:
            G3 = random_form(rng, n, 3)
            if is_compressed_level([G3]):
                break
        _graded_with_replay(n, G3, random_polynomial(rng, n, [2]))


def _sample_compressed(rng, num_vars, shapes, socle_profile, tries=400):
    """Rejection-sample a compressed presentation with the given socle type."""
    for _ in range(tries):
        gens = []
        for degrees in shapes:
            g = random_polynomial(rng, num_vars, degrees)
            gens.append(g)
        if any(g.is_zero() or g.degree != shape[0] for g, shape in zip(gens, shapes)):
            continue
        try:
            pres = AlgebraPresentation(num_vars, tuple(gens))
            E = socle_type(pres)
            if tuple(E) != socle_profile:
                continue
            if not is_compressed(pres):
                continue
        except Exception:
            continue
        return pres
    raise AssertionError(f"no compressed sample found for {socle_profile}")


@criterion("criterion 5 (compressed cases of the gradedness theorem)")
def test_criterion_5_theorem_cases():
    rng = random.Random(50500)

    # case 1: socle degree <= 3, any socle type; (n, e3, e2) limited to
    # profiles a compressed algebra can realize (the cubics' derivative span
    # eats e2 quadric slots whenever e3 * n >= dim R_2)
    feasible = [(2, 1, 0), (2, 1, 1), (2, 2, 0), (3, 1, 0), (3, 1, 1), (3, 1, 2), (3, 2, 0)]
    for _ in range(20):
        n, e3, e2 = rng.choice(feasible)
        shapes = [(3, 2, 1)] * e3 + [(2, 1)] * e2
        profile = (0, 0, e2, e3)
        pres = _sample_compressed(rng, n, shapes, profile)
        report = canonically_graded(pres)
        assert report.outcome == GradingOutcome.GRADED
        assert [g.top_component() for g in report.final_generators] == [
            g.top_component() for g in pres.generators
        ]

    # case 2: socle degree 4 with a one-dimensional top socle
    for _ in range(15):
        n = rng.choice([2, 3])
        e3 = rng.choice([0, 1, 2])
        shapes = [(4, 3, 2)] + [(3, 2)] * e3
        profile = (0, 0, 0, e3, 1)
        pres = _sample_compressed(rng, n, shapes, profile)
        assert canonically_graded(pres).outcome == GradingOutcome.GRADED

    # case 3: socle degree 4 in two variables, level of type 2..5
    for _ in range(15):
        t = rng.choice([2, 3, 4, 5])
        shapes = [(4, 3, 2)] * t
        profile = (0, 0, 0, 0, t)
        pres = _sample_compressed(rng, 2, shapes, profile)
        assert canonically_graded(pres).outcome == GradingOutcome.GRADED


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published two-sided rank equivalence is false already at degree 4:"
        " 2*y1^4 - 2*y1^3*y2 + 2*y1*y2^3 - 2*y2^4 has a rank-2 (non-maximal)"
        " order-2 catalecticant but a rank-4 (maximal) killing matrix, both"
        " hand-verified; only the direction 'catalecticant maximal implies"
        " killing matrix maximal' holds (see the companion criterion-6 test)"
    ),
)
@criterion("criterion 6 (two-sided rank equivalence as stated)")
def test_criterion_6_rank_equivalence_as_stated():
    rng = random.Random(60600)
    for _ in range(500):
        n = rng.choice([2, 3])
        s = rng.choice([2, 3, 4])
        G = random_form(rng, n, s)
        for gap in range(1, s):
            delta = catalecticant_matrix(G, gap + 1)
            M = killing_matrix(G, gap)
            assert (delta.rank() == min(delta.rows, delta.cols)) == (
                M.rank() == min(M.rows, M.cols)
            ), str(G)


@criterion("criterion 6 (provable rank direction + pinned boundary cases)")
def test_criterion_6_rank_direction_and_pins():
    # the direction the gradedness theorem uses holds on every sample:
    # a maximal catalecticant forces a maximal (full-row-rank) killing matrix
    rng = random.Random(60600)
    for _ in range(500):
        n = rng.choice([2, 3])
        s = rng.choice([2, 3, 4])
        G = random_form(rng, n, s)
        for gap in range(1, s):
            delta = catalecticant_matrix(G, gap + 1)
            if delta.rank() == min(delta.rows, delta.cols):
                M = killing_matrix(G, gap)
                assert M.rank() == min(M.rows, M.cols), str(G)

    # pinned degree-4 converse failure (discovered by this suite)
    G = parse_dual("2*y1^4 - 2*y1^3*y2 + 2*y1*y2^3 - 2*y2^4", 2)
    assert catalecticant_matrix(G, 2).rank() == 2
    M = killing_matrix(G, 1)
    assert M.rank() == 4 == min(M.rows, M.cols)

    # pinned degree-5 counterexample: catalecticant maximal, killing matrix not
    G = parse_dual("y1^3*y2^2", 2)
    delta = catalecticant_matrix(G, 2)
    assert delta.rank() == min(delta.rows, delta.cols) == 3
    M = killing_matrix(G, 1)
    assert M.rank() == 4 < min(M.rows, M.cols) == 5


@criterion("criterion 7 (catalecticant vs derivation-span Hilbert functions)")
def test_criterion_7_oracle_equivalence():
    rng = random.Random(70700)
    for _ in range(500):
        n = rng.choice([2, 3])
        s = rng.randint(1, 6)
        G = random_form(rng, n, s)
        assert tuple(hilbert_function_of_form(G)) == slice_dimensions([G])
        for i in range(s + 1):
            assert catalecticant_matrix(G, i) == catalecticant_matrix(G, s - i).transpose()


@criterion("criterion 8 (automorphism algebra identities)")
def test_criterion_8_automorphism_identities():
    rng = random.Random(80800)
    for _ in range(100):
        n = rng.choice([2, 3])
        s = rng.randint(2, 4)
        gap = rng.randint(1, s - 1)
        width = n * len(monomials(n, gap + 1))
        coeffs = [rng.randint(-3, 3) for _ in range(width)]
        phi = TruncatedAutomorphism.with_perturbation(n, s, gap, coeffs)

        # closed-form block equals the matrix sub-block
        basis = list(monomials_up_to(n, s))
        M = phi.matrix()
        row_ix = [basis.index(e) for e in monomials(n, s)]
        col_ix = [basis.index(e) for e in monomials(n, s - gap)]
        sub = RationalMatrix([[M[r, c] for c in col_ix] for r in row_ix])
        assert perturbation_block(n, s, gap, coeffs) == sub

        # pairing identity for every monomial
        g = random_polynomial(rng, n, range(s + 1))
        F = dual_apply(phi, g)
        for w in basis:
            jet = JetPolynomial.monomial(n, s, w)
            assert pairing(jet, F) == pairing(substitute(phi, jet), g)

        # first-order identity between the block action and the killing matrix
        G = random_form(rng, n, s)
        left = vecmat(dual_coordinates(G), perturbation_block(n, s, gap, coeffs))
        right = matvec(killing_matrix(G, gap), coeffs)
        assert left == right


@criterion("criterion 9 (compressed Hilbert function formulas)")
def test_criterion_9_compressed_tables():
    assert tuple(compressed_hilbert_function(3, 4, (0, 0, 0, 0, 2))) == (1, 3, 6, 6, 2)
    for i in range(2, 6):
        assert tuple(compressed_hilbert_function(2, 4, (0, 0, 0, 0, i))) == (1, 2, 3, 4, i)
    for n in range(2, 6):
        assert tuple(compressed_hilbert_function(n, 4, (0, 0, 0, 0, 1))) == (
            1,
            n,
            comb(n + 1, 2),
            n,
            1,
        )
