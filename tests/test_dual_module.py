"""The invariants read from the dual echelon, against independent oracles.

`hilbert_function`, `socle_type`, `slice_dimensions`, `derivative_span` and
the annihilators all come from one forward echelon of the dual module
(`dual_echelon`).  The oracles in `oracles.py` compute the same things the
long way: the annihilators as kernels of contraction matrices, the socle
type on the quotient algebra R/I, the slice dimensions by one rank per
degree, the derivative spans by a Gauss-Jordan elimination with reordered
columns.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import apolar.inverse_system
from apolar import (
    AlgebraPresentation,
    DependentLeadingForms,
    DualPolynomial,
    algebra_length,
    annihilator_slice,
    annihilator_upto,
    derivative_span,
    hilbert_function,
    is_compressed,
    macaulay_validate,
    monomials,
    monomials_up_to,
    slice_dimensions,
    socle_type,
    type_mismatch_warning,
)
from apolar.poly import contract_monomial, dual_echelon

from oracles import (
    contraction_kernel,
    filtered_derivative_span,
    filtered_slice_dimensions,
    quotient_socle_type,
)

coefficients = st.one_of(
    st.integers(-3, 3).filter(bool).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)


@st.composite
def generator_lists(draw):
    """1-3 generators of mixed degrees 0..4 with optional tails, maybe one redundant.

    A redundant generator is a contraction x^gamma o g of an earlier one,
    so it lies in the module the others generate.
    """
    n = draw(st.integers(1, 3))
    gens = []
    for d in draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)):
        terms = {}
        for k in range(d, -1, -1):
            if k < d and not draw(st.booleans()):
                continue
            support = draw(st.lists(st.sampled_from(monomials(n, k)), min_size=1, unique=True))
            terms.update({e: draw(coefficients) for e in support})
        gens.append(DualPolynomial(n, terms))
    source = draw(st.sampled_from(gens))
    if source.degree >= 1 and draw(st.booleans()):
        gamma = draw(st.sampled_from(monomials_up_to(n, source.degree)[1:]))
        redundant = contract_monomial(gamma, source)
        if not redundant.is_zero():
            gens.insert(draw(st.integers(0, len(gens))), redundant)
    return n, gens


def assert_matches_oracles(pres: AlgebraPresentation) -> None:
    gens = pres.generators
    hf = hilbert_function(pres)
    assert tuple(hf) == filtered_slice_dimensions(gens) == slice_dimensions(gens)
    assert algebra_length(pres) == sum(hf)
    assert socle_type(pres) == quotient_socle_type(pres)
    for j in range(-1, pres.socle_degree + 2):
        assert derivative_span(gens, j) == filtered_derivative_span(gens, j)


@settings(max_examples=150, deadline=None)
@given(generator_lists())
def test_invariants_match_oracles(case):
    n, gens = case
    pres = AlgebraPresentation(n, tuple(gens))
    try:
        macaulay_validate(pres)
    except DependentLeadingForms:
        assume(False)
    assert_matches_oracles(pres)


@pytest.mark.parametrize(
    "n, texts, hf, E",
    [
        # socle below the top degree
        (2, ["y1^2", "y2^3"], (1, 2, 2, 1), (0, 0, 1, 1)),
        (2, ["y1^4 + y1*y2", "y2^3 - y1^2"], (1, 2, 2, 2, 1), (0, 0, 0, 1, 1)),
        (3, ["y1^3*y2 + y3^2", "y2^2*y3 + y1^2", "y3^2"], (1, 3, 5, 3, 1), (0, 0, 1, 1, 1)),
        # a redundant generator adds no socle
        (2, ["y1^3", "y1^2"], (1, 1, 1, 1), (0, 0, 0, 1)),
        (3, ["y1^4 + y2^2*y3", "y2*y3 + y1"], (1, 3, 3, 1, 1), (0, 0, 0, 0, 1)),
        # a constant generator: alone (s = 0, m o M is empty) and beside a
        # quadric, whose contractions already contain the constants
        (2, ["3"], (1,), (1,)),
        (2, ["y1^2", "5"], (1, 1, 1), (0, 0, 1)),
    ],
)
def test_pinned_presentations(n, texts, hf, E):
    pres = AlgebraPresentation.from_strings(n, texts)
    assert tuple(hilbert_function(pres)) == hf
    assert tuple(socle_type(pres)) == E
    assert_matches_oracles(pres)


def test_constant_generator_has_empty_m_o_M():
    (g,) = AlgebraPresentation.from_strings(2, ["3"]).generators
    # the one pivot is the generator's own: nothing of m o M precedes it
    assert dual_echelon([g]) == [(0, True, [1])]
    assert derivative_span([g], 0) == [DualPolynomial(2, {(0, 0): 1})]


def test_redundant_constant_warns():
    pres = AlgebraPresentation.from_strings(2, ["y1^2", "5"])
    assert type_mismatch_warning(pres, socle_type(pres)) is not None


def test_invariants_are_computed_once_per_presentation(monkeypatch):
    calls = {"dual_echelon": 0, "macaulay_validate": 0}
    for name in calls:
        original = getattr(apolar.inverse_system, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(apolar.inverse_system, name, counted)
    pres = AlgebraPresentation.from_strings(2, ["y1^3*y2^2 + y2^4"])
    hilbert_function(pres)
    socle_type(pres)
    is_compressed(pres)
    algebra_length(pres)
    assert calls == {"dual_echelon": 1, "macaulay_validate": 1}
    # a new presentation of the same generators computes its own
    hilbert_function(AlgebraPresentation.from_strings(2, ["y1^3*y2^2 + y2^4"]))
    assert calls == {"dual_echelon": 2, "macaulay_validate": 2}


def test_dependent_leading_forms_raise_on_every_read():
    pres = AlgebraPresentation.from_strings(2, ["y1^2", "y1^2 + y1"])
    for read in (hilbert_function, socle_type, is_compressed, hilbert_function):
        with pytest.raises(DependentLeadingForms):
            read(pres)


def _parsed(n, *texts):
    return n, list(AlgebraPresentation.from_strings(n, texts).generators)


@settings(max_examples=150, deadline=None)
@given(generator_lists())
@example(_parsed(2, "y1^2", "y1^2 + y1"))  # dependent leading forms
@example(_parsed(2, "y1^2", "5"))  # a constant generator
@example(_parsed(2, "1/2*y1^3*y2 - 2/3*y2^3 + y1", "3/4*y1*y2"))
def test_annihilators_match_contraction_kernel(case):
    # the annihilators do not validate, so dependent leading forms stay in
    n, gens = case
    pres = AlgebraPresentation(n, tuple(gens))
    # JetPolynomial equality compares the terms and the truncation order
    assert annihilator_slice(pres, 0) == []
    for d in range(1, pres.socle_degree + 2):
        assert annihilator_slice(pres, d) == contraction_kernel(pres, monomials(n, d), d)
        assert annihilator_upto(pres, d) == contraction_kernel(pres, monomials_up_to(n, d)[1:], d)
