"""Exact arithmetic, ordering, and quotient structure of the reference model."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepairs.model import (
    Model,
    ModelElement,
    QuotientElement,
    compare,
    is_prime,
    lex_compare,
    nth_primes,
    project,
    rational_above,
    rational_below,
    rational_between,
    section,
    sqrt_enclosure,
)

MODEL = Model(3)


def mel(rat=0, r2=0, r3=0, r5=0):
    return ModelElement({0: Fraction(rat), 2: Fraction(r2), 3: Fraction(r3), 5: Fraction(r5)})


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def elements(draw, radicands=(0, 2, 3)):
    coeffs = {k: draw(rationals) for k in radicands if draw(st.booleans())}
    return ModelElement(coeffs)


def test_primes_and_basis():
    assert nth_primes(5) == [2, 3, 5, 7, 11]
    assert Model(4).radicands == (0, 2, 3, 5)
    assert is_prime(7) and not is_prime(9) and not is_prime(1)
    with pytest.raises(ValueError):
        Model(1)
    assert Model(1000).dim == 1000
    with pytest.raises(ValueError, match="at most 1000"):
        Model(1001)


def test_sqrt_enclosure_brackets_value():
    for p in (2, 3, 5, 7):
        lo, hi = sqrt_enclosure(p, 40)
        assert lo * lo <= p <= hi * hi
        assert hi - lo == Fraction(1, 2**40)


def test_zero_iff_empty_support():
    assert ModelElement().is_zero()
    assert not mel(rat=Fraction(1, 7)).is_zero()
    assert mel(r2=1).sign() == 1
    assert ModelElement({2: Fraction(1), 3: Fraction(-1)}).sign() < 0  # sqrt2 < sqrt3


def test_compare_squaring_oracle_examples():
    # (3/2)^2 = 9/4 > 2, so 3/2 > sqrt(2)
    assert compare(mel(rat=Fraction(3, 2)), mel(r2=1)) == 1
    # identical coefficient maps
    assert compare(mel(r2=1, r3=1), mel(r2=1, r3=1)) == 0
    # (sqrt2 + sqrt3)^2 = 5 + 2*sqrt6 < 49/4 since (2*sqrt6)^2 = 24 < (29/4)^2
    assert compare(mel(r2=1, r3=1), mel(rat=Fraction(7, 2))) == -1


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), elements())
def test_compare_total_order_compatible_with_addition(a, b, c):
    sab = compare(a, b)
    assert sab in (-1, 0, 1)
    assert compare(b, a) == -sab
    assert compare(a + c, b + c) == sab
    if sab == 0:
        assert a == b


@settings(max_examples=100, deadline=None)
@given(elements(), elements(), st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
def test_compare_compatible_with_positive_scaling(a, b, q):
    assert compare(a.scale(q), b.scale(q)) == compare(a, b)


def test_compare_agrees_with_dyadic_approximation_on_random_sample():
    # 10,000 random elements; adjacent pairs. With these coefficient sizes a
    # nonzero difference always exceeds 2**-64, so a 64-bit enclosure either
    # determines the sign (and must agree) or the difference is exactly zero.
    rng = random.Random(20260809)
    sample = []
    for _ in range(10000):
        coeffs = {}
        for k in (0, 2, 3):
            if rng.random() < 0.7:
                coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        sample.append(ModelElement(coeffs))
    for a, b in zip(sample, sample[1:]):
        lo, hi = (a - b).enclosure(64)
        verdict = compare(a, b)
        if lo > 0:
            assert verdict == 1
        elif hi < 0:
            assert verdict == -1
        else:
            assert verdict == 0 and a == b


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), rationals, rationals)
def test_project_is_linear_with_kernel_q(a, b, p, q):
    assert project(a.scale(p) + b.scale(q)) == project(a).scale(p) + project(b).scale(q)
    assert (project(a) == QuotientElement()) == a.in_q()


def test_project_examples():
    assert project(mel(rat=Fraction(2, 3), r2=1)) == QuotientElement({2: Fraction(1)})
    assert project(mel(rat=Fraction(5, 7))) == QuotientElement()


@settings(max_examples=100, deadline=None)
@given(elements())
def test_section_is_right_inverse_of_project(a):
    w = project(a)
    assert project(section(w)) == w
    assert section(w).coeff(0) == 0


def test_lex_order_axioms():
    u = QuotientElement({2: Fraction(1)})
    v = QuotientElement({3: Fraction(1)})
    # first differing radicand decides
    assert lex_compare(u, v) == 1  # (1, 0) vs (0, 1) lexicographically
    assert lex_compare(QuotientElement(), u) == -1
    w = QuotientElement({2: Fraction(1), 3: Fraction(-5)})
    assert lex_compare(u, w) == 1  # equal on radicand 2, then 0 > -5


@settings(max_examples=150, deadline=None)
@given(
    st.builds(QuotientElement, st.dictionaries(st.sampled_from([2, 3]), rationals, max_size=2)),
    st.builds(QuotientElement, st.dictionaries(st.sampled_from([2, 3]), rationals, max_size=2)),
    st.builds(QuotientElement, st.dictionaries(st.sampled_from([2, 3]), rationals, max_size=2)),
)
def test_lex_order_total_and_translation_invariant(a, b, c):
    s = lex_compare(a, b)
    assert s in (-1, 0, 1)
    assert lex_compare(b, a) == -s
    assert lex_compare(a + c, b + c) == s
    if s == 0:
        assert a == b


def test_rational_between_and_bounds():
    a = mel(r2=1)  # sqrt2
    b = mel(rat=Fraction(3, 2))
    q = rational_between(a, b)
    assert compare(a, ModelElement.from_rational(q)) < 0
    assert compare(ModelElement.from_rational(q), b) < 0
    assert rational_below(a) < 2
    assert rational_above(a) > 1
    assert compare(ModelElement.from_rational(rational_below(a)), a) < 0
    assert compare(a, ModelElement.from_rational(rational_above(a))) < 0


def test_decimal_rendering():
    assert mel(rat=Fraction(1, 2)).decimal_str(4) == "0.5000"
    assert mel(r2=1).decimal_str(6) == "1.414214"
    assert mel(rat=-1).decimal_str(2) == "-1.00"
    two_minus_r2 = mel(rat=2, r2=-1)
    assert two_minus_r2.decimal_str(12) == "0.585786437627"
    assert two_minus_r2.decimal_str(0) == "1"
    with pytest.raises(ValueError, match="nonnegative"):
        two_minus_r2.decimal_str(-3)
    assert len(two_minus_r2.decimal_str(4300)) == 4302
    with pytest.raises(ValueError, match="at most 4300"):
        two_minus_r2.decimal_str(4301)


def test_text_rendering():
    assert str(mel(rat=Fraction(3, 2), r2=Fraction(1, 3), r5=-1)) == "3/2 + 1/3*r2 - r5"
    assert str(ModelElement()) == "0"
    assert str(mel(r2=-1)) == "-r2"
    assert str(QuotientElement({2: Fraction(1), 3: Fraction(2)})) == "pi(r2 + 2*r3)"


def test_json_round_trip():
    a = mel(rat=Fraction(3, 2), r2=Fraction(1, 3), r5=-1)
    assert a.to_json() == {"0": "3/2", "2": "1/3", "5": "-1"}
    assert ModelElement.from_json(a.to_json()) == a
    w = project(a)
    assert QuotientElement.from_json(w.to_json()) == w


def test_model_membership():
    assert MODEL.contains(mel(rat=1, r2=1, r3=1))
    assert not MODEL.contains(mel(r5=1))
