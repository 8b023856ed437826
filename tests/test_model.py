"""Exact arithmetic, ordering, and quotient structure of the reference model."""

import math
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepairs.model import (
    MAX_DIM,
    MAX_RADICAND,
    _NO_VARIABLES,
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
        lo, hi = ModelElement({p: 1}).enclosure(40)
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


def test_rational_between_refines_enclosures_that_overlap():
    a = mel(r2=1)
    b = a + mel(rat=Fraction(1, 2**40))
    assert b.enclosure(32)[0] <= a.enclosure(32)[1]  # 32 bits do not separate them
    q = ModelElement.from_rational(rational_between(a, b))
    assert compare(a, q) < 0 and compare(q, b) < 0


@pytest.mark.parametrize("a, b", [(mel(r2=1), mel(r2=1)), (mel(rat=2), mel(rat=1))])
def test_rational_between_refuses_unordered_ends(a, b):
    # no enclosure separates equal values, or puts a below a larger b
    start = time.perf_counter()
    with pytest.raises(ValueError, match="needs a < b"):
        rational_between(a, b)
    assert time.perf_counter() - start < 1.0


def test_decimal_rendering():
    assert mel(rat=Fraction(1, 2)).decimal_str(4) == "0.5000"
    assert mel(r2=1).decimal_str(6) == "1.414214"
    assert mel(rat=-1).decimal_str(2) == "-1.00"
    two_minus_r2 = mel(rat=2, r2=-1)
    assert two_minus_r2.decimal_str(12) == "0.585786437627"
    assert two_minus_r2.decimal_str(0) == "1"
    # correctly rounded: the enclosure narrows until both its ends round alike
    near_half = mel(rat=Fraction(-282742712474619, 200000000000000), r2=1)  # 0.000500000000000048...
    assert near_half.decimal_str(3) == "0.001"
    assert ModelElement({2: 10**30}).decimal_str(3) == "1414213562373095048801688724209.698"
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


def test_from_json_refuses_malformed_entries_with_value_error():
    for data in ({"0": "1/0"}, {"2": "3/0"}, {"0": "x"}, {"a": "1"}, {"4": "1"}):
        for cls in (ModelElement, QuotientElement):
            with pytest.raises(ValueError):
                cls.from_json(data)


def test_quotient_elements_refuse_the_rational_key():
    with pytest.raises(ValueError, match="radicand below 2"):
        QuotientElement({0: 1})
    with pytest.raises(ValueError, match="radicand below 2"):
        QuotientElement.from_json({"0": "1"})


def test_rational_reads_an_element_on_the_rational_line():
    assert mel(r2=1).rational() is None
    assert mel(rat=Fraction(3, 4)).rational() == Fraction(3, 4)
    assert ModelElement().rational() == 0


def test_constructors_refuse_a_zero_denominator_with_value_error():
    from densepairs.terms import HomeTerm, QuotientTerm, hvar, qvar

    for make in (
        lambda: ModelElement({0: "1/0"}),
        lambda: QuotientElement({2: "3/0"}),
        lambda: HomeTerm({hvar(1): "1/0"}),
        lambda: QuotientTerm({qvar(1): "1/0"}),
    ):
        with pytest.raises(ValueError, match="^zero denominator in '[13]/0'$"):
            make()


def test_elements_carry_no_instance_dict():
    for e in (mel(rat=1, r2=Fraction(1, 3)), ModelElement(), QuotientElement({3: 2})):
        assert not hasattr(e, "__dict__")
        with pytest.raises(AttributeError):
            e.cached = 1


def test_model_membership():
    assert MODEL.contains(mel(rat=1, r2=1, r3=1))
    assert not MODEL.contains(mel(r5=1))


# --- the integer sign kernel against an independent squaring reference ------
#
# Reference elements are maps from a squarefree radicand to a Fraction, with
# radicand 1 for the unit.  The sign of X + Y*sqrt(p), where no radicand of X
# or Y has the prime factor p, is the common sign of X and Y when they agree;
# otherwise the sign of the larger of |X| and |Y|*sqrt(p), decided by the sign
# of X**2 - p*Y**2.  Squaring away one prime at a time needs no enclosure.

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _as_reference(a: ModelElement) -> dict[int, Fraction]:
    return {1 if k == 0 else k: q for k, q in a.items()}


def _ref_mul(x, y):
    out: dict[int, Fraction] = {}
    for a, p in x.items():
        for b, q in y.items():
            g = math.gcd(a, b)  # sqrt(a) * sqrt(b) = g * sqrt(ab / g**2)
            k = (a // g) * (b // g)
            out[k] = out.get(k, 0) + p * q * g
    return out


def reference_sign(x) -> int:
    x = {k: q for k, q in x.items() if q}
    if not x:
        return 0
    p = next((p for p in SMALL_PRIMES if any(k % p == 0 for k in x)), None)
    if p is None:
        return 1 if x[1] > 0 else -1
    rest = {k: q for k, q in x.items() if k % p}
    root_part = {k // p: q for k, q in x.items() if k % p == 0}
    s_rest, s_root = reference_sign(rest), reference_sign(root_part)
    if s_rest == 0 or s_rest == s_root:
        return s_root
    diff = _ref_mul(rest, rest)
    for k, q in _ref_mul(root_part, root_part).items():
        diff[k] = diff.get(k, 0) - p * q
    d = reference_sign(diff)
    assert d != 0  # X = -Y*sqrt(p) would make sqrt(p) rational
    return s_rest if d > 0 else s_root


def test_squaring_reference_on_known_signs():
    assert reference_sign({1: Fraction(3, 2), 2: Fraction(-1)}) == 1  # 9/4 > 2
    assert reference_sign({2: Fraction(1), 3: Fraction(1), 1: Fraction(-7, 2)}) == -1
    assert reference_sign({1: Fraction(-5), 6: Fraction(2)}) == -1  # 25 > 24
    assert reference_sign({}) == 0


def _pell(p, q, step, count):
    """count successive solutions of p**2 - r*q**2 = +-1, as (p, q) pairs."""
    out = []
    for _ in range(count):
        out.append((p, q))
        p, q = step(p, q)
    return out


PELL = (
    [(2, p, q) for p, q in _pell(1, 1, lambda p, q: (p + 2 * q, p + q), 60)]
    + [(3, p, q) for p, q in _pell(2, 1, lambda p, q: (2 * p + 3 * q, p + 2 * q), 40)]
    + [(5, p, q) for p, q in _pell(9, 4, lambda p, q: (9 * p + 20 * q, 4 * p + 9 * q), 25)]
)


def test_pell_near_misses_force_the_refinement_loop():
    # p/q - sqrt(r) is about 1/(2*sqrt(r)*q**2): 665857/470832 - sqrt(2) is
    # about 2**-39, so 32 bits cannot decide it, and later ones need hundreds
    assert (2, 665857, 470832) in PELL
    deep = 0
    for r, p, q in PELL:
        x = ModelElement({0: Fraction(p, q), r: Fraction(-1)})
        expected = reference_sign(_as_reference(x))
        assert x.sign() == expected
        assert (-x).sign() == -expected
        assert x.scale(Fraction(-7, 3)).sign() == -expected
        assert compare(ModelElement.from_rational(Fraction(p, q)), ModelElement({r: Fraction(1)})) == expected
        lo, hi = x.enclosure(32)
        deep += lo <= 0 <= hi
    assert deep > len(PELL) // 2


def test_sign_with_coefficients_near_ten_to_the_sixty():
    rng = random.Random(60)
    for _ in range(300):
        b = rng.randint(-(10**60), 10**60) or 1
        r = rng.choice((2, 3, 5, 7, 11))
        # a is within 1 of b*sqrt(r): the sign needs about 200 bits or more
        a = math.isqrt(r * b * b) * (1 if b > 0 else -1) + rng.choice((-1, 0, 1))
        den = rng.randint(1, 10**30)
        x = ModelElement({0: Fraction(a, den), r: Fraction(-b, den)})
        assert x.sign() == reference_sign(_as_reference(x))
        y = ModelElement({0: Fraction(rng.randint(-(10**60), 10**60), den), r: Fraction(b, 7)})
        assert compare(x, y) == reference_sign(_as_reference(x - y))


def _five_radicand_element(rng: random.Random, near_zero: bool) -> ModelElement:
    coeffs = {k: Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for k in (2, 3, 5, 7, 11)}
    if near_zero:
        # a rational within about 10**-20 of the irrational part's negative
        scale = 10**20
        approx = sum(q * Fraction(math.isqrt(k * scale * scale), scale) for k, q in coeffs.items())
        coeffs[0] = -approx + Fraction(rng.randint(-3, 3), scale)
    else:
        coeffs[0] = Fraction(rng.randint(-999, 999), rng.randint(1, 20))
    return ModelElement(coeffs)


def test_sign_and_compare_over_five_radicands():
    rng = random.Random(5)
    for i in range(300):
        a = _five_radicand_element(rng, near_zero=i % 2 == 0)
        b = _five_radicand_element(rng, near_zero=False)
        assert len(a.radicands()) >= 5
        assert a.sign() == reference_sign(_as_reference(a))
        assert compare(a, b) == reference_sign(_as_reference(a - b))
        assert compare(a, a) == 0


def test_enclosure_brackets_the_value_within_its_width():
    rng = random.Random(8)
    samples = [ModelElement({0: Fraction(p, q), r: Fraction(-1)}) for r, p, q in PELL[::7]]
    samples += [_five_radicand_element(rng, near_zero=i % 2 == 0) for i in range(20)]
    samples += [mel(rat=Fraction(-3, 7)), ModelElement()]
    for x in samples:
        for bits in (1, 32, 45, 64, 200):
            lo, hi = x.enclosure(bits)
            assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
            assert lo <= hi
            assert hi - lo <= sum(abs(q) for _, q in x.items()) / Fraction(2**bits)
            below = _as_reference(x)
            below[1] = below.get(1, 0) - lo
            above = _as_reference(x)
            above[1] = above.get(1, 0) - hi
            assert reference_sign(below) >= 0 >= reference_sign(above)


def test_compare_over_unequal_denominators():
    # compare brings both numerator vectors to one denominator: pairs whose
    # denominators differ, share a factor, or agree, with near and equal values
    rng = random.Random(31)
    for i in range(400):
        den_a, den_b = rng.choice([(1, 7), (6, 4), (9, 9), (35, 21), (1, 1), (12, 18)])
        a = ModelElement({k: Fraction(rng.randint(-40, 40), den_a) for k in rng.sample((0, 2, 3, 5, 7), 3)})
        if i % 4 == 0:
            b = a  # equal, through the same cached numerators
        elif i % 4 == 1:
            b = ModelElement({k: q + Fraction(rng.choice((-1, 1)), den_b * 10**6) for k, q in a.items()})
        else:
            b = ModelElement({k: Fraction(rng.randint(-40, 40), den_b) for k in rng.sample((0, 2, 3, 5, 7), 2)})
        want = reference_sign(_as_reference(a - b))
        assert compare(a, b) == want and compare(b, a) == -want
        assert a.sign() == reference_sign(_as_reference(a))


def test_compare_is_the_sign_of_the_difference_on_seeded_pairs():
    # rational, mixed and irrational pairs, with unlike denominators, and
    # equal values that are one object, rebuilt from Fractions or made from
    # unreduced numerators
    rng = random.Random(4040)

    def element(radicands):
        den = rng.choice((1, 2, 3, 6, 7, 12, 35))
        return ModelElement({k: Fraction(rng.randint(-30, 30), den) for k in radicands if rng.random() < 0.7})

    equal = 0
    for i in range(6000):
        a = element((0,)) if i % 3 < 2 else element((0, 2, 3, 5))
        b = element((0,)) if i % 3 == 0 else element((0, 2, 3, 5))
        if i % 7 == 0:
            b = a if i % 2 else ModelElement(a.coeffs)
        elif i % 7 == 1:
            b = ModelElement._from_numerators(3 * a._d, {k: 3 * n for k, n in a._n.items()})
        equal += a == b
        assert compare(a, b) == (a - b).sign() and compare(b, a) == (b - a).sign(), (a, b)
    assert equal > 1500


def test_from_numerators_gives_the_reduced_row_a_copy_keeps():
    # numerators and a denominator with a common factor, and zero numerators,
    # come back as the reduced row of the Fraction value, and a pickled copy
    # carries that row and hashes alike
    rng = random.Random(4141)
    for i in range(2000):
        cls = ModelElement if i % 2 else QuotientElement
        factor = rng.randint(1, 12)
        nums = {k: factor * rng.randint(-20, 20) for k in (0, 2, 3) if rng.random() < 0.7 and k >= cls._min_key}
        d = factor * rng.randint(1, 60)
        e = cls._from_numerators(d, nums)
        assert e == cls({k: Fraction(n, d) for k, n in nums.items()})
        assert e._d > 0 and 0 not in e._n.values() and math.gcd(e._d, *e._n.values()) == 1
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and hash(copy) == hash(e)
        assert (copy._d, copy._n) == (e._d, e._n)


def test_radicands_are_supported_primes_or_the_unit():
    # a radicand that is not prime lets a nonempty map denote 0, and no
    # enclosure ever excludes 0: ModelElement({4: 1, 0: -2}).sign() never returned
    assert MAX_RADICAND == Model(MAX_DIM).primes[-1] == 7907
    for coeffs, message in [
        ({4: 1, 0: -2}, "r4 is not a square root of a prime"),
        ({2: 1, 8: Fraction(-1, 2)}, "r8 is not a square root of a prime"),
        ({1: 1}, "r1 is not a square root of a prime"),
        ({7919: 1}, "r7919 is beyond the largest supported radicand r7907"),
        ({2305843009213693951: 1}, "r2305843009213693951 is beyond the largest supported radicand r7907"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelElement(coeffs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelElement.from_json({str(k): str(q) for k, q in coeffs.items()})
    with pytest.raises(ValueError, match="^r9 is not"):
        QuotientElement({9: 1})
    assert ModelElement({0: 1, 7907: -1}).sign() == -1
    assert QuotientElement({7907: 1}).lex_sign() == 1


def _reference_text(ref: dict) -> str:
    # the reference rendering, written on Fractions
    parts = []
    for k, q in sorted(ref.items()):
        mag, sym = str(abs(q)), None if k == 0 else f"r{k}"
        body = mag if sym is None else sym if mag == "1" else f"{mag}*{sym}"
        parts.append(("-" if q < 0 else "+", body))
    if not parts:
        return "0"
    return ("-" if parts[0][0] == "-" else "") + parts[0][1] + "".join(f" {s} {b}" for s, b in parts[1:])


def _assert_row_is(e, ref: dict):
    # e is the canonical row of the clean Fraction map ref, in every reading,
    # with the one shared empty variable map of every element
    cls = type(e)
    assert type(e._d) is int and e._d > 0 and math.gcd(e._d, *e._n.values()) == 1
    assert all(type(n) is int and n and k >= cls._min_key for k, n in e._n.items())
    assert e._v is _NO_VARIABLES and not _NO_VARIABLES
    d = math.lcm(*[q.denominator for q in ref.values()])
    assert e._d == d and e._n == {k: q.numerator * (d // q.denominator) for k, q in ref.items()}
    want = cls(ref)
    assert e == want and hash(e) == hash(want) and e.coeffs == ref
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and hash(copy) == hash(e) and (copy._d, copy._v, copy._n) == (e._d, e._v, e._n)
    text = _reference_text(ref)
    assert str(e) == (text if cls is ModelElement or not ref else f"pi({text})")
    assert e.to_json() == {str(k): str(q) for k, q in sorted(ref.items())}


def _add_refs(*scaled) -> dict:
    out = {}
    for c, ref in scaled:
        for k, q in ref.items():
            out[k] = out.get(k, 0) + c * q
    return {k: q for k, q in out.items() if q}


def test_rows_match_a_fraction_reference_on_seeded_mixed_operations():
    # 3,000 operations of every kind that builds an element, each result
    # checked against the same value computed on plain Fractions
    from densepairs.terms import HomeTerm, QuotientTerm, hvar, qvar

    rng = random.Random(2525)

    def fraction():
        return Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 9, 10, 35, 36)))

    def fresh(cls):
        ref = {k: fraction() for k in (0, 2, 3, 5) if k >= cls._min_key and rng.random() < 0.6}
        return {k: q for k, q in ref.items() if q}

    pools = {ModelElement: [(ModelElement(), {})], QuotientElement: [(QuotientElement(), {})]}
    ops = ("init", "json", "numerators", "add", "sub", "neg", "scale", "project", "section", "evaluate")
    for i in range(3000):
        cls = ModelElement if i % 2 else QuotientElement
        a, ra = rng.choice(pools[cls])
        b, rb = rng.choice(pools[cls])
        op = ops[i % len(ops)]
        if op == "init":
            ref = fresh(cls)
            e = cls(ref)
        elif op == "json":
            ref = fresh(cls)
            e = cls.from_json({str(k): str(q) for k, q in ref.items()})
        elif op == "numerators":
            factor, d = rng.randint(1, 30), rng.randint(1, 40)
            nums = {k: rng.randint(-40, 40) for k in (0, 2, 3, 5) if k >= cls._min_key and rng.random() < 0.7}
            e = cls._from_numerators(factor * d, {k: factor * n for k, n in nums.items()})
            ref = {k: Fraction(n, d) for k, n in nums.items() if n}
        elif op in ("add", "sub"):
            flip = 1 if op == "add" else -1
            e = a + b if op == "add" else a - b
            ref = _add_refs((1, ra), (flip, rb))
        elif op == "neg":
            e, ref = -a, _add_refs((-1, ra))
        elif op == "scale":
            q = -abs(fraction()) if rng.random() < 0.7 else fraction()
            e, ref = a.scale(q), _add_refs((q, ra))
        elif op == "project":
            m, rm = rng.choice(pools[ModelElement])
            e, ref = project(m), {k: q for k, q in rm.items() if k}
        elif op == "section":
            w, rw = rng.choice(pools[QuotientElement])
            e, ref = section(w), dict(rw)
        else:
            (x, rx), (y, ry) = rng.choice(pools[ModelElement]), rng.choice(pools[ModelElement])
            (w, rw), (c, rc) = rng.choice(pools[QuotientElement]), rng.choice(pools[cls])
            s, t, u = fraction(), fraction(), fraction()
            if cls is ModelElement:
                term = HomeTerm({hvar(1): s, hvar(2): t}, c)
                ref = _add_refs((s, rx), (t, ry), (1, rc))
            else:
                term = QuotientTerm({qvar(1): u}, HomeTerm({hvar(1): s, hvar(2): t}), c)
                ref = _add_refs((u, rw), (s, rx), (t, ry), (1, rc))
                ref.pop(0, None)
            e = term.evaluate({hvar(1): x, hvar(2): y, qvar(1): w})
        _assert_row_is(e, ref)
        pools[type(e)].append((e, ref))
        if len(pools[type(e)]) > 40:
            pools[type(e)].pop(rng.randrange(40))
    assert len(pools[ModelElement]) > 30 and len(pools[QuotientElement]) > 30


def test_element_arithmetic_builds_no_fraction(monkeypatch):
    # sums, differences, scalings, negations, the quotient map and its
    # section, comparisons, signs and term evaluation all stay on integer rows
    from densepairs.terms import HomeTerm, hvar

    rng = random.Random(2525)
    elements = [
        ModelElement({k: Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for k in (0, 2, 3, 5) if rng.random() < 0.7})
        for _ in range(40)
    ]
    scalars = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(40)]
    term = HomeTerm({hvar(1): Fraction(3, 4), hvar(2): Fraction(-5, 6)}, elements[0])
    built = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for i in range(399):
        a, b, q = elements[i % 40], elements[(7 * i + 3) % 40], scalars[(3 * i) % 40]
        s, t, u, n = a + b, a - b, a.scale(q), -a
        w = project(s)
        assert project(section(w)) == w and project(s - section(w)).is_zero()
        assert compare(s, t) == b.sign() and (u + n.scale(q)).sign() == 0
        assert term.evaluate({hvar(1): a, hvar(2): b}) == term.evaluate({hvar(2): b, hvar(1): a})
    monkeypatch.undo()
    assert built == 0


def test_elements_and_ground_terms_share_rows_but_not_identity():
    # a sum of ground terms has the sum of their constants, the quotient map
    # of a ground term has the image of its constant, and a ModelElement, a
    # QuotientElement and a ground term with one row are pairwise unequal
    from densepairs.terms import HomeTerm, QuotientTerm

    rng = random.Random(2828)

    def element(cls):
        keys = [k for k in (0, 2, 3, 5) if k >= cls._min_key and rng.random() < 0.6]
        return cls({k: Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for k in keys})

    for _ in range(500):
        a, b = element(ModelElement), element(ModelElement)
        ta, tb = HomeTerm.from_element(a), HomeTerm.from_element(b)
        assert (ta + tb).constant == a + b and (ta - tb).constant == a - b
        assert (-ta).constant == -a and ta.scale(Fraction(-2, 3)).constant == a.scale(Fraction(-2, 3))
        assert QuotientTerm.project_term(ta).constant == project(a)
        w = element(QuotientElement)
        assert (QuotientTerm.from_element(w) + QuotientTerm.project_term(tb)).constant == w + project(b)
        tw = QuotientTerm.from_element(w)
        same = [section(w), w, HomeTerm.from_element(section(w)), tw]
        assert len({(x._d, tuple(x._v), tuple(sorted(x._n.items()))) for x in same}) == 1
        for i, x in enumerate(same):
            for j, y in enumerate(same):
                assert (x == y) is (i == j) and (x != y) is (i != j), (x, y)
        with pytest.raises(TypeError):
            a + w
        with pytest.raises(TypeError):
            ta + a


def test_order_operators_refuse_an_operand_of_another_class():
    # the order is between home elements: a quotient element or a plain
    # number raises TypeError, as `+` does, in both operand positions
    one, w = ModelElement({0: 1}), QuotientElement({2: 1})
    for other in (w, 1, Fraction(1, 2)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match="not supported between instances of"):
                op(one, other)
            with pytest.raises(TypeError, match="not supported between instances of"):
                op(other, one)
    with pytest.raises(TypeError):
        one + w
    assert one < ModelElement({2: 1}) and ModelElement({2: 1}) >= one and not one > one and one <= one


def test_the_derived_order_agrees_with_compare_and_the_primes_with_a_sieve():
    # <=, > and >= are derived from __lt__ and the row equality, so on every
    # pair, equal rows built two ways among them, they must read compare's sign
    rng = random.Random(40)

    def element():
        return ModelElement({k: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for k in (0, 2) if rng.random() < 0.6})

    pairs = [
        (ModelElement({0: Fraction(1, 2)}), ModelElement.from_rational(Fraction(2, 4))),
        (ModelElement(), ModelElement.from_rational(0)),
    ]
    for _ in range(300):
        a, b = element(), element()
        pairs += [(a, b), (a, ModelElement(a.coeffs))]
    assert len(pairs) >= 500
    assert sum(a is not b and compare(a, b) == 0 for a, b in pairs) >= 300
    for a, b in pairs:
        c = compare(a, b)
        assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
    # the primes up to 7907, the largest radicand, by the sieve of Eratosthenes
    flags = [False, False] + [True] * 7906
    for p in range(2, math.isqrt(7907) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    assert nth_primes(MAX_DIM - 1) == [p for p, prime in enumerate(flags) if prime]
