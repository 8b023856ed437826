"""Witness-search oracles: constructed witnesses, stability of refusals,
and the density axioms the engine relies on."""

import random
from fractions import Fraction

import pytest

from densepairs.errors import ModeError, NotGroundError, SortError
from densepairs.evaluate import eval_formula
from densepairs.formulas import TheoryMode, make_and
from densepairs.model import Model, ModelElement, QuotientElement, compare, lex_compare
from densepairs.oracles import oracle_exists_home, oracle_exists_quotient
from densepairs.parser import parse, parse_element
from densepairs.randgen import random_assignment, random_conjunction, random_element
from densepairs.selfcheck import selfcheck
from densepairs.terms import hvar, qvar

MODEL = Model(3)


def lits(*texts, mode=TheoryMode.POVS):
    return [parse(t, mode) for t in texts]


def test_dense_subspace_witness():
    ok, w = oracle_exists_home(lits("0 < x1", "x1 < 1", "Q(x1)"), hvar(1))
    assert ok and w is not None
    assert w.in_q()
    assert compare(w, ModelElement()) > 0 and compare(w, ModelElement.from_rational(1)) < 0


def test_empty_interval_refused():
    ok, w = oracle_exists_home(lits("x1 < 0", "x1 > 1"), hvar(1))
    assert (ok, w) == (False, None)


def test_coset_conflict_refused():
    sigma = {hvar(2): parse_element("r2")}
    ok, w = oracle_exists_home(lits("Q(x1)", "pi(x1) = pi(x2)"), hvar(1), sigma)
    assert (ok, w) == (False, None)


def test_equality_pins_and_verifies():
    ok, w = oracle_exists_home(lits("x1 = x2 + 1", "Q(x1)"), hvar(1), {hvar(2): parse_element("1/2")})
    assert ok and w == parse_element("3/2")
    ok2, _ = oracle_exists_home(lits("x1 = x2 + 1", "Q(x1)"), hvar(1), {hvar(2): parse_element("r2")})
    assert not ok2


def test_weak_bounds_single_point():
    # weak bounds reach the oracle as negated strict literals
    ok, w = oracle_exists_home(
        [parse("!(x1 < 1)"), parse("!(1 < x1)"), parse("Q(x1)")], hvar(1)
    )
    assert ok and w == ModelElement.from_rational(1)
    ok2, _ = oracle_exists_home(
        [parse("!(x1 < 1)"), parse("!(1 < x1)"), parse("!Q(x1)")], hvar(1)
    )
    assert not ok2


def test_excluded_points_are_avoided():
    ok, w = oracle_exists_home(
        lits("0 < x1", "x1 < 1", "Q(x1)", "x1 != 1/2", "x1 != 1/4", "x1 != 3/4"),
        hvar(1),
    )
    assert ok
    assert w not in {parse_element("1/2"), parse_element("1/4"), parse_element("3/4")}


def test_not_ground_error():
    with pytest.raises(NotGroundError):
        oracle_exists_home(lits("x1 < x2"), hvar(1))
    with pytest.raises(SortError):
        oracle_exists_home(lits("u1 = 0"), qvar(1))  # wrong entry point


def test_quotient_disequations_always_satisfiable():
    sigma = {hvar(1): parse_element("r2"), hvar(2): parse_element("r3")}
    ok, w = oracle_exists_quotient(
        lits("u1 != pi(x1)", "u1 != pi(x2)"), qvar(1), sigma
    )
    assert ok and w is not None


def test_quotient_contradiction():
    ok, w = oracle_exists_quotient(lits("u1 = pi(x1)", "u1 != pi(x1)"), qvar(1), {hvar(1): parse_element("r2")})
    assert (ok, w) == (False, None)


def test_ordered_quotient_interval():
    # radicand 2 is compared first, so pi(sqrt3) comes before pi(sqrt2)
    sigma = {hvar(1): parse_element("r3"), hvar(2): parse_element("r2")}
    literals = lits("pi(x1) prec u1", "u1 prec pi(x2)", mode=TheoryMode.POVS_PREC)
    lo = QuotientElement({3: Fraction(1)})
    hi = QuotientElement({2: Fraction(1)})
    assert lex_compare(lo, hi) < 0
    ok, w = oracle_exists_quotient(literals, qvar(1), sigma, ordered=True)
    assert ok and lex_compare(lo, w) < 0 and lex_compare(w, hi) < 0
    # flipped bounds refuse
    ok2, _ = oracle_exists_quotient(
        lits("pi(x2) prec u1", "u1 prec pi(x1)", mode=TheoryMode.POVS_PREC),
        qvar(1),
        sigma,
        ordered=True,
    )
    assert not ok2


def test_prec_literals_rejected_in_unordered_mode():
    with pytest.raises(ModeError):
        oracle_exists_quotient(
            lits("u1 prec pi(x1)", mode=TheoryMode.POVS_PREC),
            qvar(1),
            {hvar(1): parse_element("r2")},
            ordered=False,
        )


def test_every_witness_reevaluates_true_and_refusals_are_stable():
    rng = random.Random(424242)
    trials = stable_probes = 0
    for _ in range(120):
        bound = hvar(0) if rng.random() < 0.5 else qvar(0)
        context = [hvar(1), hvar(2), qvar(1)]
        literals = random_conjunction(rng, bound, context, MODEL, TheoryMode.POVS)
        sigma = random_assignment(rng, context, MODEL)
        if bound.sort.value == "home":
            ok, w = oracle_exists_home(literals, bound, sigma)
        else:
            ok, w = oracle_exists_quotient(literals, bound, sigma)
        conj = make_and(literals)
        if ok:
            assert eval_formula(conj, {**sigma, bound: w})
        else:
            # a thousand random probes across the suite never contradict a refusal
            for _ in range(25):
                probe = random_assignment(rng, [bound], MODEL)[bound]
                assert not eval_formula(conj, {**sigma, bound: probe})
                stable_probes += 1
        trials += 1
    assert trials == 120 and stable_probes >= 1000


def test_density_axiom_of_the_pair():
    # for random a < b the subspace meets (a, b): the defining density axiom
    rng = random.Random(77)
    for _ in range(50):
        a = random_element(rng, MODEL)
        b = random_element(rng, MODEL)
        if compare(a, b) == 0:
            continue
        if compare(a, b) > 0:
            a, b = b, a
        sigma = {hvar(1): a, hvar(2): b}
        ok, w = oracle_exists_home(
            lits("x1 < x0", "x0 < x2", "Q(x0)"), hvar(0), sigma
        )
        assert ok and w.in_q()


def test_every_coset_is_dense():
    rng = random.Random(78)
    for _ in range(50):
        a = random_element(rng, MODEL)
        b = random_element(rng, MODEL)
        c = random_element(rng, MODEL)
        if compare(a, b) == 0:
            continue
        if compare(a, b) > 0:
            a, b = b, a
        sigma = {hvar(1): a, hvar(2): b, hvar(3): c}
        ok, w = oracle_exists_home(
            lits("x1 < x0", "x0 < x2", "pi(x0) = pi(x3)"), hvar(0), sigma
        )
        assert ok


def test_quotient_order_is_dense_without_endpoints():
    # the comparator choice must satisfy these axioms; verified, not assumed
    rng = random.Random(79)
    for _ in range(60):
        u = QuotientElement({k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (2, 3) if rng.random() < 0.8})
        v = QuotientElement({k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (2, 3) if rng.random() < 0.8})
        if lex_compare(u, v) == 0:
            continue
        if lex_compare(u, v) > 0:
            u, v = v, u
        sigma = {hvar(1): ModelElement(u.coeffs), hvar(2): ModelElement(v.coeffs)}
        between = oracle_exists_quotient(
            lits("pi(x1) prec u0", "u0 prec pi(x2)", mode=TheoryMode.POVS_PREC),
            qvar(0),
            sigma,
            ordered=True,
        )
        assert between[0]
        above = oracle_exists_quotient(
            lits("pi(x2) prec u0", mode=TheoryMode.POVS_PREC), qvar(0), sigma, ordered=True
        )
        below = oracle_exists_quotient(
            lits("u0 prec pi(x1)", mode=TheoryMode.POVS_PREC), qvar(0), sigma, ordered=True
        )
        assert above[0] and below[0]


@pytest.mark.parametrize("mode", list(TheoryMode))
def test_selfcheck_counts_every_check_and_finds_no_disagreement(mode):
    report = selfcheck(3, 20, mode, MODEL)
    assert report == {
        "seed": 3,
        "count": 20,
        "checks": 200,
        "agreements": 200,
        "disagreements": 0,
    }
