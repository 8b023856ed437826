"""Decomposition: canonical form, partition correctness, smallness,
near-interior, and the ultrafilter behaviour of invariant sets."""

import random
from fractions import Fraction

import pytest

from densepairs.decomposition import (
    CosetSet,
    Decomposition,
    Endpoint,
    NearInterval,
    decompose,
    generic_type_contains,
    is_small,
)
from densepairs.errors import ArityError, ModeError, NotGroundError
from densepairs.evaluate import eval_formula
from densepairs.formulas import TheoryMode, make_and, make_not, make_or
from densepairs.model import (
    Model,
    ModelElement,
    QuotientElement,
    compare,
    project,
    rational_between,
    section,
)
from densepairs.parser import parse, parse_element
from densepairs.randgen import random_assignment, random_qf_formula
from densepairs.terms import hvar, qvar

MODEL = Model(3)
X = hvar(1)


def sample_points(d: Decomposition, rng: random.Random, count: int) -> list[ModelElement]:
    """Targeted probes: piece insides (listed and excluded cosets), frontier
    points, gaps between endpoints, and far tails."""
    probes: list[ModelElement] = list(d.points)
    anchors: list[ModelElement] = list(d.points)
    for piece in d.pieces:
        lo = piece.lo.value if piece.lo.is_finite() else None
        hi = piece.hi.value if piece.hi.is_finite() else None
        if lo is not None:
            anchors.append(lo)
        if hi is not None:
            anchors.append(hi)
        mid_lo = lo if lo is not None else (hi - ModelElement.from_rational(2) if hi is not None else ModelElement.from_rational(-1))
        mid_hi = hi if hi is not None else mid_lo + ModelElement.from_rational(2)
        q = rational_between(mid_lo, mid_hi)
        base = ModelElement.from_rational(q)
        probes.append(base)  # the rational-line coset inside the interval
        for w in piece.sorted_cosets():
            probes.append(section(w) + base)  # listed coset, shifted inside
        probes.append(ModelElement({5: Fraction(1)}) + base if MODEL.dim > 3 else base + ModelElement({3: Fraction(1, 7)}))
    anchors.sort(key=lambda m: 0)  # keep deterministic order, values vary
    while len(probes) < count:
        shift = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        coeffs = {0: shift}
        if rng.random() < 0.6:
            coeffs[rng.choice([2, 3])] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        probe = ModelElement(coeffs)
        if anchors and rng.random() < 0.5:
            probe = probe + anchors[rng.randrange(len(anchors))]
        probes.append(probe)
    return probes[:count]


def test_subspace_is_one_small_piece():
    d = decompose(parse("Q(x1)"), X)
    assert d.points == ()
    assert len(d.pieces) == 1
    piece = d.pieces[0]
    assert not piece.lo.is_finite() and not piece.hi.is_finite()
    assert not piece.cosets.cofinite
    assert piece.sorted_cosets() == (QuotientElement(),)
    assert is_small(d)


def test_plain_interval_is_one_large_piece():
    d = decompose(parse("0 < x1 & x1 < 1"), X)
    assert d.points == ()
    assert d.pieces == (
        NearInterval(
            Endpoint.at(ModelElement()),
            Endpoint.at(ModelElement.from_rational(1)),
            CosetSet.all(),
        ),
    )
    assert not is_small(d)


def test_point_union_coset_complement_merges_across_the_point():
    d = decompose(parse("x1 = 1 | (!Q(x1) & x1 > 0)"), X)
    assert d.points == (ModelElement.from_rational(1),)
    assert len(d.pieces) == 1
    piece = d.pieces[0]
    assert piece.lo == Endpoint.at(ModelElement()) and not piece.hi.is_finite()
    assert piece.cosets == CosetSet.excluding([QuotientElement()])


def test_true_hole_prevents_merging():
    # remove one irrational point from a coset-complement: a genuine hole
    d = decompose(parse("!Q(x1) & x1 != r2"), X)
    assert d.points == ()
    assert len(d.pieces) == 2
    r2 = parse_element("r2")
    assert d.pieces[0].hi == Endpoint.at(r2) and d.pieces[1].lo == Endpoint.at(r2)


def test_absorbed_point_vanishes():
    # adding a point already inside the pattern does not change the set
    d1 = decompose(parse("Q(x1) | x1 = 0"), X)
    d2 = decompose(parse("Q(x1)"), X)
    assert d1 == d2


def test_ground_formulas_denote_empty_or_everything():
    assert decompose(parse("x1 < x1"), X).is_empty()
    assert decompose(parse("Q(x1) & !Q(x1)"), X).is_empty()
    full = decompose(parse("x1 = x1"), X)
    assert not full.points and len(full.pieces) == 1
    assert full.pieces[0].cosets == CosetSet.all()


def test_quantified_input_is_eliminated_first():
    d = decompose(parse("E x2. (x1 < x2 & x2 < x1 + 1 & Q(x2 - x1))"), X)
    assert len(d.pieces) == 1  # whole line: every coset of x1 works


def test_preconditions():
    with pytest.raises(NotGroundError):
        decompose(parse("x1 < x2"), X)
    with pytest.raises(ArityError):
        decompose(parse("u1 = 0"), qvar(1))
    with pytest.raises(ModeError):
        decompose(parse("pi(x1) prec pi(x1) + u1", TheoryMode.POVS_PREC), X, {qvar(1): QuotientElement({2: Fraction(1)})})
    # grounding through the assignment works
    d = decompose(parse("x1 < x2"), X, {hvar(2): parse_element("r2")})
    assert d.pieces[0].hi == Endpoint.at(parse_element("r2"))


def test_membership_matches_eval_on_targeted_samples():
    rng = random.Random(31337)
    formulas = [
        "Q(x1) | x1 = r2",
        "(0 < x1 & x1 < 1 & Q(x1)) | x1 > 2",
        "!Q(x1 - r2) & x1 < 5",
        "pi(x1) = pi(r2) | (x1 > 0 & x1 < r3)",
        "x1 = 1 | x1 = 2 | (x1 > 3 & Q(2*x1))",
        "Q(3*x1 - r2) -> x1 < 0",
    ]
    for text in formulas:
        f = parse(text)
        d = decompose(f, X)
        for probe in sample_points(d, rng, 300):
            assert d.contains(probe) == eval_formula(f, {X: probe}), (text, str(probe))


def test_structural_invariants_hold():
    rng = random.Random(4242)
    for _ in range(40):
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=3)
        d = decompose(f, X)
        for a, b in zip(d.points, d.points[1:]):
            assert compare(a, b) < 0
        for p in d.pieces:
            assert p.lo.compare(p.hi) < 0
            assert not p.cosets.is_empty()
        for p, q in zip(d.pieces, d.pieces[1:]):
            assert p.hi.compare(q.lo) <= 0


def test_complement_closure():
    rng = random.Random(8888)
    for _ in range(25):
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        d = decompose(f, X)
        dc = decompose(make_not(f), X)
        for probe in sample_points(d, rng, 60) + sample_points(dc, rng, 60):
            assert d.contains(probe) != dc.contains(probe)


def test_intersection_consistency():
    rng = random.Random(9999)
    for _ in range(25):
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        g = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        both = decompose(make_and([f, g]), X)
        df, dg = decompose(f, X), decompose(g, X)
        for probe in sample_points(both, rng, 40) + sample_points(df, rng, 40):
            assert both.contains(probe) == (df.contains(probe) and dg.contains(probe))


def test_near_interior_examples():
    # the near-interior is the pieces and the near-frontier the points
    d = decompose(parse("Q(x1)"), X)
    assert d.points == () and len(d.pieces) == 1

    d2 = decompose(parse("x1 = 0"), X)
    assert d2.pieces == () and d2.points == (ModelElement(),)

    d3 = decompose(parse("Q(x1) | x1 = r2"), X)
    assert d3.points == (parse_element("r2"),)
    assert len(d3.pieces) == 1
    assert d3.pieces[0].cosets == CosetSet.just(QuotientElement())


def test_near_frontier_points_fail_the_window_test():
    # every frontier point has arbitrarily small windows where the set is
    # not a pure coset pattern; cross-check with evaluation probes
    f = parse("Q(x1) | x1 = r2")
    d = decompose(f, X)
    eps = Fraction(1, 1000)
    for m in d.points:
        window_lo = m - ModelElement.from_rational(eps)
        window_hi = m + ModelElement.from_rational(eps)
        inside = ModelElement.from_rational(rational_between(window_lo, m))
        # pattern of the surrounding piece does not match membership at m
        assert eval_formula(f, {X: m})
        shifted = inside + section(project(m))
        assert d.contains(shifted) == eval_formula(f, {X: shifted})


def test_smallness_examples():
    assert is_small(decompose(parse("Q(x1)"), X))
    assert not is_small(decompose(parse("0 < x1 & x1 < 1"), X))
    assert is_small(decompose(parse("x1 = 1 | x1 = r2"), X))
    assert is_small(decompose(parse("Q(x1) & !Q(x1)"), X))  # empty set is small
    assert not is_small(decompose(parse("!Q(x1)"), X))


def test_ultrafilter_property_for_invariant_sets():
    # sets of the form g(pi(x)) are unions of cosets: exactly one of the set
    # and its complement is small
    rng = random.Random(2718)
    for _ in range(60):
        g = random_qf_formula(rng, [qvar(1)], MODEL, TheoryMode.POVS, depth=2)
        from densepairs.formulas import substitute
        from densepairs.terms import HomeTerm, QuotientTerm

        pullback = substitute(
            g, qvar(1), QuotientTerm.project_term(HomeTerm.from_variable(X))
        )
        d = decompose(pullback, X)
        dc = decompose(make_not(pullback), X)
        assert is_small(d) != is_small(dc)


def test_generic_type_membership():
    assert generic_type_contains(parse("u1 != pi(r2)"), qvar(1))
    assert not generic_type_contains(parse("u1 = 0"), qvar(1))
    assert generic_type_contains(parse("u1 = u1"), qvar(1))
    with pytest.raises(ArityError):
        generic_type_contains(parse("Q(x1)"), X)
    with pytest.raises(ModeError):
        generic_type_contains(parse("u1 prec u2", TheoryMode.POVS_PREC), qvar(1), {qvar(2): QuotientElement()})


def test_generic_type_is_an_ultrafilter_on_quotient_formulas():
    rng = random.Random(3141)
    for _ in range(40):
        g = random_qf_formula(rng, [qvar(1)], MODEL, TheoryMode.POVS, depth=2)
        assert generic_type_contains(g, qvar(1)) != generic_type_contains(make_not(g), qvar(1))


def test_decomposition_values_are_hashable():
    d1 = decompose(parse("Q(x1) | x1 = r2"), X)
    d2 = decompose(parse("x1 = r2 | Q(x1)"), X)
    assert d1 == d2
    assert hash(d1) == hash(d2)
    assert len({d1, d2}) == 1
