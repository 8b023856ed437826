"""Canonical codes: invariance under rewriting, separation of distinct sets,
and faithful function reconstruction."""

import random
from fractions import Fraction

import pytest

from densepairs.coding import (
    FunctionCode,
    UnarySetCode,
    code_function,
    code_unary_set,
    codes_equal,
)
from densepairs.decomposition import decompose
from densepairs.errors import ArityError, NotFunctionalError, NotGroundError
from densepairs.evaluate import eval_formula
from densepairs.formulas import (
    And,
    Formula,
    Not,
    Or,
    TheoryMode,
    make_and,
    make_not,
    make_or,
)
from densepairs.model import Model, ModelElement, compare, project, section
from densepairs.parser import parse, parse_element
from densepairs.randgen import random_element, random_qf_formula
from densepairs.terms import hvar, qvar

MODEL = Model(3)
X, Y = hvar(1), hvar(2)


def shuffle_boolean_structure(f: Formula, rng: random.Random) -> Formula:
    """A logically equivalent formula with rearranged Boolean skeleton."""
    if isinstance(f, And):
        kids = [shuffle_boolean_structure(c, rng) for c in f.children]
        rng.shuffle(kids)
        if rng.random() < 0.4:  # double negation via De Morgan
            return make_not(make_or([make_not(k) for k in kids]))
        if rng.random() < 0.3:  # duplicate one conjunct
            kids.append(kids[0])
        return make_and(kids)
    if isinstance(f, Or):
        kids = [shuffle_boolean_structure(c, rng) for c in f.children]
        rng.shuffle(kids)
        if rng.random() < 0.4:
            return make_not(make_and([make_not(k) for k in kids]))
        return make_or(kids)
    if isinstance(f, Not):
        return make_not(shuffle_boolean_structure(f.sub, rng))
    if rng.random() < 0.2:
        return make_not(make_not(f))
    return f


def test_code_examples():
    c = code_unary_set(parse("Q(x1)"), X)
    assert c.points == ()
    assert len(c.pieces) == 1
    assert not c.pieces[0].is_large()

    same = code_unary_set(parse("Q(x1) | (Q(x1) & x1 = x1)"), X)
    assert codes_equal(c, same)

    point = code_unary_set(parse("x1 = 0"), X)
    assert point.points == (ModelElement(),)
    assert point.pieces == ()


def test_codes_separate_complements():
    a = code_unary_set(parse("Q(x1)"), X)
    b = code_unary_set(parse("!Q(x1)"), X)
    assert not codes_equal(a, b)


def test_equivalent_formulations_share_a_code():
    a = code_unary_set(parse("0 < x1 & x1 < 1 & Q(x1)"), X)
    b = code_unary_set(parse("0 < x1 & x1 < 1 & pi(x1) = 0"), X)
    assert codes_equal(a, b)


def test_code_invariance_under_boolean_rewriting():
    rng = random.Random(5150)
    for _ in range(40):
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=3)
        g = shuffle_boolean_structure(f, rng)
        assert codes_equal(code_unary_set(f, X), code_unary_set(g, X))


def test_distinct_sets_get_distinct_codes():
    rng = random.Random(5151)
    checked = 0
    while checked < 40:
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        g = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        df, dg = decompose(f, X), decompose(g, X)
        # verified inequivalent: some targeted probe separates the sets
        witness = None
        probes = [p for p in df.points + dg.points]
        for piece in df.pieces + dg.pieces:
            lo = piece.lo.value if piece.lo.is_finite() else None
            hi = piece.hi.value if piece.hi.is_finite() else None
            from densepairs.model import rational_above, rational_below, rational_between

            if lo is not None and hi is not None:
                q = rational_between(lo, hi)
            elif lo is not None:
                q = rational_above(lo)
            elif hi is not None:
                q = rational_below(hi)
            else:
                q = Fraction(0)
            base = ModelElement.from_rational(q)
            probes.append(base)
            for w in piece.sorted_cosets():
                probes.append(section(w) + base)
        for probe in probes:
            if eval_formula(f, {X: probe}) != eval_formula(g, {X: probe}):
                witness = probe
                break
        if witness is None:
            continue
        checked += 1
        assert not codes_equal(code_unary_set(f, X), code_unary_set(g, X))


def test_function_code_piecewise_example():
    fc = code_function(parse("(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)"), X, Y)
    assert fc.exceptional == ()
    assert sorted((str(p.slope), str(p.intercept)) for p in fc.pieces) == [
        ("1", "0"),
        ("2", "0"),
    ]
    by_slope = {p.slope: p for p in fc.pieces}
    assert not by_slope[Fraction(2)].domain.pieces[0].is_large()  # the subspace
    assert by_slope[Fraction(1)].domain.pieces[0].is_large()  # its complement


def test_function_code_identity_and_finite_graph():
    ident = code_function(parse("x2 = x1"), X, Y)
    assert len(ident.pieces) == 1 and ident.pieces[0].slope == 1
    assert ident.exceptional == ()

    finite = code_function(parse("x1 = 1 & x2 = 5"), X, Y)
    assert finite.pieces == ()
    assert finite.exceptional == (
        (ModelElement.from_rational(1), ModelElement.from_rational(5)),
    )


def test_function_code_crossing_lines_split_cleanly():
    # same value at x=0 from two candidate lines
    fc = code_function(parse("(Q(x1) & x2 = x1) | (!Q(x1) & x2 = -x1)"), X, Y)
    assert {p.slope for p in fc.pieces} == {Fraction(1), Fraction(-1)}
    recon = [fc.value_at(ModelElement.from_rational(Fraction(1, 2))), fc.value_at(parse_element("r2"))]
    assert recon[0] == ModelElement.from_rational(Fraction(1, 2))
    assert recon[1] == -parse_element("r2")


def test_function_with_interval_domain_and_exceptional_point():
    f = parse("(0 < x1 & x1 < 1 & x2 = 3*x1 + 1) | (x1 = 2 & x2 = 0)")
    fc = code_function(f, X, Y)
    assert len(fc.pieces) == 1
    assert fc.pieces[0].slope == 3
    assert fc.exceptional == ((ModelElement.from_rational(2), ModelElement()),)


def test_not_functional_rejected():
    with pytest.raises(NotFunctionalError):
        code_function(parse("x2 = x1 | x2 = x1 + 1"), X, Y)
    with pytest.raises(NotFunctionalError):
        code_function(parse("x1 < x2"), X, Y)


def test_function_preconditions():
    with pytest.raises(ArityError):
        code_function(parse("pi(x1) = u1"), X, qvar(1))
    with pytest.raises(NotGroundError):
        code_function(parse("x2 = x1 + x3"), X, Y)
    grounded = code_function(
        parse("x2 = x1 + x3"), X, Y, {hvar(3): parse_element("r2")}
    )
    assert grounded.pieces[0].intercept == parse_element("r2")


def test_reconstruction_agrees_with_eval():
    rng = random.Random(6001)
    graphs = [
        "x2 = x1",
        "x2 = -2*x1 + 1/2",
        "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)",
        "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1 - r2)",
        "(x1 < 0 & x2 = -x1) | (!(x1 < 0) & x2 = x1)",
        "(pi(x1) = pi(r2) & x2 = x1 + 1) | (pi(x1) != pi(r2) & x2 = 3)",
        "(0 < x1 & x1 < 1 & x2 = 3*x1 + 1) | (x1 = 2 & x2 = 0)",
    ]
    for text in graphs:
        f = parse(text)
        fc = code_function(f, X, Y)
        for _ in range(150):
            m = random_element(rng, MODEL)
            value = fc.value_at(m)
            if value is None:
                # outside the coded domain: no value satisfies the graph
                probes = [random_element(rng, MODEL) for _ in range(5)]
                assert not any(eval_formula(f, {X: m, Y: p}) for p in probes)
            else:
                assert eval_formula(f, {X: m, Y: value}), (text, str(m))
        # slope completeness at targeted points
        for a, b in fc.exceptional:
            assert eval_formula(f, {X: a, Y: b})


def test_function_piece_domains_are_disjoint():
    fc = code_function(
        parse("(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)"), X, Y
    )
    # structural scan: no two domain pieces share an interval and a coset
    for i, a in enumerate(fc.pieces):
        for b in fc.pieces[i + 1 :]:
            for pa in a.domain.pieces:
                for pb in b.domain.pieces:
                    overlap = (
                        pa.lo.compare(pb.hi) < 0
                        and pb.lo.compare(pa.hi) < 0
                    )
                    if overlap and not pa.is_large() and not pb.is_large():
                        assert not (pa.cosets.members & pb.cosets.members)


def test_json_shape():
    fc = code_function(parse("x2 = x1"), X, Y)
    data = fc.to_json()
    assert data["pieces"][0]["slope"] == "1"
    assert data["exceptional"] == []
    code = code_unary_set(parse("Q(x1)"), X)
    assert code.to_json()["pieces"][0]["polarity"] == "finite"
