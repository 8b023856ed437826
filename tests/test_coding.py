"""Canonical codes: invariance under rewriting, separation of distinct sets,
and faithful function reconstruction."""

import json
import random
import time
from fractions import Fraction

import pytest

from densepairs import coding
from densepairs.coding import (
    FunctionCode,
    UnarySetCode,
    code_function,
    code_unary_set,
    codes_equal,
)
from densepairs.decomposition import Decomposition, decompose
from densepairs.errors import (
    ArityError,
    EngineError,
    InternalError,
    NotFunctionalError,
    NotGroundError,
)
from densepairs.evaluate import eval_formula
from densepairs.formulas import (
    And,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    TheoryMode,
    bound_variables,
    free_variables,
    fresh_variable,
    ground,
    home_eq,
    make_and,
    make_not,
    make_or,
    substitute,
)
from densepairs.model import Model, ModelElement, compare, project, section
from densepairs.parser import parse, parse_element
from densepairs.qe import decide_sentence, qe
from densepairs.randgen import random_element, random_qf_formula
from densepairs.terms import HomeTerm, Sort, hvar, qvar

from reference_sweep import sweep

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
    assert not c.pieces[0].cosets.cofinite

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
    assert not by_slope[Fraction(2)].domain.pieces[0].cosets.cofinite  # the subspace
    assert by_slope[Fraction(1)].domain.pieces[0].cosets.cofinite  # its complement


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
                    if overlap and not pa.cosets.cofinite and not pb.cosets.cofinite:
                        assert not (pa.cosets.members & pb.cosets.members)


ABSOLUTE_VALUE = "(x1 < 0 & x2 = -x1) | (!(x1 < 0) & x2 = x1)"


def test_a_missing_line_leaves_graph_points_off_every_line(monkeypatch):
    # the dropped line's graph points lie off every remaining line, which
    # is how an open y-cell of graph points shows
    lines = coding._line_candidates
    monkeypatch.setattr(coding, "_line_candidates", lambda g, x, y: lines(g, x, y)[1:])
    with pytest.raises(NotFunctionalError, match="the relation maps some point to two values"):
        code_function(parse(ABSOLUTE_VALUE), X, Y)


def test_a_repeated_line_makes_piece_domains_overlap(monkeypatch):
    lines = coding._line_candidates

    def first_line_twice(g, x, y):
        found = lines(g, x, y)
        return found + found[:1]

    monkeypatch.setattr(coding, "_line_candidates", first_line_twice)
    with pytest.raises(InternalError, match="function piece domains overlap"):
        code_function(parse(ABSOLUTE_VALUE), X, Y)


# Outputs recorded at the commit before line candidates were read off the atoms.
@pytest.mark.parametrize(
    "text,expected",
    [
        # the disequation names the line x2 = 3*x1, which the graph never follows
        (
            "x2 = 2*x1 & !(x2 = 3*x1)",
            '{"exceptional": [], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": {}, "cosets": [], "polarity": "cofinite"}, {"a": {}, "b": "+inf", "cosets": [], "polarity": "cofinite"}]}, "intercept": {}, "slope": "2"}]}',
        ),
        # no equation at all: only the two order atoms name the line x2 = 2*x1
        (
            "!(x2 < 2*x1) & !(2*x1 < x2)",
            '{"exceptional": [], "pieces": [{"domain": {"frontier": [], "pieces": [{"a": "-inf", "b": "+inf", "cosets": [], "polarity": "cofinite"}]}, "intercept": {}, "slope": "2"}]}',
        ),
    ],
)
def test_function_code_lines_named_by_negated_atoms(text, expected):
    assert json.dumps(code_function(parse(text), X, Y).to_json(), sort_keys=True) == expected


def piecewise_text(k):
    """-x1 below 0, then on each (i-1, i) i*x1 on Q and x1 + i off it, then 0 above k-1."""
    middle = [
        f"({i - 1} < x1 & x1 < {i} & (Q(x1) & x2 = {i}*x1 | !Q(x1) & x2 = x1 + {i}))"
        for i in range(1, k)
    ]
    return " | ".join(["(x1 < 0 & x2 = -x1)", *middle, f"({k - 1} < x1 & x2 = 0)"])


def test_piecewise_function_codes_within_time_gate():
    # the leftover points were once found by decomposing the formula
    # domain & !(pieces), a conjunction of disjunctions whose DNF made k=8
    # take about 52 s; reading the line sets' pieces and points builds no formula
    f = parse(piecewise_text(8))
    start = time.perf_counter()
    fc = code_function(f, X, Y)
    elapsed = time.perf_counter() - start
    assert fc.exceptional == () and len(fc.pieces) == 16
    r2 = parse_element("r2")
    assert fc.value_at(r2) == r2 + ModelElement.from_rational(2)
    assert fc.value_at(ModelElement.from_rational(Fraction(13, 2))) == ModelElement.from_rational(Fraction(91, 2))
    assert fc.value_at(ModelElement.from_rational(Fraction(15, 2))) == ModelElement()
    assert fc.value_at(ModelElement.from_rational(3)) is None
    assert elapsed < 2.0, f"code_function k=8 took {elapsed:.1f} s"


def test_json_shape():
    fc = code_function(parse("x2 = x1"), X, Y)
    data = fc.to_json()
    assert data["pieces"][0]["slope"] == "1"
    assert data["exceptional"] == []
    code = code_unary_set(parse("Q(x1)"), X)
    assert code.to_json()["pieces"][0]["polarity"] == "finite"


# ---------------------------------------------------------------------------
# Functionality from the line sets against the universal sentence
# ---------------------------------------------------------------------------


def reference_code_function(f, x, y, assignment=None) -> FunctionCode:
    """code_function before it read functionality off the line sets: decide
    the sentence that no x has two values y, y2 first, then take the domain
    from decompose(E y. graph, x) and sweep it against the line pieces."""
    g = qe(ground(f, {x, y}, assignment), TheoryMode.POVS)
    y2 = fresh_variable(Sort.HOME, free_variables(g) | bound_variables(g) | {x, y})
    both = make_and([g, substitute(g, y, HomeTerm.from_variable(y2))])
    same = home_eq(HomeTerm.from_variable(y) - HomeTerm.from_variable(y2))
    if not decide_sentence(Forall(x, Forall(y, Forall(y2, make_or([make_not(both), same])))), TheoryMode.POVS):
        raise NotFunctionalError("the relation maps some point to two values")
    domain = decompose(Exists(y, g), x)
    lines = coding._line_candidates(g, x, y)
    pieces = []
    for slope, intercept in lines:
        line = HomeTerm.from_variable(x).scale(slope) + HomeTerm.from_element(intercept)
        d = decompose(substitute(g, y, line), x)
        if d.pieces:
            pieces.append(coding.FunctionPiece(slope, intercept, Decomposition((), d.pieces)))

    def uncovered(m):
        held = [p for p in pieces if p.domain.contains(m)]
        if len(held) > 1:
            raise InternalError("function piece domains overlap")
        return not held and domain.contains(m)

    rd = sweep(uncovered, [domain, *(p.domain for p in pieces)])
    if rd.pieces:
        raise InternalError("candidate lines leave an infinite part of the domain uncovered")

    def value(at):
        for slope, intercept in lines:
            candidate = at.scale(slope) + intercept
            if eval_formula(g, {x: at, y: candidate}):
                return candidate
        raise InternalError(f"no candidate line passes through the graph at {at}")

    return FunctionCode(tuple((e, value(e)) for e in rd.points), tuple(pieces))


def coding_outcome(code, f) -> str:
    """The code's JSON with sorted keys, or the exception's type and message."""
    try:
        return json.dumps(code(f, X, Y).to_json(), sort_keys=True)
    except EngineError as e:
        return f"{type(e).__name__}: {e}"


def piecewise_graph(rng: random.Random) -> Formula:
    """A graph like the benchmark's: one line per case of a selector on x1,
    sometimes with a point of its own or a case left out."""
    def line():
        slope = rng.randint(-3, 3)
        intercept = ModelElement({k: rng.randint(-2, 2) for k in (0, 2) if rng.random() < 0.7})
        return home_eq(HomeTerm.from_variable(Y) - HomeTerm.from_variable(X).scale(slope) - HomeTerm.from_element(intercept))

    cut = f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
    selector = parse(rng.choice(["Q(x1)", f"x1 < {cut}", f"pi(x1) = pi({rng.randint(-2, 2)}*r2)", f"Q({rng.randint(1, 3)}*x1 - r2)"]))
    cases = [make_and([selector, line()]), make_and([make_not(selector), line()])]
    if rng.random() < 0.3:
        cases.pop(rng.randrange(2))
    if rng.random() < 0.4:
        cases.append(parse(f"x1 = {cut} & x2 = {rng.randint(-2, 2)}"))
    return make_or(cases)


def test_code_function_agrees_with_the_universal_sentence_on_seeded_relations():
    # piecewise graphs, random relations in x1, x2 and unions of the two
    rng = random.Random(77)
    outcomes = []
    for i in range(3000):
        source = i % 3
        if source == 0:
            f = piecewise_graph(rng)
        else:
            f = random_qf_formula(rng, [X, Y], MODEL, TheoryMode.POVS, depth=rng.randint(1, 2))
            if source == 2:
                f = make_or([f, piecewise_graph(rng)])
        got = coding_outcome(code_function, f)
        assert got == coding_outcome(reference_code_function, f), str(f)
        outcomes.append(got.split(":")[0])
    # both verdicts are well represented, and nothing else is raised
    assert 500 < outcomes.count("NotFunctionalError") < 2500, outcomes.count("NotFunctionalError")
    assert all(o in ("NotFunctionalError", "{\"exceptional\"") for o in outcomes), set(outcomes)


@pytest.mark.parametrize(
    "text",
    [
        # the lines meet at r2, inside the one piece of each line set: the
        # pieces meet, though the two values agree at r2
        "r2 - 1 < x1 & x1 < r2 + 1 & (x2 = x1 | x2 = 2*x1 - r2)",
        # a second value at a point of an open piece
        "(x1 < 1 & x2 = x1) | (x1 = 0 & x2 = 5)",
        # open y-cells of graph points, on no line or on none at all
        "x1 < x2 & x2 < x1 + 1",
        "Q(x2)",
        # the second disjunct holds x2 = x1 only inside a nested |, so it
        # pins nothing, and its other case is an open y-cell
        "(x1 < 0 & x2 = x1) | (0 < x1 & (x2 = x1 | x1 < x2))",
    ],
)
def test_relations_that_are_not_functional(text):
    with pytest.raises(NotFunctionalError, match="the relation maps some point to two values"):
        code_function(parse(text), X, Y)
    assert coding_outcome(reference_code_function, parse(text)).startswith("NotFunctionalError")


def test_lines_that_meet_at_a_graph_point_leave_it_exceptional():
    f = parse("(x1 < 1 & x2 = x1) | (x1 > 1 & x2 = 2 - x1) | (x1 = 1 & x2 = 1)")
    fc = code_function(f, X, Y)
    one = ModelElement.from_rational(1)
    assert fc.exceptional == ((one, one),)
    assert [(p.slope, str(p.domain)) for p in fc.pieces] == [(-1, "(1, +inf) all cosets"), (1, "(-inf, 1) all cosets")]
    assert coding_outcome(code_function, f) == coding_outcome(reference_code_function, f)


def test_an_empty_relation_has_the_empty_code():
    fc = code_function(parse("Q(x2) & x1 < x1"), X, Y)
    assert fc.exceptional == () and fc.pieces == ()


# ---------------------------------------------------------------------------
# Check (a) read off the pinned disjuncts
# ---------------------------------------------------------------------------


def spy_sentences(monkeypatch) -> list:
    """The sentences code_function hands to decide_sentence from now on."""
    sentences = []
    decide = coding.decide_sentence
    monkeypatch.setattr(coding, "decide_sentence", lambda f, mode: sentences.append(f) or decide(f, mode))
    return sentences


def off_every_line(g: Formula, lines) -> Formula:
    """E x1. E x2. g & AND_i x2 != L_i(x1)."""
    x, y = HomeTerm.from_variable(X), HomeTerm.from_variable(Y)
    off = [make_not(home_eq(y - x.scale(a) - HomeTerm.from_element(b))) for a, b in lines]
    return Exists(X, Exists(Y, make_and([g, *off])))


@pytest.mark.parametrize("text", ["x2 = 2*x1", "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)"])
def test_a_graph_whose_every_disjunct_is_pinned_builds_no_sentence(monkeypatch, text):
    sentences = spy_sentences(monkeypatch)
    code_function(parse(text), X, Y)
    assert sentences == []


def test_a_pinned_disjunct_is_matched_by_its_line_term_whatever_the_scaling(monkeypatch):
    # the first two equations keep x1 as their lead and scale x2 (x1 - 1/2*x2 + 1/2),
    # the last leads with x2, yet each solves x2 for a listed line term, so every
    # disjunct is pinned
    sentences = spy_sentences(monkeypatch)
    f = parse("(x1 < 0 & 2*x2 = 4*x1 + 2) | (0 < x1 & 3*x2 = 3*x1 + 3) | (x1 = 0 & x2 = 1)")
    fc = code_function(f, X, Y)
    assert sentences == []
    assert fc.to_json()["exceptional"] == [[{}, {"0": "1"}]]
    assert sorted(p.slope for p in fc.pieces) == [1, 2]
    assert {p.intercept for p in fc.pieces} == {ModelElement.from_rational(1)}
    assert coding_outcome(code_function, f) == coding_outcome(reference_code_function, f)


def test_the_sentence_holds_only_the_disjuncts_that_are_not_pinned(monkeypatch):
    # the second disjunct puts x2 on a line only inside its nested |
    sentences = spy_sentences(monkeypatch)
    text = "(x1 < 0 & x2 = x1) | (0 < x1 & (Q(x1) & x2 = x1 | !Q(x1) & x2 = 2*x1))"
    code_function(parse(text), X, Y)
    g = qe(parse(text), TheoryMode.POVS)
    second = g.children[1]
    assert sentences == [off_every_line(second, coding._line_candidates(g, X, Y))]


def pinned_graph(rng: random.Random) -> Formula:
    """A graph like the benchmark's function formulas, with one to three
    lines, each case a selector on x1 (or its negation) and an equation
    putting x2 on the case's line."""
    def line():
        slope = rng.randint(-3, 3)
        intercept = ModelElement({k: rng.randint(-2, 2) for k in (0, 2) if rng.random() < 0.7})
        return home_eq(HomeTerm.from_variable(Y) - HomeTerm.from_variable(X).scale(slope) - HomeTerm.from_element(intercept))

    def selector():
        cut = f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
        return parse(rng.choice(["Q(x1)", f"x1 < {cut}", f"pi(x1) = pi({rng.randint(-2, 2)}*r2)"]))

    n = rng.randint(1, 3)
    if n == 1:
        return line()
    s = selector()
    if n == 2:
        return make_or([make_and([s, line()]), make_and([make_not(s), line()])])
    t = selector()
    return make_or([
        make_and([s, line()]),
        make_and([make_not(s), t, line()]),
        make_and([make_not(s), make_not(t), line()]),
    ])


def test_no_point_of_a_pinned_graph_lies_off_every_line():
    # code_function builds no sentence for such graphs; the one it would build is false
    rng = random.Random(3939)
    for _ in range(2000):
        g = qe(pinned_graph(rng), TheoryMode.POVS)
        sentence = off_every_line(g, coding._line_candidates(g, X, Y))
        assert not decide_sentence(sentence, TheoryMode.POVS), str(g)
