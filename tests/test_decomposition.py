"""Decomposition: canonical form, partition correctness, smallness,
near-interior, and the ultrafilter behaviour of invariant sets."""

import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import count

import pytest

from densepairs import model
from densepairs.coding import code_function, set_code_json
from densepairs.decomposition import (
    CosetSet,
    Decomposition,
    Endpoint,
    NearInterval,
    _sweep,
    decompose,
    generic_type_contains,
    is_small,
    sign_table,
)
from densepairs.errors import ArityError, InternalError, ModeError, NotGroundError
from densepairs.evaluate import atoms, eval_formula
from densepairs.formulas import (
    AtomKind,
    Exists,
    Formula,
    TheoryMode,
    all_atoms,
    bound_variables,
    dnf_clauses,
    free_variables,
    fresh_variable,
    ground,
    literal_parts,
    make_and,
    make_not,
    make_or,
    substitute,
    substitute_atom,
)
from densepairs.measure import bucket_index, bucket_partition, measure
from densepairs.model import (
    Model,
    ModelElement,
    QuotientElement,
    compare,
    project,
    rational_between,
    section,
)
from densepairs.parser import parse, parse_element, parse_quotient_element
from densepairs.qe import qe
from densepairs.randgen import random_assignment, random_qf_formula, random_quotient_element
from densepairs.terms import HomeTerm, QuotientTerm, Sort, hvar, qvar

from reference_sweep import _sample_inside, sweep

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
            CosetSet(True, frozenset()),
        ),
    )
    assert not is_small(d)


def test_point_union_coset_complement_merges_across_the_point():
    d = decompose(parse("x1 = 1 | (!Q(x1) & x1 > 0)"), X)
    assert d.points == (ModelElement.from_rational(1),)
    assert len(d.pieces) == 1
    piece = d.pieces[0]
    assert piece.lo == Endpoint.at(ModelElement()) and not piece.hi.is_finite()
    assert piece.cosets == CosetSet(True, frozenset([QuotientElement()]))


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
    assert full.pieces[0].cosets == CosetSet(True, frozenset())


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
    randoms = [random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=3) for _ in range(40)]
    # each fixed set needs a merge across an endpoint, except the hole at 1
    fixed = ["!Q(x1) & x1 != 1", "x1 < r2 | x1 > r2 | x1 = r2", "Q(x1) & x1 != r2", "x1 != 1"]
    for f in [parse(text) for text in fixed] + randoms:
        d = decompose(f, X)
        for a, b in zip(d.points, d.points[1:]):
            assert compare(a, b) < 0
        for p in d.pieces:
            assert p.lo.compare(p.hi) < 0
            assert not p.cosets.is_empty()
        for p, q in zip(d.pieces, d.pieces[1:]):
            assert p.hi.compare(q.lo) <= 0
            # canonical: neighbours meeting at e differ, or e is a hole of their pattern
            if p.hi == q.lo:
                e = p.hi.value
                hole = p.cosets.contains(project(e)) and not d.contains(e)
                assert p.cosets != q.cosets or hole


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


def test_sweep_of_memberships_is_the_decomposition_of_the_formula():
    # and, or and not of two decompositions swept from their landmarks
    # alone, against decompose of the same connective on the formulas
    rng = random.Random(1919)
    for _ in range(150):
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        g = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=2)
        df, dg = decompose(f, X), decompose(g, X)
        both = sweep(lambda m: df.contains(m) and dg.contains(m), [df, dg])
        either = sweep(lambda m: df.contains(m) or dg.contains(m), [df, dg])
        assert both == decompose(make_and([f, g]), X), f"{f}  &  {g}"
        assert either == decompose(make_or([f, g]), X), f"{f}  |  {g}"
        assert sweep(lambda m: not df.contains(m), [df]) == decompose(make_not(f), X), str(f)


def test_coset_set_intersection():
    a, b, c = (QuotientElement({k: Fraction(1)}) for k in (2, 3, 5))
    finite, cofinite = CosetSet(False, frozenset([a, b])), CosetSet(True, frozenset([b, c]))
    assert coset_intersection(finite, CosetSet(False, frozenset([b, c]))) == CosetSet(False, frozenset([b]))
    assert coset_intersection(finite, cofinite) == CosetSet(False, frozenset([a]))
    assert coset_intersection(cofinite, finite) == CosetSet(False, frozenset([a]))
    assert coset_intersection(cofinite, CosetSet(True, frozenset([a]))) == CosetSet(True, frozenset([a, b, c]))


def piece(lo, hi, cofinite, *members):
    """The near-interval (lo, hi) on a coset set; None is an infinite end."""
    ends = [Endpoint.neg_inf() if lo is None else Endpoint.at(parse_element(lo)),
            Endpoint.pos_inf() if hi is None else Endpoint.at(parse_element(hi))]
    return NearInterval(*ends, CosetSet(cofinite, frozenset(parse_quotient_element(w) for w in members)))


@pytest.mark.parametrize(
    "p,q,meet",
    [
        # finite and finite: they meet when they list a common coset
        (piece("0", "2", False, "0", "pi(r2)"), piece("1", "3", False, "pi(r2)"), True),
        (piece("0", "2", False, "0"), piece("1", "3", False, "pi(r2)", "pi(r3)"), False),
        # finite and cofinite: when a listed coset is not excluded
        (piece("0", "2", False, "pi(r2)"), piece(None, "1", True, "pi(r3)"), True),
        (piece("0", "2", False, "pi(r2)"), piece(None, "1", True, "pi(r2)", "0"), False),
        (piece("0", "2", False, "pi(r2)", "0"), piece("1", None, True, "pi(r2)"), True),
        # cofinite and cofinite: always, when the intervals overlap
        (piece("0", "2", True, "0"), piece("1", "3", True, "pi(r2)"), True),
        (piece(None, None, True, "0", "pi(r2)"), piece("r2", "r3", True, "0", "pi(r2)"), True),
        # intervals that do not overlap, or touch at a shared endpoint
        (piece("0", "1", True), piece("2", "3", True), False),
        (piece("0", "1", True), piece("1", "3", True), False),
        (piece(None, "r2", False, "pi(r2)"), piece("r2", None, False, "pi(r2)"), False),
    ],
)
def test_pieces_meet_when_their_intervals_overlap_and_they_share_a_coset(p, q, meet):
    assert p.meets(q) == q.meets(p) == meet


def test_the_meet_test_agrees_with_the_sweep_of_both_memberships():
    # a piece pair meets exactly when the points both hold make up a piece;
    # the pieces come from formulas with many endpoints and named cosets
    rng = random.Random(2424)
    pieces = []
    while len(pieces) < 400:
        sigma = random_assignment(rng, [hvar(2), qvar(1)], MODEL)
        pieces.extend(decompose(dnf_heavy_formula(rng), X, sigma).pieces)
    meets, touching = [], 0
    for _ in range(2000):
        p, q = rng.sample(pieces, 2)
        dp, dq = Decomposition((), (p,)), Decomposition((), (q,))
        both = sweep(lambda m: dp.contains(m) and dq.contains(m), [dp, dq])
        assert p.meets(q) == bool(both.pieces), (str(p), str(q))
        meets.append(p.meets(q))
        touching += p.hi == q.lo or q.hi == p.lo
    assert 500 < meets.count(True) < 1500 and touching > 50, (meets.count(True), touching)


def test_near_interior_examples():
    # the near-interior is the pieces and the near-frontier the points
    d = decompose(parse("Q(x1)"), X)
    assert d.points == () and len(d.pieces) == 1

    d2 = decompose(parse("x1 = 0"), X)
    assert d2.pieces == () and d2.points == (ModelElement(),)

    d3 = decompose(parse("Q(x1) | x1 = r2"), X)
    assert d3.points == (parse_element("r2"),)
    assert len(d3.pieces) == 1
    assert d3.pieces[0].cosets == CosetSet(False, frozenset([QuotientElement()]))


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


def test_atoms_that_fold_only_after_grounding_or_substitution():
    # decompose reads every atom of the eliminated formula as one that
    # mentions its variable; these atoms become ground only once an
    # assignment or a line is put in, and must fold away before that read
    r2 = parse_element("r2")
    cases = [
        ("x1 < x2 | Q(x2)", r2, "(-inf, r2) all cosets"),
        ("Q(x2) & x1 < 0", ModelElement.from_rational(Fraction(1, 2)), "(-inf, 0) all cosets"),
        ("x1 < x2 & Q(x1 - x2) | x1 = x2", r2, "points: r2\n(-inf, r2) in cosets {pi(r2)}"),
    ]
    for text, value, expected in cases:
        assert str(decompose(parse(text), X, {hvar(2): value})) == expected
    fc = code_function(parse("x2 = x1 & x1 < x2 + 1"), X, hvar(2))
    assert fc.exceptional == ()
    [piece] = fc.pieces
    assert piece.slope == 1 and piece.intercept.to_json() == {}
    assert str(piece.domain) == "(-inf, +inf) all cosets"


def test_eliminated_ground_formulas_keep_only_atoms_on_the_variable():
    rng = random.Random(5151)
    variables = [X, hvar(2), qvar(1)]
    for _ in range(60):
        f = random_qf_formula(rng, variables, MODEL, TheoryMode.POVS, depth=2)
        g = qe(ground(f, {X}, random_assignment(rng, variables[1:], MODEL)), TheoryMode.POVS)
        assert all(atom.payload.coeff(X) != 0 for atom in all_atoms(g)), str(g)
    # a quotient variable: every atom left is an equation naming one coset
    # for it, which is what `generic_type_contains` reads at a generic coset
    u, x3 = qvar(1), hvar(3)
    variables = [u, hvar(2), qvar(2), x3]
    for i in range(60):
        f = random_qf_formula(rng, variables, MODEL, TheoryMode.POVS, depth=2)
        f = Exists(x3, f) if i % 2 else f
        g = qe(ground(f, {u}, random_assignment(rng, variables[1:], MODEL)), TheoryMode.POVS)
        assert all(
            atom.kind is AtomKind.QUOT_EQ and atom.payload.coeff(u) != 0 for atom in all_atoms(g)
        ), str(g)


# Function graphs whose codes the unary-set corpus pins: pieces on coset
# patterns, exceptional points, and equations that only fold after grounding.
CORPUS_GRAPHS = [
    "x2 = x1",
    "x2 = 3*x1 - r2",
    "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)",
    "(x1 < 0 & x2 = -x1) | (x1 >= 0 & x2 = x1)",
    "(0 < x1 & x1 < 1 & x2 = 3*x1 + 1) | (x1 = 2 & x2 = 0)",
    "(Q(x1 - r2) & x2 = x1) | (!Q(x1 - r2) & x2 = 0)",
    "(pi(x1) = pi(r3) & x2 = x1 + r2) | (pi(x1) != pi(r3) & x2 = -x1)",
    "(x1 = r2 & x2 = 1) | (x1 = 3 & x2 = r3)",
    "x2 = x1 & x1 < x2 + 1",
    "(x1 < r2 & Q(2*x1) & x2 = x1) | (x1 >= r2 & x2 = 1/2) | (x1 < r2 & !Q(x1) & x2 = 0)",
]


def unary_corpus_text(seed=1414, formulas=180, quotient_formulas=90):
    """One line per output on a seeded corpus of unary sets: for each
    formula its decomposition as text and JSON, its measure, its
    smallness and its set code; then generic-type verdicts on quotient
    formulas and the codes of CORPUS_GRAPHS."""
    rng = random.Random(seed)
    lines = []
    for i in range(formulas):
        f = random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=3)
        d = decompose(f, X)
        lines.append(f"{i} decompose {str(d).replace(chr(10), ' ; ')}")
        lines.append(f"{i} json {json.dumps(d.to_json(), sort_keys=True)}")
        lines.append(f"{i} measure {measure(f, X)}")
        lines.append(f"{i} small {is_small(d)}")
        lines.append(f"{i} code {json.dumps(set_code_json(d), sort_keys=True)}")
    for i in range(quotient_formulas):
        g = random_qf_formula(rng, [qvar(1)], MODEL, TheoryMode.POVS, depth=2)
        lines.append(f"{i} generic {generic_type_contains(g, qvar(1))}")
    for text in CORPUS_GRAPHS:
        code = code_function(parse(text), X, hvar(2))
        lines.append(f"{text} code-fn {json.dumps(code.to_json(), sort_keys=True)}")
    return "\n".join(lines) + "\n"


# Recorded at the commit before decompose read each clause into one coset set.
GOLDEN_UNARY_CORPUS_SHA256 = "7d901e1e0ecb2590a9ed8e49fe7e35a20d058cc2fd8fd2dbc8a101aac34b4312"


def test_golden_unary_corpus():
    text = unary_corpus_text()
    assert text.count("\n") == 1000
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_UNARY_CORPUS_SHA256


# ---------------------------------------------------------------------------
# The coset sweep against the clause-reading reference
# ---------------------------------------------------------------------------


def coset_intersection(a: CosetSet, b: CosetSet) -> CosetSet:
    """a & b."""
    if a.cofinite and b.cofinite:
        return CosetSet(True, a.members | b.members)
    if not a.cofinite and not b.cofinite:
        return CosetSet(False, a.members & b.members)
    fin, cof = (a, b) if b.cofinite else (b, a)
    return CosetSet(False, fin.members - cof.members)


def coset_union(a: CosetSet, b: CosetSet) -> CosetSet:
    """a | b, as the complement of the intersection of the complements."""
    out = coset_intersection(CosetSet(not a.cofinite, a.members), CosetSet(not b.cofinite, b.members))
    return CosetSet(not out.cofinite, out.members)


def reference_decompose(f, v, assignment=None) -> Decomposition:
    """decompose before the coset sweep: read each DNF clause of the
    eliminated formula into its order literals and one coset set, and take
    a cell's pattern as the union of the coset sets of the clauses whose
    order literals hold at a rational inside the cell."""
    g = qe(ground(f, {v}, assignment), TheoryMode.POVS)
    endpoints = set()
    clauses = []
    for clause in dnf_clauses(g):
        order_lits = []
        cosets = CosetSet(True, frozenset())
        for lit in clause:
            atom, positive = literal_parts(lit)
            point = atom.payload.root(v).constant
            if atom.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT):
                order_lits.append(lit)
                endpoints.add(point)
            else:
                w = project(point) if atom.kind is AtomKind.IN_Q else point
                cosets = coset_intersection(cosets, CosetSet(not positive, frozenset([w])))
        clauses.append((order_lits, cosets))

    points, pieces = [], []
    last = CosetSet.none()
    bounds = [Endpoint.neg_inf(), *map(Endpoint.at, sorted(endpoints)), Endpoint.pos_inf()]
    for lo, hi in zip(bounds, bounds[1:]):
        at_sample = {v: _sample_inside(lo, hi, QuotientElement())}
        pattern = CosetSet.none()
        for order_lits, cosets in clauses:
            if all(eval_formula(lit, at_sample) for lit in order_lits):
                pattern = coset_union(pattern, cosets)
        merge = not pattern.is_empty() and pattern == last
        if lo.is_finite():
            e = lo.value
            in_set = eval_formula(g, {v: e})
            claimed = merge and pattern.contains(project(e))
            if claimed and not in_set:
                merge = False
            elif in_set and not claimed:
                points.append(e)
        if merge:
            pieces[-1] = NearInterval(pieces[-1].lo, hi, pattern)
        elif not pattern.is_empty():
            pieces.append(NearInterval(lo, hi, pattern))
        last = pattern
    return Decomposition(tuple(points), tuple(pieces))


def _window_measure(d: Decomposition) -> ModelElement:
    """measure before it read cell lengths off the sign table: the length of
    the cofinite pieces of the decomposition of the set in the unit window."""
    total = ModelElement()
    for piece in d.pieces:
        if piece.cosets.cofinite:
            if not (piece.lo.is_finite() and piece.hi.is_finite()):
                raise InternalError("unbounded piece inside the unit window")
            total = total + (piece.hi.value - piece.lo.value)
    return total


UNIT_WINDOW = parse("0 < x1 & x1 < 1")


def reference_measure(f, v, assignment=None) -> ModelElement:
    return _window_measure(reference_decompose(make_and([f, UNIT_WINDOW]), v, assignment))


def reference_domain(f, x, y) -> Decomposition:
    """code_function's domain before it was read off the line sets."""
    return reference_decompose(Exists(y, qe(f, TheoryMode.POVS)), x)


def coded_domain(code) -> Decomposition:
    """The domain of a function code, its pieces' domains and its exceptional
    points, as one decomposition."""
    parts = [p.domain for p in code.pieces] + [Decomposition((a,), ()) for a, _ in code.exceptional]
    return sweep(lambda m: any(d.contains(m) for d in parts), parts)


def test_sweep_agrees_with_the_reference_on_the_golden_corpus(monkeypatch):
    # every decompose the corpus runs (its sets), every measure, every
    # generic-type verdict and every function code it runs, with the line
    # sets of each code: the sign tables that coding reads a line into
    recorded = {"decompose": [], "measure": [], "generic_type_contains": [], "code_function": [], "sign_table": []}
    for module in (__name__, "densepairs.decomposition", "densepairs.coding", "densepairs.measure"):
        for name, calls in recorded.items():
            if real := getattr(sys.modules[module], name, None):
                recording = lambda *args, real=real, calls=calls: calls.append(args) or real(*args)
                monkeypatch.setattr(sys.modules[module], name, recording)
    unary_corpus_text()
    monkeypatch.undo()
    decomposes, measures, generics, codes, tables = recorded.values()
    line_sets = [args for args in tables if len(args) == 3]  # the tables read with a line
    counts = (len(decomposes), len(measures), len(codes), len(line_sets), len(generics))
    assert counts == (180, 180, 10, 19, 90)  # 479 cases
    for f, v, *assignment in decomposes:
        assert decompose(f, v, *assignment) == reference_decompose(f, v, *assignment), str(f)
    for f, v, *assignment in measures:
        assert measure(f, v, *assignment).value == reference_measure(f, v, *assignment), str(f)
    for f, x, y in codes:
        assert coded_domain(code_function(f, x, y)) == reference_domain(f, x, y), str(f)
    for g, x, atom_map in line_sets:
        y, t = atom_map.keywords["v"], atom_map.keywords["t"]
        line_set = _sweep(*sign_table(g, x, atom_map)({}))
        assert line_set == reference_decompose(substitute(g, y, t), x), f"{g} on y = {t}"
    for f, v, *assignment in generics:
        x = fresh_variable(Sort.HOME, free_variables(f) | bound_variables(f))
        pullback = substitute(f, v, QuotientTerm.project_term(HomeTerm.from_variable(x)))
        large = not is_small(reference_decompose(pullback, x, *assignment))
        assert generic_type_contains(f, v, *assignment) == large, str(f)


DNF_HEAVY_CONSTANTS = ["0", "1", "1/2", "r2", "2*r2", "r3", "1 - r2", "r2 + r3", "1/2*r3"]
DNF_HEAVY_SCALES = ["", "2*", "1/2*"]


def dnf_heavy_formula(rng: random.Random):
    """A conjunction of 2-5 disjunctions of 2-3 order and coset literals in
    x1, some against the parameters x2 and u1."""

    def literal():
        a, c = rng.choice(DNF_HEAVY_SCALES), rng.choice(DNF_HEAVY_CONSTANTS)
        atom = rng.choice(
            [
                f"x1 < {c}",
                f"{c} < x1",
                f"x1 = {c}",
                f"Q({a}x1 - {c})",
                f"pi({a}x1) = pi({c})",
                "x1 < x2",
                "Q(x1 - x2)",
                "pi(x1) = u1",
            ]
        )
        return f"!({atom})" if rng.random() < 0.3 else atom

    disjunctions = [
        "(" + " | ".join(literal() for _ in range(rng.randint(2, 3))) + ")"
        for _ in range(rng.randint(2, 5))
    ]
    return parse(" & ".join(disjunctions))


def test_sweep_agrees_with_the_reference_on_dnf_heavy_formulas():
    rng = random.Random(1717)
    for _ in range(150):
        f = dnf_heavy_formula(rng)
        sigma = random_assignment(rng, [hvar(2), qvar(1)], MODEL)
        assert decompose(f, X, sigma) == reference_decompose(f, X, sigma), str(f)


# Outputs recorded at the commit before the coset sweep.
@pytest.mark.parametrize(
    "text,expected",
    [
        ("0 < x1 & x1 < 1 & !Q(x1 - r2) & !Q(x1 - 2*r2)", "(0, 1) outside cosets {pi(r2), pi(2*r2)}"),
        ("x1 < 0 | Q(x1 - r2) | Q(x1 - 2*r2)", "(-inf, 0) all cosets\n(0, +inf) in cosets {pi(r2), pi(2*r2)}"),
    ],
)
def test_outside_sample_steps_past_the_named_cosets(text, expected):
    # the outside sample is taken in the first coset of r2, 2*r2, ... that
    # no atom names: here pi(3*r2)
    d = decompose(parse(text), X)
    assert str(d) == expected
    assert d == reference_decompose(parse(text), X)


def k_family_text(k):
    """AND_{i<=k} (x1 < i | Q(x1 - i*r2)): all of (-inf, 1), then pi(r2) on (1, 2)."""
    return " & ".join(f"(x1 < {i} | Q(x1 - {i}*r2))" for i in range(1, k + 1))


def test_decompose_builds_no_dnf_and_meets_its_time_gate(monkeypatch):
    # reading the DNF of k=14 disjunctions took about 52 s
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("densepairs") and hasattr(module, "dnf_clauses"):
            dnf = module.dnf_clauses
            monkeypatch.setattr(module, "dnf_clauses", lambda g, dnf=dnf: calls.append(g) or dnf(g))
    f = parse(k_family_text(14))
    start = time.perf_counter()
    d = decompose(f, X)
    elapsed = time.perf_counter() - start
    assert calls == []
    assert str(d) == "(-inf, 1) all cosets\n(1, 2) in cosets {pi(r2)}"
    assert elapsed < 1.0, f"decompose k=14 took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# The reading's truth table against the point-sampling reading
# ---------------------------------------------------------------------------


def reading(g, v):
    """The decomposer of a quantifier-free g in the home variable v: it maps
    an assignment of g's other free variables to the sweep of its sign table."""
    table = sign_table(g, v)
    return lambda assignment: _sweep(*table(assignment))


def reference_reading(g, v):
    """The sign-table reading before it read atom truths from root ranks:
    the sweep evaluates g at the endpoints and, in each cell, at a sample
    point in each named coset and in the first coset of r2, 2*r2, ... that
    no atom names."""
    landmarks = []  # (root, whether it is an endpoint, whether it is projected)
    for atom in atoms(g):
        if atom.payload.coeff(v):
            order = atom.kind in (AtomKind.HOME_EQ, AtomKind.HOME_LT)
            landmarks.append((atom.payload.root(v), order, atom.kind is AtomKind.IN_Q))

    def read(assignment):
        endpoints, named = set(), set()
        for root, order, under_pi in landmarks:
            point = root.constant if root.is_ground() else root.evaluate(assignment)
            if order:
                endpoints.add(point)
            else:
                named.add(project(point) if under_pi else point)
        at = dict(assignment)

        def holds(m):
            at[v] = m
            return eval_formula(g, at)

        outside = next(w for k in count(1) if (w := QuotientElement({2: k})) not in named)
        points, pieces = [], []
        last = CosetSet.none()
        bounds = [Endpoint.neg_inf(), *map(Endpoint.at, sorted(endpoints)), Endpoint.pos_inf()]
        for lo, hi in zip(bounds, bounds[1:]):
            cofinite = holds(_sample_inside(lo, hi, outside))
            pattern = CosetSet(
                cofinite,
                frozenset(w for w in named if holds(_sample_inside(lo, hi, w)) != cofinite),
            )
            merge = not pattern.is_empty() and pattern == last
            if lo.is_finite():
                e = lo.value
                in_set = holds(e)
                claimed = merge and pattern.contains(project(e))
                if claimed and not in_set:
                    merge = False
                elif in_set and not claimed:
                    points.append(e)
            if merge:
                pieces[-1] = NearInterval(pieces[-1].lo, hi, pattern)
            elif not pattern.is_empty():
                pieces.append(NearInterval(lo, hi, pattern))
            last = pattern
        return Decomposition(tuple(points), tuple(pieces))

    return read


def dumped(d: Decomposition) -> str:
    return json.dumps(d.to_json(), sort_keys=True)


def test_reading_agrees_with_the_point_sampling_reading_on_seeded_families():
    # families in x1 with parameters x2, x3 and u1, eliminated once and read
    # under several tuples; x3 = x2 in some tuples, so that roots coincide
    rng = random.Random(2323)
    params = [hvar(2), hvar(3), qvar(1)]
    pairs = 0
    for _ in range(1000):
        depth = rng.randint(1, 3)
        g = qe(random_qf_formula(rng, [X, *params], MODEL, TheoryMode.POVS, depth), TheoryMode.POVS)
        read, reference = reading(g, X), reference_reading(g, X)
        for _ in range(5):
            assignment = random_assignment(rng, params, MODEL)
            if rng.random() < 0.3:
                assignment[hvar(3)] = assignment[hvar(2)]
            assert dumped(read(assignment)) == dumped(reference(assignment)), (str(g), assignment)
            pairs += 1
    assert pairs == 5000


@pytest.mark.parametrize(
    "text,assignment,expected",
    [
        # a negative coefficient on x1, as written and as stored
        ("1 - x1 > 0", {}, "(-inf, 1) all cosets"),
        ("x1 > 1", {}, "(1, +inf) all cosets"),
        ("2 - 2*x1 < x2", {"x2": "1"}, "(1/2, +inf) all cosets"),
        # two atoms with one root, which is one endpoint
        ("x1 < 1 & !(x1 = 1)", {}, "(-inf, 1) all cosets"),
        ("x1 < 1 | x1 = 1 | x1 > 1", {}, "(-inf, +inf) all cosets"),
        ("x1 < x2 | x1 = x3", {"x2": "r2", "x3": "r2"}, "points: r2\n(-inf, r2) all cosets"),
        # a named coset that holds an endpoint
        ("x1 = r2 | Q(x1 - r2)", {}, "(-inf, +inf) in cosets {pi(r2)}"),
        ("!(x1 = r2) & Q(x1 - r2)", {}, "(-inf, r2) in cosets {pi(r2)}\n(r2, +inf) in cosets {pi(r2)}"),
        ("x1 < x2 & pi(x1) != u1", {"x2": "r2", "u1": "r2"}, "(-inf, r2) outside cosets {pi(r2)}"),
        # Q(x2) is decided by the tuple
        ("(Q(x2) & x1 < 1/2) | x1 = x2", {"x2": "1/4"}, "(-inf, 1/2) all cosets"),
        ("(Q(x2) & x1 < 1/2) | x1 = x2", {"x2": "r2"}, "points: r2"),
        # a repeated atom
        ("(x1 < 1 | Q(x1)) & (x1 < 1 | x1 > 2)", {}, "(-inf, 1) all cosets\n(2, +inf) in cosets {0}"),
        ("(x1 < x2 & Q(x1)) | (Q(x1) & x1 = x2)", {"x2": "1"}, "points: 1\n(-inf, 1) in cosets {0}"),
    ],
)
def test_reading_pinned_cases(text, assignment, expected):
    f = parse(text)
    sigma = {parse_variable(name): parse_value(name, value) for name, value in assignment.items()}
    got = reading(f, X)(sigma)
    assert str(got) == expected
    assert got == reference_reading(f, X)(sigma)
    g = qe(f, TheoryMode.POVS)
    assert reading(g, X)(sigma) == reference_reading(g, X)(sigma) == got


def parse_variable(name):
    return (hvar if name[0] == "x" else qvar)(int(name[1:]))


def parse_value(name, text):
    value = parse_element(text)
    return value if name[0] == "x" else project(value)


def test_a_built_table_is_read_without_comparing_formulas(monkeypatch):
    # the plan lists each distinct atom as one object, however often it
    # occurs; the table is keyed by those objects, so reading it runs no
    # Formula.__eq__
    g = parse("(x1 < x2 | Q(x1)) & (x1 < x2 | 2 < x1) & (Q(x1) | x1 = x2)")
    plan = atoms(g)
    assert len(plan) == 6 and len(set(plan)) == 4 and len(set(map(id, plan))) == 4
    sigmas = [{hvar(2): parse_element(value)} for value in ("1", "3", "r2")]
    expected = [reference_reading(g, X)(sigma) for sigma in sigmas]
    table = sign_table(g, X)
    calls = []
    eq = Formula.__eq__
    monkeypatch.setattr(Formula, "__eq__", lambda self, other: calls.append(self) or eq(self, other))
    got = [_sweep(*table(sigma)) for sigma in sigmas]
    assert calls == []
    assert got == expected
    assert str(got[0]) == "(-inf, 1) in cosets {0}\n(2, +inf) in cosets {0}"


def test_sign_tables_of_one_plan_are_built_and_read_without_comparing_formulas(monkeypatch):
    # as code_function reads g: once as it stands and once per line put in for
    # x2.  The atoms repeat, and x1 < 1 and x1 < 2 differ only in a -1 against
    # a -2, whose hashes CPython makes equal: a table keyed by atoms would
    # compare formulas on building it, and again on reading it
    y = hvar(2)
    g = parse("(x1 < 1 | x2 = x1) & (x1 < 2 | x2 = 2*x1) & (x1 < 1 | Q(x1)) & (x1 < 2 | !(x2 = x1))")
    lines = [HomeTerm({X: 1}), HomeTerm({X: 2})]
    sigma = {y: parse_element("3/2")}
    expected = [decompose(g, X, sigma)] + [decompose(substitute(g, y, t), X) for t in lines]
    plan = atoms(g)
    assert len(plan) == 8 and len(set(map(id, plan))) == 5
    calls = []
    eq = Formula.__eq__
    monkeypatch.setattr(Formula, "__eq__", lambda self, other: calls.append(self) or eq(self, other))
    got = [_sweep(*sign_table(g, X)(sigma))]
    got += [_sweep(*sign_table(g, X, partial(substitute_atom, v=y, t=t))({})) for t in lines]
    assert calls == []
    assert got == expected


def test_the_pinned_cases_have_the_shapes_they_pin():
    # 1 - x1 > 0 is stored as x1 - 1 < 0, x1 > 1 as -x1 + 1 < 0
    assert [a.payload.coeff(X) for a in atoms(parse("1 - x1 > 0 | x1 > 1"))] == [1, -1]
    assert len({a.payload.root(X) for a in atoms(parse("x1 < 1 & !(x1 = 1)"))}) == 1
    listed = atoms(parse("(x1 < 1 | Q(x1)) & (x1 < 1 | x1 > 2)"))
    assert len(listed) == 4 and len(set(listed)) == 3


def test_bucket_partition_decides_a_parameter_atom_per_tuple():
    f = parse("(Q(x2) & x1 < 1/2) | x1 = x2")
    params = [{hvar(2): parse_element(text)} for text in ("1/4", "r2", "-1/3")]
    report = bucket_partition(f, X, params, 4)
    assert [str(e.value) for e in report.entries] == ["1/2", "0", "1/2"]
    assert [e.bucket for e in report.entries] == [2, 1, 2]


def test_the_reading_builds_no_sample_point(monkeypatch):
    # the parent's answers on the golden corpus's sets and the codes of its
    # graphs, with every way of building a sample point refused
    rng = random.Random(1414)
    sets = [random_qf_formula(rng, [X], MODEL, TheoryMode.POVS, depth=3) for _ in range(180)]
    window = parse("0 < x1 & x1 < 1")
    want = []
    for f in sets:
        length = sum(
            (p.hi.value - p.lo.value for p in reference_decompose(make_and([f, window]), X).pieces if p.cosets.cofinite),
            ModelElement(),
        )
        want.append((reference_decompose(f, X), length))
    graphs = [parse(text) for text in CORPUS_GRAPHS]
    codes = [code_function(g, X, hvar(2)) for g in graphs]

    def refuse(*args):
        raise AssertionError("a sample point was built")

    for name in ("rational_between", "rational_above", "rational_below"):
        monkeypatch.setattr(model, name, refuse)
    monkeypatch.setattr(model.ModelElement, "enclosure", refuse)
    for f, (d, length) in zip(sets, want):
        assert decompose(f, X) == d, str(f)
        assert measure(f, X).value == length, str(f)
        [entry] = bucket_partition(f, X, [{}], 10).entries
        assert entry.value == length, str(f)
    for g, code in zip(graphs, codes):
        assert code_function(g, X, hvar(2)) == code, str(g)


def test_measures_and_bucket_reports_agree_with_the_reference_on_seeded_families():
    # families in x1 with parameters x2, x3 and u1, some cut to the interval
    # (x2, x3); x2 and x3 lie near the unit window, mostly at irrational
    # values, and coincide in some tuples, so that endpoints coincide
    rng = random.Random(31)
    params = [hvar(2), hvar(3), qvar(1)]
    interval = parse("x2 < x1 & x1 < x3")

    def near_the_window():
        return ModelElement({0: Fraction(rng.randint(-1, 9), 8), 2: Fraction(rng.randint(-1, 1), rng.randint(4, 9)),
                             3: Fraction(rng.randint(-1, 1), rng.randint(4, 9))})

    def tuple_of_parameters():
        x2 = near_the_window()
        x3 = x2 if rng.random() < 0.2 else near_the_window()
        return {hvar(2): x2, hvar(3): x3, qvar(1): random_quotient_element(rng, MODEL)}

    values = []
    for i in range(2000):
        f = random_qf_formula(rng, [X, *params], MODEL, TheoryMode.POVS, rng.randint(1, 3))
        f = [f, make_and([interval, f]), make_or([interval, f])][i % 3]
        assignment = tuple_of_parameters()
        value = measure(f, X, assignment).value
        assert value == reference_measure(f, X, assignment), (str(f), assignment)
        k = rng.choice((3, 10, 100))
        tuples = [tuple_of_parameters() for _ in range(5)]
        report = bucket_partition(f, X, tuples, k)
        read = reading(qe(make_and([f, UNIT_WINDOW]), TheoryMode.POVS), X)
        want = [_window_measure(read(a)) for a in tuples]
        assert [e.value for e in report.entries] == want, str(f)
        assert [e.bucket for e in report.entries] == [bucket_index(w, k) for w in want]
        values += [value, *want]
    assert sum(not v.in_q() for v in values) > 1000  # irrational measures
    assert sum(v.in_q() and bool(v) for v in values) > 1000  # nonzero rational ones
