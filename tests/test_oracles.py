"""Witness-search oracles: constructed witnesses, stability of refusals,
and the density axioms the engine relies on."""

import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest

from densepairs import oracles, terms
from densepairs.errors import ModeError, NotGroundError, ParseError, SortError
from densepairs.evaluate import eval_formula
from densepairs.formulas import TheoryMode, free_variables, literal_parts, make_and
from densepairs.model import Model, ModelElement, QuotientElement, compare, lex_compare
from densepairs.oracles import oracle_exists_home, oracle_exists_quotient
from densepairs.parser import parse, parse_element, parse_quotient_element
from densepairs.randgen import random_assignment, random_conjunction, random_element, random_quotient_element
from densepairs.selfcheck import selfcheck
from densepairs.terms import Sort, Variable, hvar, qvar

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


def test_bound_variable_named_like_the_coset_stand_in():
    # the home oracle searches for pi(v) under its own name; a caller's u0
    # must stay a parameter of the literals, not that unknown
    sigma = {qvar(0): QuotientElement({2: Fraction(1)})}
    literals = lits("pi(x1) = u0", "0 < x1", "x1 < 1")
    ok, w = oracle_exists_home(literals, hvar(1), sigma)
    assert ok and eval_formula(make_and(literals), {**sigma, hvar(1): w})
    assert oracle_exists_home(lits("pi(x1) = u0", "Q(x1)"), hvar(1), sigma) == (False, None)
    # the coset stand-in is solved under the caller's assignment, u0 included
    for texts, verdict in [
        (["Q(x1 - x2)", "pi(x1) prec u0", "x1 < 0"], True),
        (["!Q(x1)", "pi(x1) prec u0", "u0 prec pi(x1)"], False),
        (["Q(x1 - x2)", "!(u0 prec pi(x1))", "x1 != x2"], True),
    ]:
        given = {**sigma, hvar(2): parse_element("r3 - 1/2")}
        literals = lits(*texts, mode=TheoryMode.POVS_PREC)
        ok, w = oracle_exists_home(literals, hvar(1), given)
        assert ok is verdict, texts
        assert not ok or eval_formula(make_and(literals), {**given, hvar(1): w}), texts
    # and no text names the stand-in
    stand_in = oracles._COSET
    assert stand_in.sort is Sort.QUOTIENT and stand_in.index < 0
    for text in (f"{stand_in} = 0", f"pi(x1) prec {stand_in}", f"E {stand_in}. {stand_in} = 0"):
        with pytest.raises(ParseError):
            parse(text, TheoryMode.POVS_PREC)


def test_the_reading_kept_on_an_atom_is_keyed_by_the_bound_variable():
    # one set of literal objects solved for x1, then x2, then x1 again; a
    # pickled copy of them carries no reading and must give the same answer
    literals = lits("x1 < x2", "Q(x1 - x2)", "pi(x1) = pi(x2)", "x1 != 2*x2")
    runs = [
        (hvar(1), {hvar(2): parse_element("r2 + 1/3")}),
        (hvar(2), {hvar(1): parse_element("r3")}),
        (hvar(1), {hvar(2): parse_element("-1 - r2")}),
        (hvar(2), {hvar(1): parse_element("1/2 + r2")}),
    ]
    atoms = [literal_parts(lit)[0] for lit in literals]
    for v, sigma in runs:
        fresh = pickle.loads(pickle.dumps(literals))
        assert not any(hasattr(literal_parts(lit)[0], "_reading") for lit in fresh)
        answer = oracle_exists_home(literals, v, sigma)
        assert answer == oracle_exists_home(fresh, v, sigma), v
        assert all(atom._reading[0] == v for atom in atoms)
        assert not answer[0] or eval_formula(make_and(literals), {**sigma, v: answer[1]})


def test_golden_oracle_cases_answer_alike_on_a_warm_pass():
    # the second pass over the same literal objects reads what the first kept
    calls = []
    for theory, bound, texts, sigma_texts, verdict, witness in GOLDEN_ORACLE_CASES:
        mode = TheoryMode(theory)
        sigma = {_var(name): _element(name, value) for name, value in sigma_texts.items()}
        calls.append((lits(*texts, mode=mode), _var(bound), sigma, mode, (verdict, witness)))
    for _ in ("cold", "warm"):
        for literals, bound, sigma, mode, expected in calls:
            ok, w = _call_oracle(literals, bound, sigma, mode)
            assert (ok, None if w is None else w.to_json()) == expected


@pytest.mark.parametrize("mode", [TheoryMode.POVS, TheoryMode.POVS_PREC])
@pytest.mark.parametrize("sort", [Sort.HOME, Sort.QUOTIENT])
def test_oracle_calls_after_the_first_compile_and_build_no_term(monkeypatch, mode, sort):
    # a work count, not a time: once a conjunction has been read for its
    # bound variable, each further assignment only evaluates what was kept
    rng = random.Random(2020)
    bound = hvar(0) if sort is Sort.HOME else qvar(0)
    context = [hvar(1), hvar(2), qvar(1), qvar(2)]
    counts = {"term": 0}
    row = terms._Term._row.__func__

    def counted_row(cls, *parts):  # every term is built as a row
        counts["term"] += 1
        return row(cls, *parts)

    monkeypatch.setattr(terms._Term, "_row", classmethod(counted_row))
    for _ in range(5):
        literals = random_conjunction(rng, bound, context, MODEL, mode, 6)
        sigmas = [random_assignment(rng, context, MODEL) for _ in range(20)]
        _call_oracle(literals, bound, sigmas[0], mode)
        counts.update(term=0)
        for sigma in sigmas[1:]:
            _call_oracle(literals, bound, sigma, mode)
        assert counts == {"term": 0}, [str(lit) for lit in literals]


@pytest.mark.parametrize(
    "theory, bound, texts, sigma_texts, roots",
    [
        ("povs", "x1", ["x1 = x2 + 1", "x2 < x1", "x1 < x3", "x1 != 0"], {"x2": "1/2", "x3": "2"}, 1),
        ("povs-prec", "u1", ["u2 prec u1", "u1 = u2 + pi(x2)", "u1 != pi(r3)", "u1 prec u3"],
         {"u2": "pi(r2)", "x2": "r3", "u3": "pi(r2 + 2*r3)"}, 1),
        ("povs", "x1", ["x2 < x1", "x1 < x3", "x1 != 0", "x1 != x3 - 1"], {"x2": "0", "x3": "1"}, 4),
    ],
    ids=["home pinned", "quotient pinned", "home unpinned"],
)
def test_a_pinned_search_evaluates_one_root_and_an_unpinned_one_each_root_once(
    monkeypatch, theory, bound, texts, sigma_texts, roots
):
    # a work count, not a time: an equation on v names the only candidate, so
    # the search reads its root alone; without one, each root is read once
    mode = TheoryMode(theory)
    literals, v = lits(*texts, mode=mode), _var(bound)
    sigma = {_var(name): _element(name, value) for name, value in sigma_texts.items()}
    counts = {"evaluate": 0}
    for cls in (terms.HomeTerm, terms.QuotientTerm):
        def counted(self, assignment, evaluate=cls.evaluate):
            counts["evaluate"] += 1
            return evaluate(self, assignment)

        monkeypatch.setattr(cls, "evaluate", counted)
    for _ in ("cold", "warm"):
        counts.update(evaluate=0)
        ok, w = _call_oracle(literals, v, sigma, mode)
        assert ok and eval_formula(make_and(literals), {**sigma, v: w})
        assert counts == {"evaluate": roots}


# Oracle outputs pinned at the commit before the two witness searches became
# one.  Witnesses compare by value (`to_json()`, sorted keys): a witness's
# coefficient dict may be built in another order and still be the same element.
# The last nine rows before the equation cases, one walk past an excluded point
# for each sort and each shape of interval, were pinned at the commit before the
# candidate walks became one.  The last six, each with an equation on the bound
# variable, were pinned at the commit before an equation's point was checked
# ahead of every other root.
GOLDEN_ORACLE_CASES = [
    # (theory, bound, literals, assignment, verdict, witness)
    ("ovs", "x1", ["x1 = 2*x2 + 1", "x1 < 3"],
     {"x2": "r2"}, False, None),
    ("ovs", "x1", ["x2 < x1", "x1 < x3", "x1 != x2 + 1"],
     {"x2": "1/2*r3", "x3": "2 + r2"}, True, {"0": "9191743189/4294967296"}),
    ("ovs", "x1", ["3*x1 < x2", "x2 < 3*x1"],
     {"x2": "r5"}, False, None),
    ("povs", "x1", ["!(x1 < x2)", "!(x2 < x1)", "!Q(x1)"],
     {"x2": "r3 - 1"}, True, {"0": "-1", "3": "1"}),
    ("povs", "x1", ["Q(x1 - x2)", "0 < x1", "x1 < 1", "x1 != x2 + 1/2"],
     {"x2": "1/3 + r2"}, True, {"0": "-7853034703/8589934592", "2": "1"}),
    ("povs", "x1", ["pi(2*x1) = u1", "x2 < x1", "x1 < x2 + 1"],
     {"x2": "r3", "u1": "pi(r2)"}, True, {"0": "26198338887/17179869184", "2": "1/2"}),
    ("povs", "x1", ["pi(x1) != u0", "!Q(x1)", "x1 < x2"],
     {"x2": "0", "u0": "pi(r2)"}, True, {"0": "-4", "2": "2"}),
    ("povs", "u1", ["u1 != pi(x1)", "u1 != 0", "2*u1 != u2"],
     {"x1": "r2", "u2": "pi(r3)"}, True, {"2": "2"}),
    ("povs", "u1", ["3*u1 = pi(x1) + u2", "x2 < 0"],
     {"x1": "r2", "x2": "-1", "u2": "pi(r3)"}, True, {"2": "1/3", "3": "1/3"}),
    ("povs-prec", "u1", ["pi(x1) prec u1", "u1 prec u2", "u1 != pi(x1 + x2)"],
     {"x1": "r3", "x2": "r3", "u2": "pi(r2)"}, True, {"2": "1/2", "3": "1/2"}),
    ("povs-prec", "u1", ["!(u1 prec u2)", "!(u2 prec u1)"],
     {"u2": "pi(r2 - r3)"}, True, {"2": "1", "3": "-1"}),
    ("povs-prec", "u1", ["u2 prec -2*u1"],
     {"u2": "pi(r5)"}, True, {"2": "-1", "5": "-1/2"}),
    ("povs-prec", "x1", ["pi(x1) prec u1", "u1 prec pi(x1 - x2)", "0 < x1"],
     {"x2": "r2", "u1": "pi(r3)"}, False, None),
    ("povs-prec", "x1", ["u1 prec pi(x1)", "pi(x1) prec u2", "x1 < 0", "x1 != -1"],
     {"u1": "pi(r3)", "u2": "pi(r2)"}, True, {"0": "-3", "2": "1/2", "3": "1/2"}),
    ("povs", "x1", ["1/3 < x1", "x1 < 1/2", "x1 != 5/12"], {}, True, {"0": "3/8"}),
    ("povs", "x1", ["r2 < x1", "x1 < r2 + 1", "Q(x1 - r2)", "x1 != r2 + 1/2"], {}, True, {"0": "1/4", "2": "1"}),
    ("povs", "x1", ["r3 < x1", "!Q(x1)", "pi(x1) != pi(r2)", "x1 != 2*r2"], {}, True, {"0": "1", "2": "2"}),
    ("povs", "x1", ["x1 < r5", "pi(x1) = pi(r3)", "x1 != r3 - 1"], {}, True, {"0": "-2", "3": "1"}),
    ("povs", "x1", ["x1 != 0", "x1 != 1", "Q(x1)"], {}, True, {"0": "2"}),
    ("povs-prec", "u1", ["pi(r3) prec u1", "u1 prec pi(r2)", "u1 != pi(1/2*r2 + 1/2*r3)"], {}, True, {"2": "1/4", "3": "3/4"}),
    ("povs-prec", "u1", ["pi(r2) prec u1", "u1 != pi(2*r2)"], {}, True, {"2": "3"}),
    ("povs-prec", "u1", ["u1 prec pi(r3)", "u1 != pi(r3 - r2)"], {}, True, {"2": "-2", "3": "1"}),
    ("povs", "u1", ["u1 != 0", "u1 != pi(r2)"], {}, True, {"2": "2"}),
    ("ovs", "x1", ["x1 = x2 + 1", "x1 = 2*x2"], {"x2": "r2"}, False, None),
    ("ovs", "x1", ["x2 < 0", "x1 = x2"], {"x2": "1"}, False, None),
    ("povs", "x1", ["x1 = 1/2*x2", "x3 < x1", "x1 < x2"], {"x2": "1", "x3": "1"}, False, None),
    ("povs", "x1", ["Q(x1)", "x1 = x2 + 1/2", "x1 < 2"], {"x2": "r3 - 1"}, False, None),
    ("povs", "x1", ["2*x1 = x2", "x1 < 2", "x1 = x3"], {"x2": "2*r2", "x3": "r2"}, True, {"2": "1"}),
    ("povs-prec", "u1", ["u2 prec u1", "u1 = u2 + pi(x2)", "u1 != pi(r3)", "u1 prec u3"],
     {"u2": "pi(r2)", "x2": "r3", "u3": "pi(r2 + 2*r3)"}, True, {"2": "1", "3": "1"}),
]


def _var(name):
    return (hvar if name[0] == "x" else qvar)(int(name[1:]))


def _element(name, text):
    return parse_element(text) if name[0] == "x" else parse_quotient_element(text)


def _witness_text(w):
    return "null" if w is None else json.dumps(w.to_json(), sort_keys=True)


def _call_oracle(literals, bound, sigma, mode):
    if bound.sort is Sort.HOME:
        return oracle_exists_home(literals, bound, sigma)
    return oracle_exists_quotient(literals, bound, sigma, mode is TheoryMode.POVS_PREC)


def oracle_corpus_text(seed=2024, instances=250, assignments=4):
    """One line per oracle call on a seeded corpus of random conjunctions.

    Every theory, both bound sorts (home only in ovs) and several
    assignments per instance; home-bound instances take u0 as a parameter.
    """
    rng = random.Random(seed)
    lines = []
    for i in range(instances):
        mode = list(TheoryMode)[i % 3]
        home = mode is TheoryMode.OVS or i % 2 == 0
        bound = hvar(0) if home else qvar(0)
        context = [hvar(1), hvar(2), qvar(1)] + ([qvar(0)] if home else [])
        literals = random_conjunction(rng, bound, context, MODEL, mode)
        for j in range(assignments):
            sigma = random_assignment(rng, context, MODEL)
            ok, w = _call_oracle(literals, bound, sigma, mode)
            lines.append(f"{i}.{j} {mode.value} {bound} {ok} {_witness_text(w)}")
    return "\n".join(lines) + "\n"


GOLDEN_ORACLE_CORPUS_SHA256 = "84719c6e37d4817b4ab8b79d18c0e633e2a19c90b79ce4c3eac910375e8bca9c"


@pytest.mark.parametrize("case", GOLDEN_ORACLE_CASES, ids=lambda c: " & ".join(c[2]))
def test_golden_oracle_cases(case):
    theory, bound, texts, sigma_texts, verdict, witness = case
    mode = TheoryMode(theory)
    sigma = {_var(name): _element(name, value) for name, value in sigma_texts.items()}
    ok, w = _call_oracle(lits(*texts, mode=mode), _var(bound), sigma, mode)
    assert (ok, None if w is None else w.to_json()) == (verdict, witness)


def test_golden_oracle_corpus():
    text = oracle_corpus_text()
    assert text.count("\n") == 1000
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ORACLE_CORPUS_SHA256


# An assignment that already binds the bound variable: the oracles read each
# literal's rest with v at zero and try candidates in its place, so neither
# a value of v's sort nor one of the other sort changes the answer.  Outputs
# pinned before the rest was read this way, where v was deleted from the term.
BOUND_V_SIGMA = {"x2": "1 + r2", "x3": "-1/2*r3", "u2": "pi(r2 - r5)"}
BOUND_V_CASES = [
    # (bound, literals, verdict, witness), each under every binding of v
    ("x1", ["0 < x1", "x1 < x2", "Q(x1 - x2)"],
     True, {"0": "-1779033703/8589934592", "2": "1"}),
    ("x1", ["x1 = 2*x2 + 1/3", "!Q(x1)"], True, {"0": "7/3", "2": "2"}),
    ("x1", ["x1 != x2", "pi(x1) prec u2", "x3 < x1", "!Q(x1 + x3)"],
     True, {"0": "3", "5": "-1"}),
    ("x1", ["x1 < x2", "x2 < x1"], False, None),
    ("x1", ["pi(x1) = pi(x3)", "x1 < x3", "!(x1 = x3 - 1)"],
     True, {"0": "-2", "3": "-1/2"}),
    ("u1", ["u1 prec u2", "pi(x3) prec u1", "u1 != pi(r3)"],
     True, {"2": "1/2", "3": "-1/4", "5": "-1/2"}),
    ("u1", ["u1 = u2 + pi(x2)", "!(u1 prec pi(x3))"], True, {"2": "2", "5": "-1"}),
    ("u1", ["u1 != u2", "u1 != pi(x2)"], True, {}),
    ("u1", ["u1 prec u2", "u2 prec u1"], False, None),
]


@pytest.mark.parametrize("case", BOUND_V_CASES, ids=lambda c: " & ".join(c[1]))
def test_a_binding_of_the_bound_variable_is_ignored(case):
    bound, texts, verdict, witness = case
    v = _var(bound)
    sigma = {_var(name): _element(name, value) for name, value in BOUND_V_SIGMA.items()}
    home, quotient = parse_element("r5 - 2"), parse_quotient_element("pi(r7)")
    for value in (None, home, quotient):  # unbound, then each sort
        given = sigma if value is None else {**sigma, v: value}
        ok, w = _call_oracle(lits(*texts, mode=TheoryMode.POVS_PREC), v, given, TheoryMode.POVS_PREC)
        assert (ok, None if w is None else w.to_json()) == (verdict, witness), value


@pytest.mark.parametrize("sort", [Sort.HOME, Sort.QUOTIENT])
def test_a_wrong_sort_parameter_raises_one_type_error_whatever_the_literal_order(sort):
    # a parameter the literals mention, bound to a value of the other sort,
    # is refused before the search, so no literal order or search exit
    # lets the call answer
    rng = random.Random(5)
    bound = hvar(0) if sort is Sort.HOME else qvar(0)
    context = [hvar(1), hvar(2), qvar(1), qvar(2)]
    modes = list(TheoryMode) if sort is Sort.HOME else [TheoryMode.POVS, TheoryMode.POVS_PREC]
    calls = 0
    while calls < 3000:
        mode = modes[calls % len(modes)]
        literals = random_conjunction(rng, bound, context, MODEL, mode)
        mentioned = set().union(*map(free_variables, literals)) - {bound}
        if not mentioned:
            continue
        wrong = rng.choice(sorted(mentioned, key=Variable.sort_key))
        sigma = random_assignment(rng, context, MODEL)
        if wrong.sort is Sort.HOME:
            sigma[wrong], want = random_quotient_element(rng, MODEL), "QuotientElement, not a ModelElement"
        else:
            sigma[wrong], want = random_element(rng, MODEL), "ModelElement, not a QuotientElement"
        for _ in range(2):
            rng.shuffle(literals)
            with pytest.raises(TypeError) as raised:
                _call_oracle(literals, bound, sigma, mode)
            assert str(raised.value) == f"{wrong} is assigned a {want}", [str(lit) for lit in literals]
        calls += 1


def test_the_first_unbound_parameter_in_sort_order_is_named():
    literals = lits("x1 < x3", "pi(x1) = u1", "x2 < x1")
    for order in (literals, literals[::-1]):
        with pytest.raises(NotGroundError, match="^x2 is not bound by the assignment$"):
            oracle_exists_home(order, hvar(1), {})
        with pytest.raises(NotGroundError, match="^x3 is not bound by the assignment$"):
            oracle_exists_home(order, hvar(1), {hvar(2): ModelElement()})
