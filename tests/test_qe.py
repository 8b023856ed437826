"""Elimination correctness: hand examples, oracle agreement, duality,
idempotence, mode conservativity, and atom splitting."""

import importlib
import random
import time

import pytest

from densepairs import formulas
from densepairs.cli import run
from densepairs.errors import FreeVariableError, ModeError, NotConjunctionError, SortError
from densepairs.evaluate import eval_formula
from densepairs.formulas import (
    TRUE,
    And,
    Atom,
    Exists,
    Forall,
    TheoryMode,
    free_variables,
    is_quantifier_free,
    make_and,
    make_not,
)
from densepairs.model import Model, project
from densepairs.oracles import oracle_exists_home, oracle_exists_quotient
from densepairs.parser import parse, parse_element, render
from densepairs.qe import (
    decide_sentence,
    eliminate_exists_home,
    eliminate_exists_quotient,
    qe,
    split_atom,
)
from densepairs.randgen import (
    random_assignment,
    random_conjunction,
    random_element,
    random_literal,
    random_quantified_formula,
)
from densepairs.terms import Sort, hvar, qvar

MODEL = Model(3)
qe_module = importlib.import_module("densepairs.qe")  # `densepairs.qe` is also the function


def lits(*texts, mode=TheoryMode.POVS):
    return [parse(t, mode) for t in texts]


def test_equality_substitution():
    out = eliminate_exists_home(lits("x1 = x2 + 1", "Q(x1)"), hvar(1))
    assert out == parse("Q(x2 + 1)")


def test_interval_with_subspace_witness_drops_to_endpoint_condition():
    out = eliminate_exists_home(lits("0 < x1", "x1 < x2", "Q(x1)"), hvar(1))
    assert out == parse("0 < x2")
    rng = random.Random(11)
    for _ in range(50):
        sigma = {hvar(2): random_element(rng, MODEL)}
        assert eval_formula(out, sigma) == oracle_exists_home(
            lits("0 < x1", "x1 < x2", "Q(x1)"), hvar(1), sigma
        )[0]


def test_merged_coset_side_condition():
    conj = lits("pi(x1) = u1", "pi(x1) != u2")
    out = eliminate_exists_home(conj, hvar(1))
    assert out == parse("u1 != u2")
    rng = random.Random(12)
    for _ in range(30):
        sigma = random_assignment(rng, [qvar(1), qvar(2)], MODEL)
        assert eval_formula(out, sigma) == oracle_exists_home(conj, hvar(1), sigma)[0]


def test_quotient_elimination_examples():
    assert eliminate_exists_quotient(lits("u1 != pi(x1)", "u1 != pi(x2)"), qvar(1)) == TRUE
    out = eliminate_exists_quotient(lits("u1 = pi(x1)", "u1 != pi(x2)"), qvar(1))
    assert out == parse("pi(x1) != pi(x2)")
    prec_out = eliminate_exists_quotient(
        lits("pi(x1) prec u1", "u1 prec pi(x2)", mode=TheoryMode.POVS_PREC),
        qvar(1),
        TheoryMode.POVS_PREC,
    )
    assert prec_out == parse("pi(x1) prec pi(x2)", TheoryMode.POVS_PREC)
    rng = random.Random(13)
    for _ in range(30):
        sigma = random_assignment(rng, [hvar(1), hvar(2)], MODEL)
        assert eval_formula(prec_out, sigma) == oracle_exists_quotient(
            lits("pi(x1) prec u1", "u1 prec pi(x2)", mode=TheoryMode.POVS_PREC),
            qvar(1),
            sigma,
            ordered=True,
        )[0]


def test_one_clause_step_uses_every_branch_on_a_home_clause():
    # a bound pair, a skipped disequation, and a coset side that solves the
    # membership literal's equation on the stand-in for pi(x1)
    P = TheoryMode.POVS_PREC
    conj = lits(
        "x2 < x1", "x1 < x3 + 1", "x1 < 2*x4", "x1 != x4",
        "Q(x1 - x2)", "pi(x1) prec u1", "u2 = 0", mode=P,
    )
    out = eliminate_exists_home(conj, hvar(1), P)
    assert str(out) == "u2 = 0 & x2 < 2*x4 & x2 < x3 + 1 & pi(x2) prec u1"
    # a coset side with no equation pairs its own bounds on the stand-in
    conj = lits("x2 < x1", "!Q(x1 - x2)", "pi(x1) prec u1", "u2 prec pi(2*x1)", mode=P)
    assert str(eliminate_exists_home(conj, hvar(1), P)) == "1/2*u2 prec u1"
    rng = random.Random(14)
    for _ in range(30):
        sigma = random_assignment(rng, [hvar(2), qvar(1), qvar(2)], MODEL)
        assert eval_formula(parse("1/2*u2 prec u1", P), sigma) == oracle_exists_home(
            conj, hvar(1), sigma
        )[0]


def test_clause_step_refuses_a_negated_order_literal():
    P = TheoryMode.POVS_PREC
    home = make_not(parse("x1 < x2"))
    quotient = make_not(parse("u1 prec u2", P))
    # the entry points normalize first: !(x1 < x2) is x2 < x1 | x1 = x2
    assert eliminate_exists_home([home], hvar(1)) == TRUE
    assert eliminate_exists_quotient([quotient], qvar(1), P) == TRUE
    # the clause step itself takes strict literals only
    for lit, v in ((home, hvar(1)), (quotient, qvar(1))):
        with pytest.raises(NotConjunctionError, match="weak order literal"):
            qe_module._eliminate_clause([lit], v)


def test_eliminators_validate_input():
    with pytest.raises(SortError):
        eliminate_exists_home(lits("Q(x1)"), qvar(1))
    with pytest.raises(SortError):
        eliminate_exists_quotient(lits("u1 = 0"), hvar(1))
    with pytest.raises(NotConjunctionError):
        eliminate_exists_home([parse("Q(x1) | Q(x2)")], hvar(1))
    with pytest.raises(ModeError):
        eliminate_exists_quotient(
            lits("u1 prec u2", mode=TheoryMode.POVS_PREC), qvar(1), TheoryMode.POVS
        )


def test_eliminators_check_the_language_of_the_mode():
    # literals outside the one-sorted language are refused even without v
    with pytest.raises(ModeError):
        eliminate_exists_home([parse("Q(x0 + x1)")], hvar(0), TheoryMode.OVS)
    with pytest.raises(ModeError):
        eliminate_exists_home(lits("x0 < 0", "pi(x1) = 0"), hvar(0), TheoryMode.OVS)
    with pytest.raises(ModeError):
        eliminate_exists_quotient(lits("u1 = pi(x1)"), qvar(1), TheoryMode.OVS)
    with pytest.raises(ModeError):
        eliminate_exists_home(
            lits("x0 < 0", "u1 prec 0", mode=TheoryMode.POVS_PREC), hvar(0), TheoryMode.POVS
        )


# well-sorted conjunctions of literals outside the mode: (mode, text, message)
MODE_REFUSALS = [
    ("ovs", "Q(x1)", "Q is not in the language of theory mode ovs"),
    ("ovs", "E x1. x1 < 0 & Q(x1)", "Q is not in the language of theory mode ovs"),
    ("ovs", "pi(x1) = 0", "pi is not in the language of theory mode ovs"),
    ("ovs", "pi(x1) = u1", "u1 is not in the language of theory mode ovs"),
    ("ovs", "u1 = 0", "u1 is not in the language of theory mode ovs"),
    ("ovs", "E u1. x1 < 0", "u1 is not in the language of theory mode ovs"),
    ("ovs", "pi(x1) prec pi(x2)", "prec is not in the language of theory mode ovs"),
    ("povs", "u1 prec 0", "prec is not in the language of theory mode povs"),
    ("povs", "E u1. u1 prec pi(r2) & u1 != u2", "prec is not in the language of theory mode povs"),
    ("povs", "x1 < 0 & pi(x1) prec pi(x2)", "prec is not in the language of theory mode povs"),
]


@pytest.mark.parametrize("theory,text,message", MODE_REFUSALS)
def test_every_entry_point_refuses_a_mode_in_one_wording(capsys, theory, text, message):
    mode = TheoryMode(theory)
    f = parse(text, TheoryMode.POVS_PREC)
    v, body = (f.var, f.body) if isinstance(f, Exists) else (hvar(0), f)
    literals = list(body.children) if isinstance(body, And) else [body]
    eliminate = eliminate_exists_home if v.sort is Sort.HOME else eliminate_exists_quotient
    for call in (
        lambda: parse(text, mode),
        lambda: qe(f, mode),
        lambda: eliminate(literals, v, mode),
    ):
        with pytest.raises(ModeError) as info:
            call()
        assert str(info.value) == message
    assert run(["qe", "--theory", theory, text]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "theory,text",
    [
        ("ovs", "E x1. x2 < x1 & x1 < 1"),
        ("ovs", "x1 < 0 & E x2. E x1. x1 < x2"),
        ("povs", "E x1. x2 < x1 & !Q(x1)"),
        ("povs", "A u1. u1 != u2"),
        ("povs-prec", "E u1. u2 prec u1 & u1 prec pi(r2)"),
    ],
)
def test_parse_and_qe_scan_a_formula_once_each(monkeypatch, theory, text):
    # `parse` and `qe` each admit the formula with one scan.  The inputs
    # solve no equation: a substitution scans its formula for binders too.
    calls = []
    scan = formulas._scan
    monkeypatch.setattr(formulas, "_scan", lambda f: calls.append(f) or scan(f))
    mode = TheoryMode(theory)
    qe(parse(text, mode), mode)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "argv,scans",
    [
        (["qe", "E x1. x2 < x1 & x1 < 1"], 3),
        (["decide", "E x1. 0 < x1 & x1 < r2"], 4),
        (["decompose", "0 < x1 & x1 < r2 & !Q(x1)"], 4),
    ],
)
def test_cli_commands_scan_a_formula_a_fixed_number_of_times(monkeypatch, argv, scans):
    # Besides the two admissions of `parse` and `qe`, the CLI reads the
    # constants and free variables from one scan; `decide_sentence` checks
    # for free variables and `decompose` grounds the others, one scan each.
    calls = []
    scan = formulas._scan
    monkeypatch.setattr(formulas, "_scan", lambda f: calls.append(f) or scan(f))
    assert run(argv) == 0
    assert len(calls) == scans


def test_qe_surjectivity_of_quotient_map():
    assert qe(parse("E x1. pi(x1) = u1")) == TRUE


def test_qe_universal_example():
    out = qe(parse("A x1. (Q(x1) -> x1 >= 0)"))
    assert out == parse("false")
    # hand witness: -1 is in the subspace and negative
    assert eval_formula(parse("Q(x1) & x1 < 0"), {hvar(1): parse_element("-1")})


def test_qe_nested_two_sorts():
    assert qe(parse("E x1. E x2. (x1 < x2 & Q(x2 - x1))")) == TRUE
    assert decide_sentence(parse("A u1. E x1. (pi(x1) = u1 & 0 < x1 & x1 < 1)"))


def test_qe_output_is_quantifier_free_and_sound():
    rng = random.Random(99)
    for _ in range(60):
        f = random_quantified_formula(rng, MODEL, TheoryMode.POVS, quantifiers=2)
        g = qe(f, TheoryMode.POVS)
        assert is_quantifier_free(g)
        assert free_variables(g) <= free_variables(f)


def test_qe_single_quantifier_matches_oracles():
    rng = random.Random(555)
    for _ in range(80):
        home_bound = rng.random() < 0.5
        bound = hvar(0) if home_bound else qvar(0)
        context = [hvar(1), hvar(2), qvar(1)]
        conj = random_conjunction(rng, bound, context, MODEL, TheoryMode.POVS)
        if home_bound:
            g = eliminate_exists_home(conj, bound, TheoryMode.POVS)
        else:
            g = eliminate_exists_quotient(conj, bound, TheoryMode.POVS)
        assert is_quantifier_free(g)
        for _ in range(8):
            sigma = random_assignment(rng, context, MODEL)
            symbolic = eval_formula(g, sigma)
            if home_bound:
                concrete = oracle_exists_home(conj, bound, sigma)[0]
            else:
                concrete = oracle_exists_quotient(conj, bound, sigma)[0]
            assert symbolic == concrete, f"conj={[render(l) for l in conj]}"


def test_forall_exists_duality():
    rng = random.Random(321)
    for _ in range(40):
        bound = hvar(0)
        context = [hvar(1), qvar(1)]
        body = make_and(random_conjunction(rng, bound, context, MODEL, TheoryMode.POVS, 4))
        all_form = qe(Forall(bound, body), TheoryMode.POVS)
        dual = qe(make_not(Exists(bound, make_not(body))), TheoryMode.POVS)
        for _ in range(6):
            sigma = random_assignment(rng, context, MODEL)
            assert eval_formula(all_form, sigma) == eval_formula(dual, sigma)


def test_qe_idempotent_up_to_equivalence():
    rng = random.Random(654)
    for _ in range(30):
        f = random_quantified_formula(rng, MODEL, TheoryMode.POVS, quantifiers=2)
        g = qe(f, TheoryMode.POVS)
        h = qe(g, TheoryMode.POVS)
        context = sorted(free_variables(f), key=lambda v: v.sort_key())
        for _ in range(6):
            sigma = random_assignment(rng, context, MODEL)
            assert eval_formula(g, sigma) == eval_formula(h, sigma)


def test_mode_monotonicity_on_prec_free_formulas():
    rng = random.Random(987)
    for _ in range(40):
        f = random_quantified_formula(rng, MODEL, TheoryMode.POVS, quantifiers=2)
        g_povs = qe(f, TheoryMode.POVS)
        g_prec = qe(f, TheoryMode.POVS_PREC)
        context = sorted(free_variables(f), key=lambda v: v.sort_key())
        for _ in range(5):
            sigma = random_assignment(rng, context, MODEL)
            assert eval_formula(g_povs, sigma) == eval_formula(g_prec, sigma)


def test_ordered_expansion_agrees_with_ordered_oracle():
    rng = random.Random(1213)
    for _ in range(60):
        bound = qvar(0) if rng.random() < 0.6 else hvar(0)
        context = [hvar(1), qvar(1), qvar(2)]
        conj = random_conjunction(rng, bound, context, MODEL, TheoryMode.POVS_PREC)
        if bound.sort is Sort.HOME:
            g = eliminate_exists_home(conj, bound, TheoryMode.POVS_PREC)
            oracle = lambda s: oracle_exists_home(conj, bound, s)[0]
        else:
            g = eliminate_exists_quotient(conj, bound, TheoryMode.POVS_PREC)
            oracle = lambda s: oracle_exists_quotient(conj, bound, s, ordered=True)[0]
        for _ in range(6):
            sigma = random_assignment(rng, context, MODEL)
            assert eval_formula(g, sigma) == oracle(sigma)


def test_decide_sentence_requires_sentence():
    with pytest.raises(FreeVariableError):
        decide_sentence(parse("x1 < 1"))


def test_decide_examples():
    assert not decide_sentence(parse("E x1. (Q(x1) & !Q(x1))"))
    assert decide_sentence(parse("E x1. (0 < x1 & x1 < 1 & !Q(x1))"))
    assert decide_sentence(parse("A u1. E x1. (pi(x1) = u1 & 0 < x1 & x1 < 1)"))


def test_split_atom_examples_and_soundness():
    split = split_atom(parse("Q(2*x1 - x2)"))
    assert split.home is None and split.quotient is not None
    kept = split_atom(parse("x1 < x2"))
    assert kept.home == parse("x1 < x2") and kept.quotient is None
    prec = split_atom(parse("pi(x1) prec u1", TheoryMode.POVS_PREC))
    assert prec.home is None and prec.quotient == parse("pi(x1) prec u1", TheoryMode.POVS_PREC)

    rng = random.Random(1415)
    variables = [hvar(1), hvar(2), qvar(1)]
    for _ in range(200):
        lit = random_literal(rng, variables, MODEL, TheoryMode.POVS_PREC)
        atom = lit.sub if not isinstance(lit, Atom) else lit
        parts = split_atom(atom)
        assert (parts.home is None) != (parts.quotient is None)
        emitted = parts.home if parts.home is not None else parts.quotient
        sigma = random_assignment(rng, variables, MODEL)
        assert eval_formula(atom, sigma) == eval_formula(emitted, sigma)


def test_nested_prec_formulas_eliminate_cleanly():
    rng = random.Random(161803)
    for _ in range(40):
        f = random_quantified_formula(
            rng, MODEL, TheoryMode.POVS_PREC, quantifiers=rng.randint(2, 3)
        )
        g = qe(f, TheoryMode.POVS_PREC)
        assert is_quantifier_free(g)
        h = qe(g, TheoryMode.POVS_PREC)
        context = sorted(free_variables(f), key=lambda v: v.sort_key())
        for _ in range(5):
            sigma = random_assignment(rng, context, MODEL)
            assert eval_formula(g, sigma) == eval_formula(h, sigma)


def test_nested_sentences_yield_verifiable_witnesses():
    # when elimination says a two-quantifier sentence is true, a concrete
    # witness pair must be extractable through the oracles and re-evaluate
    # true; when it says false, probing must never find a counterexample
    from densepairs.formulas import dnf_clauses
    from densepairs.qe import decide_sentence

    rng = random.Random(898989)

    def oracle_for(bound):
        if bound.sort is Sort.HOME:
            return lambda lits, s: oracle_exists_home(lits, bound, s)
        return lambda lits, s: oracle_exists_quotient(lits, bound, s)

    for dim in (2, 3, 4):
        model = Model(dim)
        for _ in range(25):
            v_outer = hvar(8) if rng.random() < 0.5 else qvar(8)
            v_inner = hvar(9) if rng.random() < 0.5 else qvar(9)
            conj = random_conjunction(rng, v_inner, [v_outer], model, TheoryMode.POVS, 5)
            sentence = Exists(v_outer, Exists(v_inner, make_and(conj)))
            if decide_sentence(sentence, TheoryMode.POVS):
                inner_qf = qe(Exists(v_inner, make_and(conj)), TheoryMode.POVS)
                found = False
                for clause in dnf_clauses(inner_qf) or [()]:
                    ok, w_outer = oracle_for(v_outer)(list(clause), {})
                    if not ok:
                        continue
                    ok2, w_inner = oracle_for(v_inner)(conj, {v_outer: w_outer})
                    if ok2:
                        assert eval_formula(
                            make_and(conj), {v_outer: w_outer, v_inner: w_inner}
                        )
                        found = True
                        break
                assert found
            else:
                for _ in range(20):
                    sigma = random_assignment(rng, [v_outer, v_inner], model)
                    assert not eval_formula(make_and(conj), sigma)


@pytest.mark.parametrize("n", [3, 4])
def test_alternation_eliminates_within_time_gate(n):
    # E x1. A x2. (x2 < x1 | AND_i (...)) is true: take x1 below every
    # a_i.  The nested DNF of n such conjuncts used to take about 34 s at
    # n=3 (absorption ran only once, after the full cross product)
    conj = [f"(x1 < x{90 + i} | x2 > x{93 + i} | Q(x1 - x2 + x{96 + i}))" for i in range(1, n + 1)]
    f = parse(f"E x1. A x2. (x2 < x1 | ({' & '.join(conj)}))", TheoryMode.POVS)
    start = time.perf_counter()
    g = qe(f, TheoryMode.POVS)
    elapsed = time.perf_counter() - start
    assert g == TRUE
    assert elapsed < 5.0, f"alternation n={n} took {elapsed:.1f} s"
