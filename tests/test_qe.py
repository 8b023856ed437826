"""Elimination correctness: hand examples, oracle agreement, duality,
idempotence, mode conservativity, and atom splitting."""

import importlib
import random
import time
from fractions import Fraction

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
    admit,
    all_atoms,
    fold_ground,
    free_variables,
    ground,
    is_quantifier_free,
    make_and,
    make_not,
    rewrite,
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

from census import census, census_formula, time_cap

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
        # nested, with conjuncts pulled out of the inner scope
        ("ovs", "E x1. E x2. (x3 < x1 & x1 < x2 & x2 < 1)"),
        ("povs", "E x1. E x2. (x3 < x1 & x1 < x2 & (Q(x2) | x3 < 0))"),
        ("povs-prec", "E u1. E u2. (u3 prec u1 & u1 prec u2 & u2 prec pi(r2))"),
    ],
)
def test_parse_and_qe_scan_a_formula_once_each(monkeypatch, theory, text):
    # `parse` admits the formula with one scan and marks it admitted to the
    # mode, so `qe` scans it no more.
    calls = []
    scan = formulas._scan
    monkeypatch.setattr(formulas, "_scan", lambda f: calls.append(f) or scan(f))
    mode = TheoryMode(theory)
    qe(parse(text, mode), mode)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv,scans",
    [
        (["qe", "E x1. x2 < x1 & x1 < 1"], 2),
        (["decide", "E x1. 0 < x1 & x1 < r2"], 3),
        (["decompose", "0 < x1 & x1 < r2 & !Q(x1)"], 3),
        (["code-fn", "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 <= x1 & x1 <= x2)"], 5),
        (["generic", "u1 != pi(r2)"], 3),
        (["code-fn", "(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)"], 3),
    ],
)
def test_cli_commands_scan_a_formula_a_fixed_number_of_times(monkeypatch, argv, scans):
    # Besides the one admission of `parse`, which `qe` reads off the node,
    # the CLI reads the constants and free variables from one scan;
    # `decide_sentence` checks for free variables and `decompose`,
    # `generic` and `code-fn` ground the others, one scan each.  code-fn's
    # sentence is built only over disjuncts that pin no x2 to a listed
    # line: in the first graph one does not, so the sentence is built and
    # its `qe` admits it; in the last every one does, so nothing more is
    # scanned.  Its line sets scan nothing.
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


def test_free_variable_error_lists_variables_in_sort_key_order():
    with pytest.raises(FreeVariableError) as caught:
        decide_sentence(parse("x9 < x10 & u2 = u10"))
    assert str(caught.value) == "not a sentence; free variables: x9, x10, u2, u10"


def test_qe_of_a_nested_formula_agrees_with_deciding_it_grounded():
    # R1: eval(qe(f), s) == decide(ground(f, s)), on census formulas of seed 7
    # at 3 seeded points each; the four formulas skipped take 0.7-2.4 s each
    rng, points = random.Random(7), random.Random(8)
    slow = {(TheoryMode.OVS, 2, 13), (TheoryMode.POVS, 3, 20)}
    slow |= {(TheoryMode.POVS_PREC, 3, 20), (TheoryMode.POVS_PREC, 3, 21)}
    checks = 0
    with time_cap(30):
        for mode in TheoryMode:
            context = [hvar(90)] if mode is TheoryMode.OVS else [hvar(90), qvar(90)]
            for q, count in ((2, 60), (3, 30)):
                for i in range(count):
                    f = census_formula(rng, mode, q)
                    if (mode, q, i) in slow:
                        continue
                    g = qe(f, mode)
                    for _ in range(3):
                        sigma = random_assignment(points, context, MODEL)
                        assert eval_formula(g, sigma) == decide_sentence(ground(f, (), sigma), mode), (
                            f"{mode.value} q={q} #{i} at {sigma}"
                        )
                        checks += 1
    assert checks == 798


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


@pytest.mark.parametrize("n", range(3, 9))
def test_alternation_reads_true_at_infinity_without_its_dnf(monkeypatch, n):
    # each conjunct of the ∃x1 body holds x1 < a_i, so the body holds as
    # x1 -> -inf; the product of its DNF grew as 64, 224 and 784 clauses at
    # n = 3, 4 and 5, and took 0.47 s at n=5
    f = parse(alt_text(n))
    start = time.perf_counter()
    with time_cap(30):
        g = qe(f, TheoryMode.POVS)
    elapsed = time.perf_counter() - start
    assert g == TRUE
    assert elapsed < {6: 0.5, 7: 1.0}.get(n, 5.0), f"alternation n={n} took {elapsed:.2f} s"
    steps = []
    eliminate = qe_module._eliminate
    monkeypatch.setattr(qe_module, "_eliminate", lambda h, v: steps.append(v) or eliminate(h, v))
    assert qe(f, TheoryMode.POVS) == TRUE
    assert steps == [hvar(2)]  # only the ∀x2 step puts its matrix in DNF


def test_a_matrix_read_true_at_infinity_eliminates_to_true(monkeypatch):
    # the DNF route is the reference: collect the ∃ steps of seeded randgen
    # formulas and of the census formulas the product finishes, in all three
    # modes; wherever a reading says a step is true, its full elimination
    # holds under every seeded assignment
    read = qe_module._holds_at_infinity
    pairs = []
    monkeypatch.setattr(
        qe_module, "_holds_at_infinity", lambda cs, v: pairs.append((cs, v, read(cs, v))) or pairs[-1][2]
    )
    rng = random.Random(4646)
    with time_cap(120):
        for mode in TheoryMode:
            for i in range(150):
                qe(random_quantified_formula(rng, MODEL, mode, quantifiers=1 + i % 3), mode)
            for i, f in enumerate(census(mode, 3, 60)):
                if mode is not TheoryMode.OVS or i not in (1, 11, 30, 53):  # stalls of the product
                    qe(f, mode)
    fired = [(make_and(cs), v) for cs, v, holds in pairs if holds]
    assert (len(pairs), len(fired)) == (1428, 553)
    assert {v.sort for _, v in fired} == {Sort.HOME, Sort.QUOTIENT}
    rng = random.Random(77)
    for matrix, v in fired:
        g = qe_module._eliminate(matrix, v)
        context = sorted(free_variables(matrix) - {v}, key=lambda w: w.sort_key())
        for _ in range(50):
            sigma = random_assignment(rng, context, MODEL)
            assert eval_formula(g, sigma), f"E {v}. {matrix} read true at infinity, but {g} fails at {sigma}"


# ---------------------------------------------------------------------------
# Scoped elimination against the whole-matrix reference
# ---------------------------------------------------------------------------


def reference_qe(f, mode):
    """The eliminator before scoping: every quantifier's whole body goes to DNF."""

    def quantifier(g):
        if isinstance(g, Forall):
            return make_not((yield Exists(g.var, make_not(g.body))))
        return qe_module._eliminate((yield g.body), g.var)

    return rewrite(admit(f, mode), fold_ground, quantifier)


def chain_text(n):
    """E x1..xn. x91 < x1 < ... < xn < x92 & (Q(xi - r2) | xi = 2/3*r3); answer x91 < x92."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    parts = [f"{a} < {b}" for a, b in zip(["x91", *xs], [*xs, "x92"])]
    parts += [f"(Q({x} - r2) | {x} = 2/3*r3)" for x in xs]
    return "".join(f"E {x}. " for x in xs) + "(" + " & ".join(parts) + ")"


def prec_chain_text(n):
    """E u1..un. u91 prec u1 prec ... prec un prec u92 & (ui != pi(r2) | ui prec pi(r3));
    answer u91 prec u92."""
    us = [f"u{i}" for i in range(1, n + 1)]
    parts = [f"{a} prec {b}" for a, b in zip(["u91", *us], [*us, "u92"])]
    parts += [f"({u} != pi(r2) | {u} prec pi(r3))" for u in us]
    return "".join(f"E {u}. " for u in us) + "(" + " & ".join(parts) + ")"


def alt_text(n):
    conj = [f"(x1 < x{90 + i} | x2 > x{93 + i} | Q(x1 - x2 + x{96 + i}))" for i in range(1, n + 1)]
    return f"E x1. A x2. (x2 < x1 | ({' & '.join(conj)}))"


# family -> (text of rung n, theory mode, closed-form answer)
CHAINS = {
    "chain": (chain_text, TheoryMode.POVS, "x91 < x92"),
    "prec_chain": (prec_chain_text, TheoryMode.POVS_PREC, "u91 prec u92"),
}


def assert_equivalent(g, h, f, rng, count=4):
    context = sorted(free_variables(f), key=lambda v: v.sort_key())
    for _ in range(count):
        sigma = random_assignment(rng, context, MODEL)
        assert eval_formula(g, sigma) == eval_formula(h, sigma), f"{f}: {g} vs {h}"


def atom_count(g):
    return sum(1 for _ in all_atoms(g))


def test_scoped_qe_agrees_with_the_whole_matrix_reference_and_is_never_longer():
    rng = random.Random(2024)
    cases = []
    for mode in TheoryMode:
        for i in range(300):
            cases.append((random_quantified_formula(rng, MODEL, mode, quantifiers=1 + i % 3), mode))
    eliminate = {Sort.HOME: eliminate_exists_home, Sort.QUOTIENT: eliminate_exists_quotient}
    for mode in TheoryMode:  # single-quantifier conjunctions; ovs has no quotient sort
        context = [hvar(1), hvar(2)] + ([] if mode is TheoryMode.OVS else [qvar(1)])
        for i in range(120):
            bound = hvar(0) if mode is TheoryMode.OVS or i % 2 else qvar(0)
            conj = random_conjunction(rng, bound, context, MODEL, mode)
            f = Exists(bound, make_and(conj))
            assert eliminate[bound.sort](conj, bound, mode) == qe(f, mode)
            cases.append((f, mode))
    for text, mode, _ in CHAINS.values():
        cases += [(parse(text(n), mode), mode) for n in range(1, 7)]
    # alt's ∀ bodies reach the scoped step as negations, whole; n=6 costs about 16 s
    cases += [(parse(alt_text(n)), TheoryMode.POVS) for n in range(1, 6)]
    shorter = 0
    for f, mode in cases:
        g, h = qe(f, mode), reference_qe(f, mode)
        assert is_quantifier_free(g)
        assert_equivalent(g, h, f, rng)
        assert atom_count(g) <= atom_count(h), f"{f}: {g} is longer than {h}"
        shorter += atom_count(g) < atom_count(h)
    assert shorter > 0  # the pruned pulled-out conjuncts do shorten some answers


@pytest.mark.parametrize(
    "text,answer",
    [
        # A & (A | B) is A: without the rule this is x4 < 1 & (x4 < 1 | x3 < x2)
        ("E x1. (x4 < 1 & (x4 < 1 | x3 < x1 & x1 < x2))", "x4 < 1"),
        # !A & (A | B) is !A & B
        ("E x1. (x4 != 0 & (x4 = 0 | x4 < 1) & x3 < x1)", "!(x4 = 0) & x4 < 1"),
        # a weak order reads as its normal form: x4 <= 0 & x4 = 0 is x4 = 0
        ("E x1. (!(0 < x4) & x4 = 0 & x3 < x1)", "x4 = 0"),
        ("E x1. ((x4 != 0 | !(0 < x4)) & x3 < x1)", "true"),
        # A | A & B is A
        ("E x1. ((x4 < 1 | x4 < 1 & x3 < 2) & x3 < x1)", "x4 < 1"),
        # A & (!A | B) is A & B
        ("E x0. (Q(x1) & (x0 < 0 & !Q(x1) | x0 = x2 & x2 < 0))", "Q(x1) & x2 < 0"),
    ],
)
def test_pulled_out_conjuncts_are_pruned_as_the_whole_matrix_dnf_prunes_them(text, answer):
    f = parse(text)
    assert render(qe(f)) == answer
    assert render(reference_qe(f, TheoryMode.POVS)) == answer


def test_a_pulled_out_quotient_equation_prunes_its_negation_from_a_disjunct():
    mode = TheoryMode.POVS_PREC
    f = parse("E u0. (u1 = 0 & (u0 prec 0 & u1 != 0 | u0 = u2 & u2 prec 0))", mode)
    assert render(qe(f, mode)) == "u1 = 0 & u2 prec 0"
    assert render(reference_qe(f, mode)) == "u1 = 0 & u2 prec 0"


def test_a_disjunct_loses_its_literals_that_are_pulled_out_conjuncts():
    # A & (A & B | A & C) is A & (B | C), one atom shorter than the whole-matrix DNF
    f = parse("E x0. (x1 = 0 & x0 = x1 & x0 = 0 & !(x0 < x2))")
    assert render(qe(f)) == "x1 = 0 & (x2 = 0 | x2 < 0)"
    assert render(reference_qe(f, TheoryMode.POVS)) == "x1 = 0 & x2 = 0 | x1 = 0 & x2 < 0"


@pytest.mark.parametrize("n", range(1, 11))
def test_prec_chain_answers_its_closed_form(n):
    text, mode, answer = CHAINS["prec_chain"]
    assert render(qe(parse(text(n), mode), mode)) == answer


@pytest.mark.parametrize("family", sorted(CHAINS))
def test_nested_chains_build_a_few_small_dnfs(monkeypatch, family):
    # with the whole matrix in DNF, n=10 built 3,068 clauses (largest
    # 1,024) for chain and 2,046 for prec_chain
    sizes = []
    dnf = qe_module.dnf_clauses

    def counted(f):
        clauses = dnf(f)
        sizes.append(len(clauses))
        return clauses

    monkeypatch.setattr(qe_module, "dnf_clauses", counted)
    text, mode, _ = CHAINS[family]
    qe(parse(text(10), mode), mode)
    assert max(sizes) <= 4
    assert sum(sizes) < 50


@pytest.mark.parametrize("family", sorted(CHAINS))
def test_long_chains_eliminate_within_time_gate(family):
    text, mode, answer = CHAINS[family]
    f = parse(text(40), mode)
    start = time.perf_counter()
    g = qe(f, mode)
    elapsed = time.perf_counter() - start
    assert_equivalent(g, parse(answer, mode), f, random.Random(40), count=20)
    assert elapsed < 5.0, f"{family} n=40 took {elapsed:.1f} s"


def test_conjuncts_pulled_out_of_a_scope_get_no_evaluation_plan(monkeypatch):
    # the occurrence test that sorts a body's conjuncts reads their atoms
    # without compiling a plan onto the conjuncts it pulls out
    seen = []
    prune = qe_module._prune
    monkeypatch.setattr(qe_module, "_prune", lambda cs: seen.extend(cs) or prune(cs))
    text, mode, _ = CHAINS["chain"]
    assert render(qe(parse(text(3), mode), mode)) == "2/3*r3 < x92 & x91 < 2/3*r3 | x91 < x92"
    pulled = parse("Q(x1 - r2) | x1 = 2/3*r3")
    assert pulled in seen
    assert all(getattr(c, "_plan", None) is None for c in seen), [str(c) for c in seen]


def count_fractions(monkeypatch) -> list[int]:
    """A one-item counter of the Fractions built from now on."""
    made = [0]
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+ builds arithmetic results here
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, numerator, denominator):
            made[0] += 1
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return made


def test_elimination_and_evaluation_build_no_fraction(monkeypatch):
    # the eleven ladder shapes, and seeded random formulas of every mode; the
    # inputs and assignments are built before counting starts
    rng = random.Random(2626)
    cases = [(parse(chain_text(n)), TheoryMode.POVS) for n in range(2, 6)]
    cases += [(parse(alt_text(n)), TheoryMode.POVS) for n in (1, 2)]
    cases += [(parse(prec_chain_text(n), TheoryMode.POVS_PREC), TheoryMode.POVS_PREC) for n in range(1, 6)]
    for mode in TheoryMode:
        cases += [(random_quantified_formula(rng, MODEL, mode, quantifiers=1 + i % 3), mode) for i in range(60)]
    sigmas = [
        [random_assignment(rng, sorted(free_variables(f), key=lambda v: v.sort_key()), MODEL) for _ in range(3)]
        for f, _ in cases
    ]
    made = count_fractions(monkeypatch)
    assert Fraction(1, 3) * 3 == 1 and made[0] == 2  # the counter sees both ways of building
    made[0] = 0
    answers = [qe(f, mode) for f, mode in cases]
    truths = [eval_formula(g, sigma) for g, ss in zip(answers, sigmas) for sigma in ss]
    assert made[0] == 0
    assert any(truths) and not all(truths)
