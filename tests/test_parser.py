"""Grammar conformance, rendering round trips, and front-end errors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepairs.errors import ModeError, ParseError, SortError
from densepairs.formulas import (
    And,
    Atom,
    AtomKind,
    Exists,
    Not,
    TheoryMode,
    make_and,
    make_not,
    make_or,
)
from densepairs.model import MAX_DIGITS, Model, ModelElement, QuotientElement
from densepairs.parser import parse, parse_element, parse_quotient_element, render
from densepairs.randgen import random_qf_formula
from densepairs.terms import hvar, qvar

MODEL = Model(3)


def test_spec_examples():
    f = parse("E x1. (x1 > 0 & Q(x1))")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)
    kinds = {c.kind for c in f.body.children}
    assert kinds == {AtomKind.HOME_LT, AtomKind.IN_Q}

    g = parse("pi(x1) = u1")
    assert isinstance(g, Atom) and g.kind is AtomKind.QUOT_EQ
    assert g.payload.coeff(qvar(1)) != 0
    assert g.payload.pushed.coeff(hvar(1)) != 0

    with pytest.raises(ModeError):
        parse("u1 prec 0", TheoryMode.POVS)


def test_mixed_sort_atoms_rejected():
    with pytest.raises(SortError):
        parse("x1 = u1")
    with pytest.raises(SortError):
        parse("pi(x1) + x2 = u1")
    with pytest.raises(SortError):
        parse("x1 prec 0", TheoryMode.POVS_PREC)
    with pytest.raises(SortError):
        parse("u1 = 1")
    with pytest.raises(SortError):
        parse("u1 < u2", TheoryMode.POVS_PREC)


def test_zero_is_sort_polymorphic():
    f = parse("u1 = 0")
    assert isinstance(f, Atom) and f.kind is AtomKind.QUOT_EQ
    g = parse("x1 = 0")
    assert isinstance(g, Atom) and g.kind is AtomKind.HOME_EQ


def test_mode_gating():
    with pytest.raises(ModeError):
        parse("Q(x1)", TheoryMode.OVS)
    with pytest.raises(ModeError):
        parse("pi(x1) = u1", TheoryMode.OVS)
    with pytest.raises(ModeError):
        parse("E u1. u1 = u1", TheoryMode.OVS)
    with pytest.raises(ModeError):
        parse("u1 preceq u2", TheoryMode.POVS)
    # prec parses fine in the expansion
    parse("pi(x1) prec u1", TheoryMode.POVS_PREC)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse("x1 < ")
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse("x1 << x2")
    with pytest.raises(ParseError):
        parse("r4 < 1")  # 4 is not prime
    with pytest.raises(ParseError):
        parse("x1 < 1/0")
    with pytest.raises(ParseError):
        parse("(x1 < 1")
    with pytest.raises(ParseError):
        parse("x1 < 2 x2")


@pytest.mark.parametrize(
    "template, position",
    [
        ("E x1. x1 < {}", 11),
        ("E x1. x1 < 1/{}", 13),
        ("E x{0}. x{0} < 1", 2),
        ("E x1. x1 < r{}", 11),
    ],
    ids=["numeral", "denominator", "variable-index", "radicand"],
)
def test_numbers_past_the_digit_limit_are_parse_errors(template, position):
    # int() refuses to read more than MAX_DIGITS digits, with its own message
    with pytest.raises(ParseError) as info:
        parse(template.format("1" * (MAX_DIGITS + 1)))
    assert info.value.position == position
    assert str(info.value) == (
        f"parse error at position {position}: a number longer than {MAX_DIGITS} digits"
    )


def test_a_numeral_of_the_digit_limit_parses():
    f = parse("E x1. x1 < " + "1" * MAX_DIGITS)
    assert f.body.payload.constant.rational() == -int("1" * MAX_DIGITS)


def test_precedence_and_desugaring():
    # ! binds over &, & over |, | over ->
    f = parse("!Q(x1) & x1 < 1 | x1 = 2")
    assert isinstance(f, type(make_or([f, f]))) or f  # shape checked below
    g = parse("(!Q(x1) & x1 < 1) | (x1 = 2)")
    assert f == g
    impl = parse("Q(x1) -> x1 < 1")
    assert impl == make_or([make_not(parse("Q(x1)")), parse("x1 < 1")])
    # implication is right-associative
    chain = parse("Q(x1) -> Q(x2) -> Q(x3)")
    assert chain == parse("Q(x1) -> (Q(x2) -> Q(x3))")
    # weak inequalities desugar to strict-or-equal
    weak = parse("x1 <= x2")
    assert weak == make_or([parse("x1 < x2"), parse("x1 = x2")])
    assert parse("u1 preceq u2", TheoryMode.POVS_PREC) == make_or(
        [parse("u1 prec u2", TheoryMode.POVS_PREC), parse("u1 = u2")]
    )


def test_quantifier_scope_extends_right():
    f = parse("E x1. x1 < x2 & Q(x1)")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_element_literals():
    a = parse_element("3/2 + 1/3*r2 - r5")
    assert a == ModelElement({0: Fraction(3, 2), 2: Fraction(1, 3), 5: Fraction(-1)})
    assert parse_element("0") == ModelElement()
    assert parse_element("-2") == ModelElement.from_rational(-2)
    w = parse_quotient_element("pi(r2 + 2*r3)")
    assert w == QuotientElement({2: Fraction(1), 3: Fraction(2)})
    with pytest.raises(ParseError):
        parse_element("x1 + 1")


def test_scaled_and_repeated_pi_applications_aggregate():
    f = parse("2*pi(x1) - pi(x2) + pi(r2) = u1")
    assert isinstance(f, Atom)
    payload = f.payload
    assert payload.pushed.coeff(hvar(1)) != 0
    assert payload.pushed.coeff(hvar(2)) != 0


def test_render_parse_fixpoint_on_handwritten_corpus():
    corpus = [
        ("E x1. (0 < x1 & x1 < x2 & Q(x1))", TheoryMode.POVS),
        ("A x1. (Q(x1) -> x1 >= 0)", TheoryMode.POVS),
        ("pi(x1) = u1", TheoryMode.POVS),
        ("!Q(2*x1 - 1/2)", TheoryMode.POVS),
        ("u1 != u2 | pi(x1) prec u1", TheoryMode.POVS_PREC),
        ("x1 - 3/2*x2 + r2 < 0", TheoryMode.OVS),
        ("true", TheoryMode.OVS),
        ("E u1. A x1. (pi(x1) != u1 | x1 < 0)", TheoryMode.POVS),
    ]
    for text, mode in corpus:
        f = parse(text, mode)
        assert parse(render(f), mode) == f


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_render_identity_on_random_formulas(seed):
    rng = random.Random(seed)
    variables = [hvar(1), hvar(2), qvar(1), qvar(2)]
    f = random_qf_formula(rng, variables, MODEL, TheoryMode.POVS_PREC, depth=3)
    assert parse(render(f), TheoryMode.POVS_PREC) == f


# The error contract of the front end on malformed, ill-sorted and
# mode-violating input: (theory, input, exception class, message).  Parse
# errors carry their position in the message.  The parser reads every
# symbol of every mode, so an input that is both ill-sorted and outside
# the mode reports its sort error; each such row has a well-sorted twin
# that shows the mode refusal.
PARSE_ERRORS = [
    ("povs", "", ParseError, "parse error at position 0: expected a term, found 'end of input'"),
    ("povs", "   ", ParseError, "parse error at position 3: expected a term, found 'end of input'"),
    ("povs", "x1 < ", ParseError, "parse error at position 5: expected a term, found 'end of input'"),
    ("povs", "x1 << x2", ParseError, "parse error at position 4: expected a term, found '<'"),
    ("povs", "r4 < 1", ParseError, "parse error at position 0: r4 is not a square root of a prime"),
    ("povs", "x1 < r1", ParseError, "parse error at position 5: r1 is not a square root of a prime"),
    ("povs", "x1 < 1/0", ParseError, "parse error at position 7: zero denominator"),
    ("povs", "x1 < 1/x2", ParseError, "parse error at position 7: expected a denominator, found 'x2'"),
    ("povs", "(x1 < 1", ParseError, "parse error at position 7: expected ')', found 'end of input'"),
    ("povs", "x1 < 0 & (x2 < 0", ParseError, "parse error at position 16: expected ')', found 'end of input'"),
    ("povs", "E x1. (x1 < 0", ParseError, "parse error at position 13: expected ')', found 'end of input'"),
    ("povs", "x1 < 2 x2", ParseError, "parse error at position 7: unexpected trailing input 'x2'"),
    ("povs", "x1 < 1)", ParseError, "parse error at position 6: unexpected trailing input ')'"),
    ("povs", "true false", ParseError, "parse error at position 5: unexpected trailing input 'false'"),
    ("povs", "x1 = 1 = 2", ParseError, "parse error at position 7: unexpected trailing input '='"),
    ("povs", "x1 < 3 $", ParseError, "parse error at position 7: unexpected character '$'"),
    ("povs", "E 3. x1 < 0", ParseError, "parse error at position 2: expected a variable after quantifier, found '3'"),
    ("povs", "E x1 x1 < 0", ParseError, "parse error at position 5: expected '.', found 'x1'"),
    ("povs", "A x1.", ParseError, "parse error at position 5: expected a term, found 'end of input'"),
    ("povs", "x1 < y1", ParseError, "parse error at position 5: unknown symbol 'y1'"),
    ("povs", "Q x1", ParseError, "parse error at position 0: unknown symbol 'Q'"),
    ("povs", "Q(x1", ParseError, "parse error at position 4: expected ')', found 'end of input'"),
    ("povs", "x1 * 2 < 0", ParseError, "parse error at position 3: unknown relation '*'"),
    ("povs", "2 * 3 < 0", ParseError, "parse error at position 4: expected a variable or basis symbol, found '3'"),
    ("povs", "!", ParseError, "parse error at position 1: expected a term, found 'end of input'"),
    ("povs", "!!!", ParseError, "parse error at position 3: expected a term, found 'end of input'"),
    ("povs", "-", ParseError, "parse error at position 1: expected a term, found 'end of input'"),
    ("povs", "()", ParseError, "parse error at position 1: expected a term, found ')'"),
    ("povs", "x1 < 0 &", ParseError, "parse error at position 8: expected a term, found 'end of input'"),
    ("povs", "x1 < 0 -> ", ParseError, "parse error at position 10: expected a term, found 'end of input'"),
    ("povs", "x1 < 0 | | x2 < 0", ParseError, "parse error at position 9: expected a term, found '|'"),
    ("povs", "x1 = u1", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("povs", "x1 != u1", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("povs", "pi(x1) + x2 = u1", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("povs", "u1 = x1 + pi(x2)", SortError, "home variable outside pi(...) in a quotient-sort term (position 5)"),
    ("povs", "u1 + x1 - x1 = 0", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("povs", "u1 = 1", SortError, "nonzero home-sort constant in a quotient-sort term (position 5); wrap it in pi(...)"),
    ("povs", "u1 != 2", SortError, "nonzero home-sort constant in a quotient-sort term (position 6); wrap it in pi(...)"),
    ("povs", "u1 = pi(x1) + r2", SortError, "nonzero home-sort constant in a quotient-sort term (position 5); wrap it in pi(...)"),
    ("povs", "pi(1) = 1", SortError, "nonzero home-sort constant in a quotient-sort term (position 8); wrap it in pi(...)"),
    ("povs", "Q(u1)", SortError, "quotient-sort material in a home-sort term (position 2)"),
    ("povs", "Q(pi(x1))", SortError, "quotient-sort material in a home-sort term (position 2)"),
    ("povs", "pi(u1) = 0", SortError, "quotient-sort material in a home-sort term (position 3)"),
    ("povs", "pi(pi(x1)) = u1", SortError, "quotient-sort material in a home-sort term (position 3)"),
    ("povs", "u1 < u2", SortError, "relation '<' does not apply to quotient-sort terms"),
    ("povs", "x1 prec 0", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("povs", "u1 prec 0", ModeError, "prec is not in the language of theory mode povs"),
    ("povs", "pi(x1) prec pi(x2)", ModeError, "prec is not in the language of theory mode povs"),
    ("povs", "u1 preceq u2", ModeError, "prec is not in the language of theory mode povs"),
    ("povs-prec", "u1 < u2", SortError, "relation '<' does not apply to quotient-sort terms"),
    ("povs-prec", "x1 prec 0", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("povs-prec", "u1 <= pi(x1)", SortError, "relation '<=' does not apply to quotient-sort terms"),
    ("povs-prec", "pi(x1) prec x2", SortError, "home variable outside pi(...) in a quotient-sort term (position 12)"),
    ("ovs", "Q(x1)", ModeError, "Q is not in the language of theory mode ovs"),
    ("ovs", "pi(x1) = u1", ModeError, "u1 is not in the language of theory mode ovs"),
    ("ovs", "E u1. u1 = u1", ModeError, "u1 is not in the language of theory mode ovs"),
    ("ovs", "E u1. x1 < 0", ModeError, "u1 is not in the language of theory mode ovs"),
    ("ovs", "u1 < 0", SortError, "relation '<' does not apply to quotient-sort terms"),
    ("ovs", "u1 = 0", ModeError, "u1 is not in the language of theory mode ovs"),
    ("ovs", "x1 prec x2", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("ovs", "pi(x1) prec pi(x2)", ModeError, "prec is not in the language of theory mode ovs"),
    ("ovs", "E x1. x1 < 0 & Q(x1)", ModeError, "Q is not in the language of theory mode ovs"),
    ("ovs", "x1 < 0 | 0 < pi(x1)", SortError, "relation '<' does not apply to quotient-sort terms"),
    ("ovs", "x1 < 0 | 0 = pi(x1)", ModeError, "pi is not in the language of theory mode ovs"),
    ("ovs", "pi(x1) = 0", ModeError, "pi is not in the language of theory mode ovs"),
    ("ovs", "(x1 < 0", ParseError, "parse error at position 7: expected ')', found 'end of input'"),
    ("ovs", "", ParseError, "parse error at position 0: expected a term, found 'end of input'"),
    ("povs", "pi(pi(x1) +) = u1", ParseError, "parse error at position 11: expected a term, found ')'"),
    ("povs", "E x1. E", ParseError, "parse error at position 7: expected a variable after quantifier, found ''"),
    ("povs", "x1 < 0 & E x1", ParseError, "parse error at position 13: expected '.', found 'end of input'"),
    ("povs", "x1 - x1 < u1 - u1", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("povs", "!(x1 < 0", ParseError, "parse error at position 8: expected ')', found 'end of input'"),
    ("povs", "E x1. x1 < 0 )", ParseError, "parse error at position 13: unexpected trailing input ')'"),
    ("povs", "((x1 < 0) x2)", ParseError, "parse error at position 10: expected ')', found 'x2'"),
]

# (parse_element or parse_quotient_element, input, exception class, message)
ELEMENT_ERRORS = [
    ("element", "x1 + 1", ParseError, "parse error at position 0: expected a constant, found variables"),
    ("element", "1 +", ParseError, "parse error at position 3: expected a term, found 'end of input'"),
    ("element", "r4", ParseError, "parse error at position 0: r4 is not a square root of a prime"),
    ("element", "1 2", ParseError, "parse error at position 2: unexpected trailing input '2'"),
    ("element", "", ParseError, "parse error at position 0: expected a term, found 'end of input'"),
    ("element", "pi(r2)", SortError, "quotient-sort material in a home-sort term (position 0)"),
    ("element", "1/0", ParseError, "parse error at position 2: zero denominator"),
    ("element", "u1", SortError, "quotient-sort material in a home-sort term (position 0)"),
    ("quotient", "r2", SortError, "nonzero home-sort constant in a quotient-sort term (position 0); wrap it in pi(...)"),
    ("quotient", "u1", ParseError, "parse error at position 0: expected a constant, found variables"),
    ("quotient", "pi(x1)", ParseError, "parse error at position 0: expected a constant, found variables"),
    ("quotient", "pi(r2) 3", ParseError, "parse error at position 7: unexpected trailing input '3'"),
    ("quotient", "pi(", ParseError, "parse error at position 3: expected a term, found 'end of input'"),
    ("quotient", "", ParseError, "parse error at position 0: expected a term, found 'end of input'"),
    ("quotient", "x1", SortError, "home variable outside pi(...) in a quotient-sort term (position 0)"),
    ("quotient", "pi(u1)", SortError, "quotient-sort material in a home-sort term (position 3)"),
]


@pytest.mark.parametrize("theory,text,error,message", PARSE_ERRORS)
def test_parse_error_contract(theory, text, error, message):
    with pytest.raises(error) as info:
        parse(text, TheoryMode(theory))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("which,text,error,message", ELEMENT_ERRORS)
def test_element_parse_error_contract(which, text, error, message):
    parse_one = parse_element if which == "element" else parse_quotient_element
    with pytest.raises(error) as info:
        parse_one(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_cancelled_constants_keep_the_quotient_sort():
    # only a nonzero home constant is rejected in a quotient-sort term
    assert render(parse("u1 + 1 - 1 = 0")) == "u1 = 0"
    assert render(parse("pi(1) + u1 = 0")) == "u1 = 0"
