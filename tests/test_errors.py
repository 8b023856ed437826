"""Error branches that no other test reaches: each raises its own class,
with the message it is pinned to (or the class alone, where the text
belongs to another layer)."""

import pytest

from densepairs.coding import code_function
from densepairs.errors import (
    ArityError,
    NotConjunctionError,
    ParseError,
    QuantifiedInputError,
    SortError,
)
from densepairs.formulas import TheoryMode, dnf_clauses, to_dnf
from densepairs.model import Model, ModelElement, QuotientElement
from densepairs.oracles import oracle_exists_quotient
from densepairs.parser import parse
from densepairs.qe import split_atom
from densepairs.selfcheck import selfcheck
from densepairs.terms import QuotientTerm, hvar

X1 = hvar(1)

CASES = [
    ("a term with no relation", lambda: parse("x1 x2"), ParseError,
     "parse error at position 3: expected a relation, found 'x2'"),
    ("pi with no parenthesis", lambda: parse("pi x1 = 0"), ParseError,
     "parse error at position 3: expected '(', found 'x1'"),
    ("pi left open", lambda: parse("pi(x1 x2) = 0"), ParseError,
     "parse error at position 6: expected ')', found 'x2'"),
    ("a function of itself", lambda: code_function(parse("x2 = x1"), X1, X1), ArityError,
     "argument and value variables must differ"),
    ("a quotient oracle for a home variable",
     lambda: oracle_exists_quotient([parse("u1 = 0")], X1), SortError,
     "x1 is not a quotient-sort variable"),
    ("a negated literal split as an atom", lambda: split_atom(parse("!Q(x1)")),
     NotConjunctionError, "not an atom: !Q(x1)"),
    ("a negative instance count", lambda: selfcheck(0, -1, TheoryMode.POVS, Model(3)),
     ValueError, "instance count must be nonnegative, got -1"),
    ("a home element as a quotient constant",
     lambda: QuotientTerm.from_element(ModelElement()), TypeError,
     "a QuotientTerm constant is a QuotientElement, not ModelElement"),
    ("a quotient term projected",
     lambda: QuotientTerm.project_term(QuotientTerm.from_element(QuotientElement())),
     SortError, "cannot project a QuotientTerm, only a HomeTerm"),
    ("clauses of a quantified formula", lambda: dnf_clauses(parse("E x1. x1 < x2")),
     QuantifiedInputError, None),
    ("DNF of a quantified formula", lambda: to_dnf(parse("E x1. x1 < x2")),
     QuantifiedInputError, None),
]


@pytest.mark.parametrize(
    "call,cls,message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_error_branch_raises_its_class_and_message(call, cls, message):
    with pytest.raises(cls) as raised:
        call()
    assert type(raised.value) is cls
    if message is not None:
        assert str(raised.value) == message
