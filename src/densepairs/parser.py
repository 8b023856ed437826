"""Text front end for the two-sorted formula language.

Grammar (whitespace-insensitive)::

    rational := ['-'] digits ['/' digits]
    hvar     := 'x' digits           qvar := 'u' digits
    basis    := 'r' prime            (r2, r3, r5, ... name square roots)
    hterm    := signed sum of [rational '*'] (hvar | basis | rational)
    qterm    := signed sum of [rational '*'] qvar and 'pi(' hterm ')' parts
    atom     := hterm ('='|'<'|'<='|'>'|'>=') hterm | 'Q(' hterm ')'
              | qterm ('='|'!=') qterm | qterm ('prec'|'preceq') qterm
    formula  := 'true' | 'false' | atom | '!' formula
              | formula ('&'|'|'|'->') formula
              | ('E'|'A') (hvar|qvar) '.' formula | '(' formula ')'

Precedence is ``!`` over ``&`` over ``|`` over ``->``; quantifier scope
extends maximally to the right.  ``<=``, ``>=``, ``preceq`` and ``->``
are surface syntax, desugared while parsing; the literal 0 may stand for
the zero of either sort.
"""

from __future__ import annotations

import re
from typing import NamedTuple
from fractions import Fraction

from .errors import ParseError, SortError
from .formulas import (
    FALSE,
    TRUE,
    Exists,
    Forall,
    Formula,
    TheoryMode,
    admit,
    home_eq,
    home_lt,
    in_q,
    make_and,
    make_not,
    make_or,
    quot_eq,
    quot_prec,
    render,  # parser.render, the inverse of parse up to normalization
)
from .model import MAX_DIGITS, ModelElement, QuotientElement, radicand_problem
from .terms import HomeTerm, QuotientTerm, Sort, Variable

_DIGITS = "0123456789"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]+\d*)"
    r"|(?P<op>->|<=|>=|!=|[=<>!&|().+\-*/])|(?P<bad>\S))"
)
_VARIABLE_RE = re.compile(r"([xu])(\d+)")
_BASIS_RE = re.compile(r"r(\d+)")


class _Token(NamedTuple):
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        if kind == "bad":
            raise ParseError(m.start(kind), f"unexpected character {word!r}")
        # a numeral, or the digits ending a name: int() refuses longer ones
        if len(word) > MAX_DIGITS and len(word) - len(word.rstrip(_DIGITS)) > MAX_DIGITS:
            raise ParseError(m.start(kind), f"a number longer than {MAX_DIGITS} digits")
        tokens.append(_Token(kind, word, m.start(kind)))
    tokens.append(_Token("end", "", len(text)))
    return tokens


# the atoms each relation between two terms stands for; the weak ones are
# desugared to strict-or-equal
_HOME_RELATIONS = {
    "=": home_eq,
    "!=": lambda t: make_not(home_eq(t)),
    "<": home_lt,
    ">": lambda t: home_lt(-t),
    "<=": lambda t: make_or([home_lt(t), home_eq(t)]),
    ">=": lambda t: make_or([home_lt(-t), home_eq(t)]),
}
_QUOTIENT_RELATIONS = {
    "=": quot_eq,
    "!=": lambda s: make_not(quot_eq(s)),
    "prec": quot_prec,
    "preceq": lambda s: make_or([quot_prec(s), quot_eq(s)]),
}
# how tightly each infix connective binds; '->' groups to the right
_BINARY = {"&": 3, "|": 2, "->": 1}


def _reduce(values: list[Formula], ops: list, value: Formula, strength: int) -> Formula:
    """Apply to `value` the infix connectives on top of `ops` that bind
    tighter than `strength`; a run of '&' or of '|' becomes one junction."""
    while ops and _BINARY.get(ops[-1], 0) > strength:
        op = ops.pop()
        if op == "->":
            value = make_or([make_not(values.pop()), value])
            continue
        run = [value, values.pop()]
        while ops and ops[-1] == op:
            ops.pop()
            run.append(values.pop())
        value = (make_and if op == "&" else make_or)(run[::-1])
    return value


class _ParsedTerm(NamedTuple):  # a term as it is read
    coeffs: dict  # over the variables of both sorts, home ones under pi(...) included
    const: dict  # the constant outside pi, by radicand
    pi_const: dict  # the constant under pi, by radicand
    sorts: set  # the sorts met outside constants (Sort.QUOTIENT for a pi)
    pos: int  # where the term starts


def _home_only(term: _ParsedTerm) -> _ParsedTerm:
    if Sort.QUOTIENT in term.sorts:
        raise SortError(f"quotient-sort material in a home-sort term (position {term.pos})")
    return term


def _home_term(term: _ParsedTerm) -> HomeTerm:
    return HomeTerm._of(_home_only(term).coeffs, term.const)


def _quotient_term(term: _ParsedTerm) -> QuotientTerm:
    if Sort.HOME in term.sorts:
        raise SortError(
            f"home variable outside pi(...) in a quotient-sort term (position {term.pos})"
        )
    if any(term.const.values()):
        raise SortError(
            f"nonzero home-sort constant in a quotient-sort term (position {term.pos}); "
            "wrap it in pi(...)"
        )
    # pi kills the rational part of the constant, key 0
    return QuotientTerm._of(term.coeffs, {k: q for k, q in term.pi_const.items() if k})


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    # -- token plumbing ------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def next(self) -> _Token:
        tok = self.tokens[self.idx]
        if tok.kind != "end":
            self.idx += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(tok.pos, f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return tok

    def expect_end(self) -> None:
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(tail.pos, f"unexpected trailing input {tail.text!r}")

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    # -- formulas --------------------------------------------------------

    def parse_formula(self) -> Formula:
        """Precedence climbing on an explicit operator stack.

        `ops` holds '!', '(', the infix connectives and the open
        quantifiers, whose scope extends as far right as it can: only ')'
        or the end of the input closes them.  `values` holds the left
        operand of each infix connective in `ops`.
        """
        values: list[Formula] = []
        ops: list = []
        while True:
            tok = self.peek()
            if self.at_op("!", "("):
                ops.append(self.next().text)
                continue
            if tok.kind == "name" and tok.text in ("E", "A"):
                self.next()
                ops.append((tok.text, self.parse_quantified_variable()))
                self.expect_op(".")
                continue
            value = self.parse_literal()
            while True:  # value is a whole operand: apply '!', then close what ends here
                while ops and ops[-1] == "!":
                    ops.pop()
                    value = make_not(value)
                tok = self.peek()
                strength = _BINARY.get(tok.text, 0) if tok.kind == "op" else 0
                value = _reduce(values, ops, value, strength)
                if strength:
                    values.append(value)
                    ops.append(self.next().text)
                    break
                if not ops:
                    return value
                top = ops.pop()
                if top == "(":
                    self.expect_op(")")
                else:
                    value = (Exists if top[0] == "E" else Forall)(top[1], value)

    def parse_quantified_variable(self) -> Variable:
        tok = self.next()
        v = self.variable(tok)
        if v is None:
            raise ParseError(tok.pos, f"expected a variable after quantifier, found {tok.text!r}")
        return v

    def parse_literal(self) -> Formula:
        tok = self.peek()
        if tok.kind == "name" and tok.text in ("true", "false"):
            self.next()
            return TRUE if tok.text == "true" else FALSE
        if tok.kind == "name" and tok.text == "Q" and self.tokens[self.idx + 1].text == "(":
            self.next()
            self.expect_op("(")
            term = self.parse_term()
            self.expect_op(")")
            return in_q(_home_term(term))

        left = self.parse_term()
        op = self.next()
        if op.kind != "op" and not (op.kind == "name" and op.text in ("prec", "preceq")):
            raise ParseError(op.pos, f"expected a relation, found {op.text or 'end of input'!r}")
        right = self.parse_term()
        rel = op.text

        if rel in ("prec", "preceq") or Sort.QUOTIENT in left.sorts | right.sorts:
            s = _quotient_term(left) - _quotient_term(right)
            if rel not in _QUOTIENT_RELATIONS:
                raise SortError(f"relation {rel!r} does not apply to quotient-sort terms")
            return _QUOTIENT_RELATIONS[rel](s)
        t = _home_term(left) - _home_term(right)
        if rel not in _HOME_RELATIONS:
            raise ParseError(op.pos, f"unknown relation {rel!r}")
        return _HOME_RELATIONS[rel](t)

    # -- terms -----------------------------------------------------------

    def parse_term(self) -> _ParsedTerm:
        """A signed sum; the arguments of pi(...) nest on an explicit stack."""
        enclosing = []  # (term, scale) of each sum whose pi( is still open
        term = _ParsedTerm({}, {}, {}, set(), self.peek().pos)
        sign = self.parse_sign()
        while True:
            tok = self.next()
            if tok.kind not in ("num", "name"):
                raise ParseError(tok.pos, f"expected a term, found {tok.text or 'end of input'!r}")
            q = sign * self.parse_rational(tok) if tok.kind == "num" else sign
            if tok.kind == "num" and self.at_op("*"):
                self.next()
                tok = self.next()
                if tok.kind != "name":
                    raise ParseError(
                        tok.pos, f"expected a variable or basis symbol, found {tok.text!r}"
                    )
            if tok.kind == "num":
                term.const[0] = term.const.get(0, 0) + q
            elif tok.text == "pi":
                self.expect_op("(")
                enclosing.append((term, q))
                term = _ParsedTerm({}, {}, {}, set(), self.peek().pos)
                sign = self.parse_sign()
                continue
            elif (v := self.variable(tok)) is not None:
                term.sorts.add(v.sort)
                term.coeffs[v] = term.coeffs.get(v, 0) + q
            elif (m := _BASIS_RE.fullmatch(tok.text)) is None:
                raise ParseError(tok.pos, f"unknown symbol {tok.text!r}")
            elif problem := radicand_problem(int(m.group(1))):
                raise ParseError(tok.pos, f"{tok.text} {problem}")
            else:
                term.const[int(m.group(1))] = term.const.get(int(m.group(1)), 0) + q
            while not self.at_op("+", "-"):  # the sum ends: close the pi( it is in
                if not enclosing:
                    return term
                self.expect_op(")")
                inner = _home_only(term)
                term, q = enclosing.pop()
                term.sorts.add(Sort.QUOTIENT)
                for v, c in inner.coeffs.items():
                    term.coeffs[v] = term.coeffs.get(v, 0) + q * c
                for k, c in inner.const.items():
                    term.pi_const[k] = term.pi_const.get(k, 0) + q * c
            sign = 1 if self.next().text == "+" else -1

    def parse_sign(self) -> int:
        if self.at_op("+", "-"):
            return 1 if self.next().text == "+" else -1
        return 1

    def parse_rational(self, tok: _Token) -> int | Fraction:
        numerator = int(tok.text)
        if self.at_op("/"):
            self.next()
            den = self.next()
            if den.kind != "num":
                raise ParseError(den.pos, f"expected a denominator, found {den.text!r}")
            if int(den.text) == 0:
                raise ParseError(den.pos, "zero denominator")
            return Fraction(numerator, int(den.text))
        return numerator

    def variable(self, tok: _Token) -> Variable | None:
        """The variable a name token denotes, if any."""
        m = _VARIABLE_RE.fullmatch(tok.text)
        if m is None:
            return None
        return Variable(Sort.HOME if m.group(1) == "x" else Sort.QUOTIENT, int(m.group(2)))


def parse(text: str, mode: TheoryMode = TheoryMode.POVS) -> Formula:
    """Parse a formula and `admit` it to `mode`'s language, binders renamed apart.

    Every symbol of every mode is read, so an input that is both ill-sorted
    and outside the mode raises the SortError met first."""
    p = _Parser(text)
    f = p.parse_formula()
    p.expect_end()
    return admit(f, mode)


def parse_element(text: str) -> ModelElement:
    """Parse a ground home-sort constant like ``3/2 + 1/3*r2 - r5``."""
    return _parse_constant(text, _home_term)


def parse_quotient_element(text: str) -> QuotientElement:
    """Parse a ground quotient-sort constant like ``pi(r2 + 2*r3)``."""
    return _parse_constant(text, _quotient_term)


def _parse_constant(text: str, read):
    p = _Parser(text)
    term = p.parse_term()
    p.expect_end()
    t = read(term)
    if not t.is_ground():
        raise ParseError(term.pos, "expected a constant, found variables")
    return t.constant
