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

The token texts of one regex pass are read by index.  A literal's two
sides go straight into one integer row of left - right: a summand's
coefficient a/b (its sign and numeral times the coefficient of the pi(...)
it is in) adds a * (d / b) to the numerator of its variable or radicand,
d first growing to a multiple of b.  What each side holds outside pi then
decides the literal's sort and sort errors; the row is reduced only when
the literal's term is built.
"""

from __future__ import annotations

import re
from itertools import islice
from math import gcd

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
# a token: a numeral, a name, a two-character operator or any other character
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z]+\d*|->|<=|>=|!=|\S)")
_BAD = r"[^\s\dA-Za-z=<>!&|().+\-*/]"  # a character no token starts with
_BAD_RE = re.compile(_BAD)
# a text with a bad character, or a digit run long enough to be refused
_SUSPECT_RE = re.compile(rf"{_BAD}|\d{{{MAX_DIGITS + 1}}}")
_VARIABLE_RE = re.compile(r"([xu])(\d+)")
_BASIS_RE = re.compile(r"r(\d+)")
_HOME = Sort.HOME


def _tokenize(text: str) -> list[str]:
    """The token texts of one regex pass, then "" for the end of the input.
    A character no token starts with, or a numeral too long for int(), is
    refused at the first token that holds one."""
    if _SUSPECT_RE.search(text):  # rare: find the token to refuse, in order
        for m in _TOKEN_RE.finditer(text):
            word = m.group(1)
            if _BAD_RE.fullmatch(word):
                raise ParseError(m.start(1), f"unexpected character {word!r}")
            # a numeral, or the digits ending a name: int() refuses longer ones
            if len(word) > MAX_DIGITS and len(word) - len(word.rstrip(_DIGITS)) > MAX_DIGITS:
                raise ParseError(m.start(1), f"a number longer than {MAX_DIGITS} digits")
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
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


class _Parser:
    """One parse: an index into the token texts, the row (`d`, `v` over
    variables, `n` over radicands) of the literal being read and the names
    interned so far.  A token's position is found only for an error message."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.symbols: dict[str, Variable | int] = {}  # name -> variable or radicand
        self.d, self.v, self.n = 1, {}, {}

    # -- token plumbing ------------------------------------------------

    def pos(self, i: int) -> int:
        """Where token i starts in the text."""
        if i == len(self.toks) - 1:
            return len(self.text)
        return next(islice(_TOKEN_RE.finditer(self.text), i, None)).start(1)

    def fail(self, i: int, message: str):
        raise ParseError(self.pos(i), message)

    def fail_sort(self, start: int, what: str, hint: str = ""):
        raise SortError(f"{what} (position {self.pos(start)}){hint}")

    def expect(self, text: str) -> None:
        tok = self.toks[self.i]
        if tok != text:
            self.fail(self.i, f"expected {text!r}, found {tok or 'end of input'!r}")
        self.i += 1

    def expect_end(self) -> None:
        if tail := self.toks[self.i]:
            self.fail(self.i, f"unexpected trailing input {tail!r}")

    # -- formulas --------------------------------------------------------

    def formula(self) -> Formula:
        """Precedence climbing on an explicit operator stack.

        `ops` holds '!', '(', the infix connectives and the open
        quantifiers, whose scope extends as far right as it can: only ')'
        or the end of the input closes them.  `values` holds the left
        operand of each infix connective in `ops`.
        """
        toks = self.toks
        values: list[Formula] = []
        ops: list = []
        while True:
            tok = toks[self.i]
            if tok == "!" or tok == "(":
                ops.append(tok)
                self.i += 1
                continue
            if tok == "E" or tok == "A":
                tok = toks[self.i + 1]
                if (v := self.variable(tok)) is None:
                    self.fail(self.i + 1, f"expected a variable after quantifier, found {tok!r}")
                ops.append((toks[self.i], v))
                self.i += 2
                self.expect(".")
                continue
            value = self.literal()
            while True:  # value is a whole operand: apply '!', then close what ends here
                while ops and ops[-1] == "!":
                    ops.pop()
                    value = make_not(value)
                tok = toks[self.i]
                strength = _BINARY.get(tok, 0)
                value = _reduce(values, ops, value, strength)
                if strength:
                    values.append(value)
                    ops.append(tok)
                    self.i += 1
                    break
                if not ops:
                    return value
                top = ops.pop()
                if top == "(":
                    self.expect(")")
                else:
                    value = (Exists if top[0] == "E" else Forall)(top[1], value)

    def literal(self) -> Formula:
        toks = self.toks
        tok = toks[self.i]
        if tok == "true" or tok == "false":
            self.i += 1
            return TRUE if tok == "true" else FALSE
        self.d, self.v, self.n = 1, {}, {}
        if tok == "Q" and toks[self.i + 1] == "(":
            self.i += 2
            side = self.term(1)
            self.expect(")")
            return in_q(self.row(HomeTerm, side))

        left = self.term(1)
        at = self.i
        rel = toks[at]
        if not (rel and not rel.isalnum() or rel == "prec" or rel == "preceq"):
            self.fail(at, f"expected a relation, found {rel or 'end of input'!r}")
        self.i += 1
        right = self.term(-1)
        if rel == "prec" or rel == "preceq" or left[2] or right[2]:
            s = self.row(QuotientTerm, left, right)
            if rel not in _QUOTIENT_RELATIONS:
                raise SortError(f"relation {rel!r} does not apply to quotient-sort terms")
            return _QUOTIENT_RELATIONS[rel](s)
        if rel not in _HOME_RELATIONS:
            self.fail(at, f"unknown relation {rel!r}")
        return _HOME_RELATIONS[rel](self.row(HomeTerm))

    # -- terms -----------------------------------------------------------

    def term(self, sign: int) -> tuple[int, bool, bool, bool]:
        """Read a signed sum into the row, times sign; the arguments of
        pi(...) nest on an explicit stack.  Returns (its first token, and
        whether outside pi it has a home variable, quotient-sort material
        and a nonzero constant)."""
        toks, d, v, n = self.toks, self.d, self.v, self.n
        out: dict[int, int] = {}  # the constant outside pi, by radicand
        enclosing = []  # (start, home, quot, sn, sd) of each sum whose pi( is still open
        i = start = self.i
        home = quot = False  # a home variable, quotient-sort material in the sum
        sn, sd = sign, 1  # the sum's coefficient sn / sd
        s = 1  # the sign of the summand
        while True:
            tok = toks[i]
            if i == start and (tok == "+" or tok == "-"):  # a sum may open with a sign
                s, i, tok = 1 if tok == "+" else -1, i + 1, toks[i + 1]
            if not tok.isalnum():
                self.fail(i, f"expected a term, found {tok or 'end of input'!r}")
            i += 1
            a, b, key = s * sn, sd, None  # the summand's coefficient a / b, and what it multiplies
            if tok.isdecimal():
                a *= int(tok)
                if toks[i] == "/":
                    tok = toks[i + 1]
                    if not tok.isdecimal():
                        self.fail(i + 1, f"expected a denominator, found {tok!r}")
                    if int(tok) == 0:
                        self.fail(i + 1, "zero denominator")
                    b *= int(tok)
                    i += 2
                if toks[i] != "*":
                    key = 0  # a rational constant
                elif not (tok := toks[i + 1])[:1].isalpha():
                    self.fail(i + 1, f"expected a variable or basis symbol, found {tok!r}")
                else:
                    i += 2
            if tok == "pi":
                if toks[i] != "(":
                    self.fail(i, f"expected '(', found {toks[i] or 'end of input'!r}")
                enclosing.append((start, home, quot, sn, sd))
                i = start = i + 1
                home, quot, sn, sd, s = False, False, a, b, 1
                continue
            if key is None:
                key = self.symbols.get(tok) or self.symbol(i - 1, tok)
            if type(key) is int:
                into = n if enclosing else out
            else:
                into = v
                home, quot = (True, quot) if key.sort is _HOME else (home, True)
            if d % b:  # bring the row over a denominator b divides
                f = b // gcd(d, b)
                d *= f
                for p in (v, n, out):
                    for k in p:
                        p[k] *= f
            into[key] = into.get(key, 0) + a * (d // b)
            while (tok := toks[i]) != "+" and tok != "-":  # the sum ends: close the pi( it is in
                if not enclosing:
                    self.i, self.d = i, d
                    for k, m in out.items():
                        n[k] = n.get(k, 0) + m
                    return start, home, quot, any(out.values())
                if tok != ")":
                    self.fail(i, f"expected ')', found {tok or 'end of input'!r}")
                if quot:
                    self.fail_sort(start, "quotient-sort material in a home-sort term")
                i += 1
                start, home, quot, sn, sd = enclosing.pop()
                quot = True
            s = 1 if tok == "+" else -1
            i += 1

    def row(self, cls: type, *sides: tuple) -> HomeTerm | QuotientTerm:
        """The term of the row, once each side read by `term` is checked to
        fit cls's sort."""
        for start, home, quot, nonzero in sides:
            if cls is HomeTerm and quot:
                self.fail_sort(start, "quotient-sort material in a home-sort term")
            if cls is QuotientTerm and home:
                self.fail_sort(start, "home variable outside pi(...) in a quotient-sort term")
            if cls is QuotientTerm and nonzero:
                what = "nonzero home-sort constant in a quotient-sort term"
                self.fail_sort(start, what, "; wrap it in pi(...)")
        v = {x: m for x, m in self.v.items() if m}
        # pi kills the rational part of the constant, key 0
        n = {k: m for k, m in self.n.items() if m and (k or cls is HomeTerm)}
        return cls._reduced(self.d, v, n)

    def variable(self, tok: str) -> Variable | None:
        """The variable a name token denotes, if any."""
        v = self.symbols.get(tok)
        if v is None and (m := _VARIABLE_RE.fullmatch(tok)):
            sort = _HOME if m.group(1) == "x" else Sort.QUOTIENT
            v = self.symbols[tok] = Variable(sort, int(m.group(2)))
        return v if type(v) is Variable else None

    def symbol(self, i: int, tok: str) -> Variable | int:
        """The variable or the radicand that name token i denotes."""
        if (v := self.variable(tok)) is not None:
            return v
        if (m := _BASIS_RE.fullmatch(tok)) is None:
            self.fail(i, f"unknown symbol {tok!r}")
        if problem := radicand_problem(int(m.group(1))):
            self.fail(i, f"{tok} {problem}")
        k = self.symbols[tok] = int(m.group(1))
        return k


def parse(text: str, mode: TheoryMode = TheoryMode.POVS) -> Formula:
    """Parse a formula and `admit` it to `mode`'s language, binders renamed apart.

    Every symbol of every mode is read, so an input that is both ill-sorted
    and outside the mode raises the SortError met first."""
    p = _Parser(text)
    f = p.formula()
    p.expect_end()
    return admit(f, mode)


def parse_element(text: str) -> ModelElement:
    """Parse a ground home-sort constant like ``3/2 + 1/3*r2 - r5``."""
    return _parse_constant(text, HomeTerm)


def parse_quotient_element(text: str) -> QuotientElement:
    """Parse a ground quotient-sort constant like ``pi(r2 + 2*r3)``."""
    return _parse_constant(text, QuotientTerm)


def _parse_constant(text: str, cls: type):
    p = _Parser(text)
    side = p.term(1)
    p.expect_end()
    t = p.row(cls, side)
    if not t.is_ground():
        p.fail(side[0], "expected a constant, found variables")
    return t.constant
