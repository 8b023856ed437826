"""The text layers on integer rows: the parser and the literal text that
orders DNF literals give the same outputs as the tree-walk code they replace."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from densepairs import formulas, terms
from densepairs.evaluate import eval_formula
from densepairs.formulas import Atom, AtomKind, Not, TheoryMode, free_variables, literal_text, make_not
from densepairs.model import Model, ModelElement, QuotientElement
from densepairs.parser import parse
from densepairs.qe import qe
from densepairs.randgen import random_assignment, random_literal
from densepairs.terms import HomeTerm, QuotientTerm, hvar, qvar
from reference_text import reference_literal_text

ROOT = Path(__file__).resolve().parents[1]
MODEL = Model(3)

# `python tests/parse_digest.py` at the commit before the one-pass parser
PARSE_DIGEST = "21000 c85077bc107d07cd02cbfdff2358bfa3e889be1f6f25b0d70866e14d7174eb60\n"


def test_parse_outcomes_match_the_pinned_digest_under_two_hash_seeds():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.Popen(
            [sys.executable, str(ROOT / "tests" / "parse_digest.py")],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(env, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "4242")
    ]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs == [PARSE_DIGEST, PARSE_DIGEST]


_X2, _U1 = hvar(2), qvar(1)
_HALF_THIRD = HomeTerm({_X2: Fraction(3, 6)}, ModelElement({2: Fraction(-2, 6)}))

# (literal, its text), the texts as the tree-walk renderer wrote them
PINNED = [
    (Atom(AtomKind.QUOT_EQ, QuotientTerm()), "pi(0) = 0"),  # a zero quotient payload
    (Not(Atom(AtomKind.QUOT_EQ, QuotientTerm())), "pi(0) != 0"),
    (parse("!(x1 = 3/6*x2 - 2/6*r2)"), "!(x1 + 1/3*r2 = 1/2*x2)"),  # a negated home equation
    (parse("!Q(x1 - r3)"), "!Q(x1 - r3)"),
    (parse("Q(2/4*x2 - 1/6 + 3/9*r5)"), "Q(x2 - 1/3 + 2/3*r5)"),
    (parse("u1 != pi(2/4*x1 - 3/9*r2)"), "u1 + pi(1/3*r2) != pi(1/2*x1)"),  # pi(...) on both sides
    (
        parse("pi(3/4*x2 - r3) + 2/6*u2 != 5/10*u1 + pi(1/6*x1 + 2/8*r2)"),
        "u1 + pi(1/3*x1 + 1/2*r2 + 2*r3) != 2/3*u2 + pi(3/2*x2)",
    ),
    (parse("4/6*x2 - 1/4*r3 < 2/10*x1"), "10/3*x2 < x1 + 5/4*r3"),
    (Atom(AtomKind.HOME_LT, _HALF_THIRD), "1/2*x2 < 1/3*r2"),  # halves that reduce differently
    (Not(Atom(AtomKind.HOME_EQ, _HALF_THIRD)), "!(1/2*x2 = 1/3*r2)"),
    (
        Atom(AtomKind.QUOT_PREC, QuotientTerm({_U1: Fraction(-3, 6)}, HomeTerm({_X2: Fraction(4, 6)}),
                                              QuotientElement({3: Fraction(-2, 6)}))),
        "pi(2/3*x2) prec 1/2*u1 + pi(1/3*r3)",
    ),
    (parse("r2 < r3"), "r2 < r3"),  # radicand-only payloads
    (parse("3/4*r3 = 1/6*r2 + 1/2"), "1 + 1/3*r2 = 3/2*r3"),
    (parse("pi(r2) prec pi(2/4*r3)", TheoryMode.POVS_PREC), "pi(r2) prec pi(1/2*r3)"),
    (parse("pi(2/3*r3) != pi(r2)"), "pi(r2) != pi(2/3*r3)"),
    (Atom(AtomKind.QUOT_EQ, -QuotientTerm({}, HomeTerm(), QuotientElement({2: 1}))), "0 = pi(r2)"),
    (Atom(AtomKind.HOME_LT, HomeTerm({}, ModelElement({0: Fraction(-2, 4), 3: Fraction(3, 9)}))), "1/3*r3 < 1/2"),
]


@pytest.mark.parametrize("lit,text", PINNED, ids=[text for _, text in PINNED])
def test_pinned_literal_texts(lit, text):
    assert reference_literal_text(lit) == text
    assert literal_text(lit) == text == str(lit)


def test_literal_text_agrees_with_the_tree_walk_renderer_on_seeded_literals():
    rng = random.Random(2727)
    variables = [hvar(1), hvar(2), hvar(3), qvar(1), qvar(2)]
    checked = 0
    for i in range(2400):
        mode = list(TheoryMode)[i % 3]
        lit = random_literal(rng, variables, MODEL, mode)
        atom = lit.sub if isinstance(lit, Not) else lit
        # the payload rescaled, so the halves are not normalized
        q = Fraction(rng.choice([-6, -3, -2, 2, 4, 9]), rng.choice([1, 4, 6, 10]))
        scaled = Atom(atom.kind, atom.payload.scale(q))
        for each in (lit, make_not(lit), scaled, make_not(scaled)):
            assert literal_text(each) == reference_literal_text(each), each
            checked += 1
    assert checked >= 5000


# The qe_families shapes of the benchmark, with fixed constants, and their answers.
def _chain(n):
    xs = [f"x{i}" for i in range(1, n + 1)]
    parts = ["x91 < x1"] + [f"{a} < {b}" for a, b in zip(xs, xs[1:])] + [f"{xs[-1]} < x92"]
    parts += [f"(Q({x} - 3/2 - r2) | {x} = 1 - 2/3*r3)" for x in xs]
    return "".join(f"E {x}. " for x in xs) + "(" + " & ".join(parts) + ")", "x91 < x92", TheoryMode.POVS


def _alt(n):
    conj = [f"(x1 < x{90 + i} | x2 > x{93 + i} | Q(x1 - x2 + x{96 + i}))" for i in range(1, n + 1)]
    return f"E x1. A x2. (x2 < x1 | ({' & '.join(conj)}))", "true", TheoryMode.POVS


def _prec_chain(n):
    us = [f"u{i}" for i in range(1, n + 1)]
    parts = ["u91 prec u1"] + [f"{a} prec {b}" for a, b in zip(us, us[1:])] + [f"{us[-1]} prec u92"]
    parts += [f"({u} != pi(r2 - 1/2*r3) | {u} prec pi(2*r3))" for u in us]
    return "".join(f"E {u}. " for u in us) + "(" + " & ".join(parts) + ")", "u91 prec u92", TheoryMode.POVS_PREC


# alt n = 3 and 4 build the largest DNFs here (64 and 224 clauses), in milliseconds
SHAPES = [(_chain, n) for n in range(1, 6)] + [(_alt, n) for n in range(1, 5)] + [(_prec_chain, n) for n in range(1, 6)]


def test_qe_orders_dnf_literals_without_the_tree_walk(monkeypatch):
    rng = random.Random(27)
    cases = []
    for shape, n in SHAPES:
        text, closed, mode = shape(n)
        answer, closed = qe(parse(text, mode), mode), parse(closed, mode)
        free = sorted(free_variables(parse(text, mode)), key=lambda v: v.sort_key())
        for _ in range(4):
            sigma = random_assignment(rng, free, MODEL)
            assert eval_formula(answer, sigma) == eval_formula(closed, sigma), (shape.__name__, n)
        cases.append((text, mode, answer))

    def refuse(*args):
        raise AssertionError("the tree-walk renderer was called")

    monkeypatch.setattr(formulas, "render", refuse)
    monkeypatch.setattr(terms._Term, "halves", refuse, raising=False)
    for text, mode, answer in cases:
        assert qe(parse(text, mode), mode) == answer
