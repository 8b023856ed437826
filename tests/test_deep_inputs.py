"""Inputs nested 20,000 deep: parsed, eliminated and rendered without recursion.

This depth overflows the Python stack in any recursive walk, and a walk
that is quadratic in depth takes minutes on it.
"""

import time

import pytest

from densepairs.cli import run
from densepairs.evaluate import eval_formula
from densepairs.model import ModelElement
from densepairs.parser import parse, render
from densepairs.qe import decide_sentence, qe
from densepairs.terms import hvar

from census import time_cap

DEPTH = 20_000


def _alternation(n):
    # x1 < 0 & (x2 < 0 | (x3 < 0 & (... x0 < 0)))
    head = "".join(f"x{i} < 0 {'&' if i % 2 else '|'} (" for i in range(1, n))
    return head + "x0 < 0" + ")" * (n - 1)


def _implication_chain(n):
    # ((x0 < 0 -> x1 < 0) -> x2 < 0) ... -> xn < 0
    return "(" * n + "x0 < 0" + "".join(f" -> x{i} < 0)" for i in range(1, n + 1))


# name: (text at depth n, rendered qe output, or None when it is the rendered input)
SHAPES = {
    "parentheses": (lambda n: "(" * n + "x1 < 0" + ")" * n, "x1 < 0"),
    "negations": (lambda n: "!" * n + "Q(x1)", "Q(x1)"),
    "distinct-binders": (
        lambda n: "".join(f"E x{i}. " for i in range(1, n + 1)) + "x1 < x2",
        "true",
    ),
    "repeated-binder": (lambda n: "E x1. " * n + "x1 < 0", "true"),
    "alternation": (_alternation, None),
    "implication-chain": (_implication_chain, None),
}


# xi < 0 holds for i = 0 and odd i: each conjunction of the alternation
# holds and each disjunction waits for its right side, so the whole plan
# runs; the implication chain flips with each link and ends false
POINT = {hvar(i): ModelElement.from_rational(-1 if i % 2 or i == 0 else 1) for i in range(DEPTH + 1)}
TRUTH = {"parentheses": True, "negations": True, "alternation": True, "implication-chain": False}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_deep_input_parses_eliminates_and_renders(shape):
    make_text, expected = SHAPES[shape]
    text = make_text(DEPTH)
    start = time.perf_counter()
    f = parse(text)
    shown = render(f)
    assert render(qe(f)) == (shown if expected is None else expected)
    assert render(parse(shown)) == shown
    if expected == "true":
        assert decide_sentence(f) is True
    if shape in TRUTH:
        assert eval_formula(f, POINT) is TRUTH[shape]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{shape} at depth {DEPTH} took {elapsed:.1f} s"


def test_distinct_deep_trees_compare_equal(capsys):
    # `(T) & (T)` makes the conjunction compare its two equal children
    text = _alternation(3_000)
    f = parse(text)
    assert f == parse(text) and f is not parse(text)
    both = f"({text}) & ({text})"
    assert qe(parse(both)) == f
    assert run(["qe", both]) == 0
    assert capsys.readouterr().out == render(f) + "\n"


def test_a_deep_matrix_that_holds_below_every_root_reads_true_at_infinity():
    # x0 < 0 holds as x0 -> -inf whatever the alternation reads, so the ∃
    # step is true; the alternation's DNF would hold about DEPTH / 2 clauses
    # of up to DEPTH / 2 literals each
    text = f"E x0. (({_alternation(DEPTH)}) | x0 < 0)"
    start = time.perf_counter()
    with time_cap(15):  # the DNF route would grow without bound here
        assert render(qe(parse(text))) == "true"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"the alternation under E x0 at depth {DEPTH} took {elapsed:.1f} s"
