"""Canonical codes for definable sets and piecewise-linear functions.

A unary set is coded by its canonical decomposition, near-frontier
points plus near-interior pieces; equality of codes is equality of
sets.  Functional graphs are coded by their slope and intercept
inventory with coset-pattern domains plus finitely many exceptional
points, and the function can be reconstructed from the code.
"""

import json

from densepairs import (
    ModelElement,
    code_function,
    code_unary_set,
    codes_equal,
    hvar,
    parse,
    parse_element,
)
from densepairs.coding import set_code_json


def main():
    x, y = hvar(1), hvar(2)

    a = code_unary_set(parse("0 < x1 & x1 < 1 & Q(x1)"), x)
    b = code_unary_set(parse("0 < x1 & x1 < 1 & pi(x1) = 0"), x)
    print("two formulations of the same set share one code:", codes_equal(a, b))
    print(json.dumps(set_code_json(a), indent=2))

    print()
    print("-- a function that follows one line on Q and another off it --")
    fc = code_function(parse("(Q(x1) & x2 = 2*x1) | (!Q(x1) & x2 = x1)"), x, y)
    for piece in fc.pieces:
        print(f"  slope {piece.slope}, intercept {piece.intercept}, "
              f"domain pieces: {len(piece.domain.pieces)}")
    print(f"  exceptional points: {list(fc.exceptional)}")

    for text in ["1/2", "r2", "3 + r3"]:
        m = parse_element(text)
        print(f"  f({text}) = {fc.value_at(m)}")

    print()
    print("-- a partial function with an isolated graph point --")
    gc = code_function(
        parse("(0 < x1 & x1 < 1 & x2 = 3*x1 + 1) | (x1 = 2 & x2 = 0)"), x, y
    )
    print(f"  pieces: {[(str(p.slope), str(p.intercept)) for p in gc.pieces]}")
    print(f"  exceptional: {[(str(a_), str(b_)) for a_, b_ in gc.exceptional]}")
    print(f"  f(2) = {gc.value_at(ModelElement.from_rational(2))}")
    print(f"  f(5) = {gc.value_at(ModelElement.from_rational(5))}  (outside the domain)")


if __name__ == "__main__":
    main()
