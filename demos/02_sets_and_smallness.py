"""Canonical decomposition of unary definable sets.

Every definable subset of the line is a finite set of points plus
finitely many pieces of the form (a, b) intersected with finitely many
cosets of Q (small pieces) or the complement of finitely many cosets
(large pieces).  The decomposition is canonical: any two formulas
defining the same set produce the same value.  Its pieces are the
near-interior of the set and its points the near-frontier.
"""

from densepairs import (
    decompose,
    generic_type_contains,
    hvar,
    is_small,
    parse,
    qvar,
)

SETS = [
    "Q(x1)",
    "0 < x1 & x1 < 1",
    "x1 = 1 | (!Q(x1) & x1 > 0)",
    "Q(x1) | x1 = r2",
    "!Q(x1) & x1 != r2",
    "E x2. (x1 < x2 & x2 < x1 + 1 & Q(x2 - x1))",
]


def main():
    x = hvar(1)
    for text in SETS:
        d = decompose(parse(text), x)
        print(f"  {text}")
        for line in str(d).splitlines():
            print(f"    {line}")
        print(f"    small: {is_small(d)}   frontier: {[str(m) for m in d.points]}")
        print()

    print("-- generic type membership over the quotient sort --")
    for text in ["u1 != pi(r2)", "u1 = 0", "u1 = u1"]:
        value = generic_type_contains(parse(text), qvar(1))
        print(f"  {text}  in the generic type: {value}")


if __name__ == "__main__":
    main()
