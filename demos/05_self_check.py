"""The two independent routes to the same answer.

The symbolic eliminator rewrites a single-quantifier formula to a
quantifier-free one; the model oracle searches for an actual witness by
density arguments.  They were built separately and must always agree;
this harness hammers them with random instances through
`densepairs.selfcheck`, the same loop as `densepairs oracle-check` on
the command line.
"""

from densepairs import Model, TheoryMode
from densepairs.selfcheck import selfcheck


def main(seed: int = 2026, instances: int = 200) -> None:
    report = selfcheck(seed, instances, TheoryMode.POVS, Model(3))
    print(f"checks: {report['checks']}, disagreements: {report['disagreements']}")
    if report["disagreements"]:
        raise SystemExit("eliminator and oracle disagree; this is a bug")


if __name__ == "__main__":
    main()
