"""Randomized agreement check between the eliminator and the oracles.

The symbolic eliminator and the witness-search oracles were built
independently, so on every random single-quantifier conjunction and
every random assignment of its parameters they must give the same
verdict.  This module sits above both, which never import each other.
"""

from __future__ import annotations

import random

from .evaluate import eval_formula
from .formulas import TheoryMode
from .model import Model
from .oracles import oracle_exists_home, oracle_exists_quotient
from .qe import eliminate_exists_home, eliminate_exists_quotient
from .randgen import random_assignment, random_conjunction
from .terms import Sort, Variable

ASSIGNMENTS_PER_INSTANCE = 10


def selfcheck(seed: int, count: int, mode: TheoryMode, model: Model) -> dict:
    """Check count random instances, bit-reproducibly from seed; the report
    counts checks, agreements and disagreements."""
    rng = random.Random(seed)
    checks = agreements = 0
    for _ in range(count):
        bound_sort = Sort.HOME if (mode is TheoryMode.OVS or rng.random() < 0.6) else Sort.QUOTIENT
        bound = Variable(bound_sort, 0)
        context = [Variable(Sort.HOME, 1), Variable(Sort.HOME, 2)]
        if mode is not TheoryMode.OVS:
            context.append(Variable(Sort.QUOTIENT, 1))
        literals = random_conjunction(rng, bound, context, model, mode)
        if bound_sort is Sort.HOME:
            eliminated = eliminate_exists_home(literals, bound, mode)
        else:
            eliminated = eliminate_exists_quotient(literals, bound, mode)
        for _ in range(ASSIGNMENTS_PER_INSTANCE):
            sigma = random_assignment(rng, context, model)
            symbolic = eval_formula(eliminated, sigma)
            if bound_sort is Sort.HOME:
                concrete = oracle_exists_home(literals, bound, sigma)[0]
            else:
                concrete = oracle_exists_quotient(
                    literals, bound, sigma, ordered=(mode is TheoryMode.POVS_PREC)
                )[0]
            checks += 1
            agreements += symbolic == concrete
    return {
        "seed": seed,
        "count": count,
        "checks": checks,
        "agreements": agreements,
        "disagreements": checks - agreements,
    }
