"""Seedable random instances for self-checking and the test suite.

Everything here draws only from an explicit random.Random, so a fixed
seed reproduces the same formulas, assignments, and verdicts bit for
bit across runs and platforms.  One term draw, `_random_term`, serves
both sorts: a home term on the home variables, a quotient term on all of
them, the home ones under pi.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .errors import ModeError
from .formulas import (
    KINDS, LANGUAGE, Exists, Forall, Formula, TheoryMode, make_and, make_atom, make_not, make_or
)
from .model import Model, ModelElement, QuotientElement
from .terms import HomeTerm, QuotientTerm, Sort, Variable


def random_rational(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def _random_coeffs(rng: random.Random, keys, span: int) -> dict[int, Fraction]:
    """A random rational on each key with probability 0.6, drawn key by key."""
    return {k: random_rational(rng, span) for k in keys if rng.random() < 0.6}


def random_element(rng: random.Random, model: Model, span: int = 3) -> ModelElement:
    return ModelElement(_random_coeffs(rng, model.radicands, span))


def random_quotient_element(rng: random.Random, model: Model, span: int = 3) -> QuotientElement:
    return QuotientElement(_random_coeffs(rng, model.primes, span))


def random_assignment(rng: random.Random, variables: Sequence[Variable], model: Model):
    out = {}
    for v in variables:
        if v.sort is Sort.HOME:
            out[v] = random_element(rng, model)
        else:
            out[v] = random_quotient_element(rng, model)
    return out


def _random_term(
    rng: random.Random,
    variables: Sequence[Variable],
    model: Model,
    force: Variable | None,
    sort: Sort,
) -> HomeTerm | QuotientTerm:
    """A random term of `sort`, mentioning `force` if given."""
    home = sort is Sort.HOME
    coeffs = {}
    for v in variables:
        if (not home or v.sort is Sort.HOME) and rng.random() < 0.5:
            c = rng.randint(-3, 3)
            if c:
                coeffs[v] = Fraction(c)
    if force is not None:
        coeffs[force] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    if home:
        constant = random_element(rng, model, 2) if rng.random() < 0.7 else ModelElement()
        return HomeTerm(coeffs, constant)
    constant = random_quotient_element(rng, model, 2) if rng.random() < 0.5 else QuotientElement()
    own = {v: c for v, c in coeffs.items() if v.sort is Sort.QUOTIENT}
    pushed = {v: c for v, c in coeffs.items() if v.sort is Sort.HOME}
    return QuotientTerm(own, HomeTerm(pushed), constant)


def random_literal(
    rng: random.Random,
    variables: Sequence[Variable],
    model: Model,
    mode: TheoryMode,
    force: Variable | None = None,
) -> Formula:
    """One random literal of a kind in the language of `mode`, optionally
    guaranteed to mention `force`."""
    kinds, quotient = LANGUAGE[mode], KINDS[Sort.QUOTIENT]
    if force is not None and force.sort is Sort.QUOTIENT:
        kinds = [k for k in kinds if k in quotient]
        if not kinds:
            raise ModeError(f"{force} has no atom kind in the language of theory mode {mode.value}")
    kind = rng.choice(kinds)
    sort = Sort.QUOTIENT if kind in quotient else Sort.HOME
    lit: Formula = make_atom(kind, _random_term(rng, variables, model, force, sort))
    if rng.random() < 0.35:
        lit = make_not(lit)
    return lit


def random_conjunction(
    rng: random.Random,
    bound: Variable,
    context: Sequence[Variable],
    model: Model,
    mode: TheoryMode,
    max_literals: int = 6,
) -> list[Formula]:
    """Literals for a single-quantifier instance; most mention the bound variable."""
    n = rng.randint(1, max_literals)
    literals = []
    for i in range(n):
        force = bound if (i == 0 or rng.random() < 0.7) else None
        literals.append(random_literal(rng, [bound, *context], model, mode, force))
    return literals


def random_qf_formula(
    rng: random.Random,
    variables: Sequence[Variable],
    model: Model,
    mode: TheoryMode,
    depth: int = 2,
) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        return random_literal(rng, variables, model, mode)
    shape = rng.random()
    children = [
        random_qf_formula(rng, variables, model, mode, depth - 1)
        for _ in range(rng.randint(2, 3))
    ]
    if shape < 0.45:
        return make_and(children)
    if shape < 0.9:
        return make_or(children)
    return make_not(children[0])


def random_quantified_formula(
    rng: random.Random,
    model: Model,
    mode: TheoryMode,
    quantifiers: int = 2,
    free_home: int = 1,
    free_quotient: int = 1,
) -> Formula:
    """A prefix of alternating-ish quantifiers over both sorts."""
    if mode is TheoryMode.OVS:
        free_quotient = 0
    bound_vars = []
    for i in range(quantifiers):
        sort = Sort.HOME if (mode is TheoryMode.OVS or rng.random() < 0.6) else Sort.QUOTIENT
        bound_vars.append(Variable(sort, 50 + i))
    context = [Variable(Sort.HOME, 90 + i) for i in range(free_home)] + [
        Variable(Sort.QUOTIENT, 90 + i) for i in range(free_quotient)
    ]
    body = random_qf_formula(rng, bound_vars + context, model, mode, depth=2)
    f = body
    for v in reversed(bound_vars):
        if rng.random() < 0.5:
            f = Exists(v, f)
        else:
            f = Forall(v, f)
    return f
